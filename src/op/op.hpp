// tc::op — the driver-level operation graph over the HGEMM pipeline.
//
// A GemmOp describes one logical tensor-core operation: a (possibly
// strided-batched) C = alpha * A * B + beta * C with an optional bias row,
// activation tail, and a split-K factor. lower() turns it into an ordered
// list of kernel launches — the batched/split-K main GEMM pass plus, when
// the epilogue cannot ride in the main kernel's tail, the reduction /
// epilogue kernel — and run_gemm_op() / time_gemm_op() execute that plan
// functionally (bitwise against gemm_op_ref) or on the cycle-level device
// model (per-launch grids, inter-launch overhead).
//
// Lowering rules (see docs/ops.md):
//  * split_k == 1 and a fusible epilogue  -> one launch, epilogue fused
//    into the main kernel's STG tail. The trivial GemmOp (batch 1, no
//    split, default epilogue) is byte-identical to the classic run_hgemm
//    kernel and launch.
//  * bias is never fusible (the fused tail has no spare register for the
//    bias pointer), so it forces the separate epilogue pass.
//  * split_k > 1 always stores raw partial accumulators to the workspace
//    and moves the whole epilogue into the reduction kernel, which folds
//    the partials in slice order with HADD2 before applying it.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "common/matrix.hpp"
#include "core/config.hpp"
#include "core/kernel_gen.hpp"
#include "driver/device.hpp"
#include "numerics/numerics.hpp"
#include "sass/program.hpp"

namespace tc::op {

using core::Activation;

/// Op-level epilogue: alpha/beta scaling, optional per-column bias row,
/// optional activation. Scaling and activation can fuse into the main
/// kernel's tail; bias cannot (fusion legality, docs/ops.md).
struct EpilogueSpec {
  float alpha = 1.0f;
  float beta = 0.0f;
  bool bias = false;
  Activation act = Activation::kNone;

  [[nodiscard]] bool is_default() const {
    return alpha == 1.0f && beta == 0.0f && !bias && act == Activation::kNone;
  }
  /// Whether the epilogue can ride in the main GEMM kernel's STG tail.
  [[nodiscard]] bool fusible() const { return !bias; }
  [[nodiscard]] core::Epilogue scalars() const { return {alpha, beta, act}; }
};

/// Strided batch axis. Strides are element counts between the starts of
/// consecutive batch planes in the *user* buffers; 0 means dense (m*k for A,
/// n*k for B^T, m*n for C). Device-side planes are always dense padded
/// contract planes — user strides apply at the host gather/scatter.
struct BatchSpec {
  int count = 1;
  std::size_t stride_a = 0;
  std::size_t stride_b = 0;
  std::size_t stride_c = 0;

  [[nodiscard]] std::size_t a_stride(const GemmShape& s) const {
    return stride_a != 0 ? stride_a : s.m * s.k;
  }
  [[nodiscard]] std::size_t b_stride(const GemmShape& s) const {
    return stride_b != 0 ? stride_b : s.n * s.k;
  }
  [[nodiscard]] std::size_t c_stride(const GemmShape& s) const {
    return stride_c != 0 ? stride_c : s.m * s.n;
  }
};

/// One logical tensor-core operation. The default-constructed axes make it
/// collapse to the plain single-kernel HGEMM.
struct GemmOp {
  GemmShape shape;  // per-batch user m, n, k
  BatchSpec batch;
  int split_k = 1;  // power of two in [1, 64]
  EpilogueSpec epilogue;
};

/// Role of one launch inside a lowered plan.
enum class LaunchRole { kMain, kReduce };

/// One kernel launch of a lowered GemmOp, in dependency order. Parameter
/// conventions: main = {A, B^T, out} where out is C (fused) or the split-K
/// workspace; reduce = {workspace, C, bias?}.
struct PlannedLaunch {
  LaunchRole role = LaunchRole::kMain;
  sass::Program program;
  std::uint32_t grid_x = 1;
  std::uint32_t grid_y = 1;
  std::uint32_t grid_z = 1;
};

/// A lowered GemmOp: padded geometry plus the ordered launch list.
struct OpPlan {
  GemmOp op;
  core::HgemmConfig cfg;  // with op.split_k applied
  GemmShape contract;     // padded per-batch {mp, np, kp}
  std::size_t slice_k = 0;
  bool fused = false;               // epilogue fused into the main tail
  std::size_t workspace_elems = 0;  // halves; 0 when the plan has no reduce pass
  std::vector<PlannedLaunch> launches;
};

/// Lowers `op` with tile config `cfg` (whose split_k must be 1 or equal to
/// op.split_k). Every emitted program went through tc::sched::schedule; the
/// execution entry points below additionally hard-gate each one through
/// sass::validate + check::find_hazards.
[[nodiscard]] OpPlan lower(const GemmOp& op, const core::HgemmConfig& cfg);

/// Host-side views of the op operands. c_in is read only when beta != 0
/// (batch planes at the C stride); bias is n halves, read only when
/// epilogue.bias.
struct OpInputs {
  std::span<const half> a;
  std::span<const half> bt;
  std::span<const half> c_in;
  std::span<const half> bias;
};

/// Cycle-level cost of one lowered plan on the multi-SM device model.
struct OpTiming {
  /// Per-launch device cycles, in plan order.
  std::vector<std::uint64_t> launch_cycles;
  /// Sum of launch_cycles (no overhead).
  std::uint64_t device_cycles = 0;
  /// Main-pass emergent (or forced) L2 hit rate and SMs used.
  double main_l2_hit_rate = 0.0;
  int main_sms_used = 0;

  /// Cost with a per-launch overhead charge — the amortization story of
  /// batched GEMM vs a loop of singles uses every launch; relative tuner
  /// ranking charges only the launches beyond the first (the common first
  /// launch cancels).
  [[nodiscard]] std::uint64_t total_with_overhead(std::uint64_t overhead) const {
    return device_cycles + overhead * launch_cycles.size();
  }
  [[nodiscard]] std::uint64_t total_extra_overhead(std::uint64_t overhead) const {
    return device_cycles + overhead * (launch_cycles.empty() ? 0 : launch_cycles.size() - 1);
  }
};

/// Execution engine selection for run_gemm_op.
struct OpExec {
  /// false: functional executor (correctness semantics, no timing).
  /// true: cycle-level TimedDevice per launch (full math — outputs stay
  /// bitwise identical to the functional engine), occupancy from
  /// device::occupancy, per-launch cycles reported through `timing`.
  bool timed = false;
  OpTiming* timing = nullptr;  // optional, filled when timed
};

/// Executes the lowered plan on `dev` and scatters the batch outputs into
/// `out` at the C stride (gap elements are left untouched).
void run_gemm_op(driver::Device& dev, const GemmOp& gemm, const OpInputs& in,
                 std::span<half> out, const core::HgemmConfig& cfg, const OpExec& exec = {});

/// Convenience: dense output buffer at the op's C stride, gaps zero.
[[nodiscard]] std::vector<half> run_gemm_op(driver::Device& dev, const GemmOp& gemm,
                                            const OpInputs& in, const core::HgemmConfig& cfg);

/// Bit-exact host reference for the lowered semantics under `mode`:
/// per-slice chunked HMMA accumulation (idealized single-rounding or the
/// bit-accurate two-step model), slice-order HADD2 folding, and the fused
/// tail's exact epilogue rounding sequence. Same output layout as
/// run_gemm_op.
void gemm_op_ref(const GemmOp& gemm, const OpInputs& in, std::span<half> out,
                 const core::HgemmConfig& cfg,
                 numerics::NumericsMode mode = numerics::NumericsMode::kIdealized);
[[nodiscard]] std::vector<half> gemm_op_ref(const GemmOp& gemm, const OpInputs& in,
                                            const core::HgemmConfig& cfg,
                                            numerics::NumericsMode mode =
                                                numerics::NumericsMode::kIdealized);

struct TimedOpOptions {
  /// Forced L2 hit rate for the *main* pass (tune's reuse-model input);
  /// negative = emergent. The reduce pass always runs emergent — each
  /// launch starts with a cold L2 (conservative: no inter-kernel reuse).
  double forced_l2_hit_rate = -1.0;
};

/// Runs every launch of the plan in order on the cycle-level device model
/// (own GlobalMemory, zero-filled operand buffers, MMA math skipped —
/// contents are irrelevant for timing), hard-gating each program through
/// sass::validate + check::find_hazards. Per-launch occupancy comes from
/// device::occupancy.
[[nodiscard]] OpTiming time_gemm_op(const device::DeviceSpec& spec, const OpPlan& plan,
                                    const TimedOpOptions& opts = {});

}  // namespace tc::op
