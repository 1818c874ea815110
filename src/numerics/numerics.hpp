// HMMA dot-product numerics (ROADMAP: numerics oracle).
//
// `dot_f16` / `dot_f32` are the one compiled HMMA k-chunk for both
// numerics modes; every HMMA-semantics caller goes through them
// (docs/numerics.md, "One primitive per semantics"). NumericsMode::kIdealized
// is the historic semantics: one FP32 dot product of the chunk's FP16
// products plus the accumulator, rounded once to the accumulator type.
// NumericsMode::kBitAccurate is what the hardware unit actually does, as two
// related-work papers pin it down (see docs/numerics.md for the mapping):
//
//  * "An SMT Formalization of Mixed-Precision Matrix Multiplication"
//    formalizes the per-generation step semantics: a fused dot product of a
//    fixed number of exact FP16 products plus the accumulator, summed in
//    wide intermediate precision and rounded ONCE per step.
//  * "Accurate Models of NVIDIA Tensor Cores" characterizes the rounding
//    mode (round-toward-zero for FP32 accumulation on Volta/Turing,
//    round-to-nearest-even at the FP16 output conversion) and full
//    subnormal support on inputs and outputs.
//
// The bit-accurate step has no floating-point arithmetic in the
// accumulation path: every term (the incoming accumulator plus
// `terms_per_step` exact FP16 products) is converted to a shared
// fixed-point scale and summed exactly, so the single final rounding is
// correct by construction. The F16-accumulate step sums at unit 2^-48 in one
// 128-bit integer (nine terms stay below 2^84); the F32-accumulate step
// sums at unit 2^-149 in a 320-bit accumulator, because a binary32
// accumulator spans 2^-149 to 2^128. HMMA.1688 (k = 8) issues two
// sequential 4-term steps; the step boundary is the only place the model
// rounds mid-instruction, which is what makes chunk-order sensitivity and
// double rounding observable (tests/test_numerics.cpp).
//
// The bit-accurate engine is deterministic and host-FPU-independent.
#pragma once

#include <cstdint>
#include <string_view>

#include "common/half.hpp"

namespace tc::numerics {

/// Which HMMA math the functional executor runs. kIdealized is the historic
/// semantics every recorded golden fixture was produced with; kBitAccurate
/// is the SMT-formalization model below. Threaded through `sim::Launch`,
/// `core::HgemmConfig` and the `tcgemm_cli numerics` subcommand.
enum class NumericsMode : std::uint8_t {
  kIdealized = 0,
  kBitAccurate = 1,
};

[[nodiscard]] const char* numerics_mode_name(NumericsMode mode);
/// Parses "idealized" / "bitaccurate" (the CLI spelling). Returns false and
/// leaves `out` untouched on anything else.
[[nodiscard]] bool parse_numerics_mode(std::string_view name, NumericsMode& out);

/// Per-generation knobs of the SMT model. The defaults are the Turing
/// (sm_75) instantiation this simulator targets; other generations are a
/// different parameterization, not different code (docs/numerics.md
/// "adding a generation").
struct GenerationModel {
  /// FP16 products fused per accumulate step (4 on Volta/Turing: HMMA.1688
  /// executes k = 8 as two sequential steps, rounding between them).
  int terms_per_step = 4;
  /// FP32-accumulate steps round toward zero (Volta/Turing). When false the
  /// step rounds to nearest-even instead (the idealized assumption).
  bool f32_round_rz = true;
  /// Flush subnormal FP16 step results to zero. Turing keeps subnormals
  /// (its key numeric advantage over the FP16 FPU path); FTZ generations
  /// set this. Inputs are never flushed in either case.
  bool f16_ftz_out = false;
  /// Canonical quiet-NaN bit patterns the unit emits: input NaN payloads
  /// are not propagated.
  std::uint32_t qnan32 = 0x7FC00000u;
  std::uint16_t qnan16 = 0x7E00u;
};

/// The default model for this simulator's target generation.
[[nodiscard]] constexpr GenerationModel turing_model() { return GenerationModel{}; }

/// One FP32-accumulate fused step: c + a[0]*b[0] + ... + a[n-1]*b[n-1] with
/// exact products, exact wide accumulation, and a single rounding to
/// binary32 (round-toward-zero under the default model; overflow saturates
/// to the maximum finite value, since RZ never rounds up to infinity).
/// n must be in [0, 8].
[[nodiscard]] float fdp_step_f32(float c, const half* a, const half* b, int n,
                                 const GenerationModel& model = GenerationModel{});

/// One FP16-accumulate fused step, rounded once to binary16 with
/// round-to-nearest-even; subnormal results are exact unless the model
/// flushes them. n must be in [0, 8].
[[nodiscard]] half fdp_step_f16(half c, const half* a, const half* b, int n,
                                const GenerationModel& model = GenerationModel{});

/// One HMMA k-chunk: the accumulator c plus the n <= 8 products
/// a[i] * b[i], in the given semantics.
///  * kIdealized: c and the products summed left to right in FP32, then
///    rounded once to the accumulator type.
///  * kBitAccurate: a left-to-right chain of Turing-model fused steps of
///    4 products each (fdp_step_*), rounding at every step boundary.
/// Compiled once, never inlined into callers (see the header comment).
[[nodiscard]] float dot_f32(NumericsMode mode, float c, const half* a, const half* b,
                            int n = 8);
[[nodiscard]] half dot_f16(NumericsMode mode, half c, const half* a, const half* b,
                           int n = 8);

/// One 8x8x8 block of FP16-accumulate HMMA math: for every i, j in [0, 8),
/// d[i*8 + j] = dot_f16(mode, c[i*8 + j], a + i*8, b + j*8, 8), bit for
/// bit. The 8x8 arrays are row-major: row i of `a` is A's row i and row j of
/// `b` is B's column j. Each A and B element is decoded once per block, not
/// once per output element. `d` may be `c`; it must not overlap `a` or `b`.
void dot_f16_block(NumericsMode mode, const half* c, const half* a, const half* b, half* d);

}  // namespace tc::numerics
