#include "check/fuzz.hpp"

#include <algorithm>
#include <array>
#include <cstdint>
#include <exception>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "check/hazard.hpp"
#include "common/rng.hpp"
#include "device/spec.hpp"
#include "mem/global_mem.hpp"
#include "sass/builder.hpp"
#include "sass/validator.hpp"
#include "sim/functional.hpp"
#include "sim/probe.hpp"
#include "sim/timed_sm.hpp"

namespace tc::check {
namespace {

using sass::CmpOp;
using sass::MemWidth;
using sass::Pred;
using sass::Reg;

// Fixed register map. R0/R1 stay free (RZ aside, some kernels reserve low
// regs); the infrastructure registers below are written once in the prologue
// and never touched by random body ops, so address arithmetic can never race.
constexpr Reg kInBase{2};    // param 0: base of the read-only input buffer
constexpr Reg kOutBase{3};   // param 1: base of the per-thread output slots
constexpr Reg kTid{4};       // S2R TID.X
constexpr Reg kInSlot{5};    // kInBase  + tid * kSlotBytes
constexpr Reg kOutSlot{6};   // kOutBase + tid * kSlotBytes
constexpr Reg kSmSlot{7};    // tid * kSlotBytes (shared-memory byte address)
constexpr int kPoolLo = 8;   // R8..R31: the random value pool
constexpr int kPoolHi = 31;
constexpr Reg kCounter{32};  // loop trip counter
constexpr Reg kScratch{33};  // prologue scratch (tid * kSlotBytes)
constexpr Pred kLanePred{0};  // lane-varying predicate for guarded ops
constexpr Pred kLoopPred{1};  // loop-exit predicate (warp-uniform)

// Every thread owns one 32-byte slot in each memory space. All accesses stay
// inside the owning thread's slot, so programs are free of cross-thread
// memory races regardless of warp count or scheduling.
constexpr int kSlotBytes = 32;

constexpr std::uint64_t kTimedMaxCycles = 2'000'000;  // deadlock guard for the timed SM

/// One FP16 value from the numerics operand class (FuzzOptions::
/// numeric_operands): the hard corners of the binary16 lattice rather than
/// uniform bit noise, so MMA/half ops exercise subnormal accumulation, NaN
/// canonicalization, signed-zero rules and cross-binade cancellation.
std::uint16_t special_half_bits(Rng& rng) {
  const auto sign = static_cast<std::uint16_t>(rng.next_below(2) != 0 ? 0x8000u : 0u);
  switch (rng.next_below(10)) {
    case 0: return sign;                     // +-0
    case 1: return sign | 0x7C00u;           // +-inf
    case 2:                                  // NaN, random nonzero payload
      return static_cast<std::uint16_t>(
          sign | 0x7C00u | static_cast<std::uint16_t>(1 + rng.next_below(0x3FF)));
    case 3:                                  // subnormal, random mantissa
      return static_cast<std::uint16_t>(
          sign | static_cast<std::uint16_t>(1 + rng.next_below(0x3FF)));
    case 4: return sign | 0x03FFu;           // largest subnormal
    case 5: return sign | 0x0400u;           // smallest normal
    case 6: return sign | 0x7BFFu;           // largest finite
    case 7: {                                // binade ladder: 2^e, e in [-24, 15]
      const int e = static_cast<int>(rng.next_int(-24, 15));
      if (e < -14) {
        return static_cast<std::uint16_t>(sign | (1u << (e + 24)));
      }
      return static_cast<std::uint16_t>(sign | (static_cast<unsigned>(e + 15) << 10));
    }
    case 8:                                  // near one: tie-breaking region
      return static_cast<std::uint16_t>(
          sign | static_cast<std::uint16_t>(0x3C00 + rng.next_int(-4, 4)));
    default: {                               // random finite normal
      const auto exp = static_cast<unsigned>(rng.next_int(1, 30));
      return static_cast<std::uint16_t>(sign | (exp << 10) |
                                        static_cast<unsigned>(rng.next_below(0x400)));
    }
  }
}

std::uint32_t special_half2_word(Rng& rng) {
  return static_cast<std::uint32_t>(special_half_bits(rng)) |
         (static_cast<std::uint32_t>(special_half_bits(rng)) << 16);
}

/// Generates one hazard-free-by-construction program. Soundness rules:
///  * every fixed-latency producer carries stall >= its worst dst latency;
///  * loads take a write barrier; the generator tracks reg -> barrier and
///    emits a wait before any read or overwrite of an in-flight destination;
///  * stores optionally take a read barrier, in which case their sources are
///    tracked the same way (without one, tc::sim captures data at issue, so
///    source reuse is benign — the detector agrees, flagging it warning-only);
///  * all armed barriers are drained before a loop back edge and before EXIT,
///    which makes the linear barrier bookkeeping sound across iterations.
class Generator {
 public:
  Generator(std::uint64_t seed, const FuzzOptions& opts)
      : rng_(seed ^ 0xD1B54A32D192ED03ull),
        opts_(opts),
        b_("fuzz_" + std::to_string(seed)) {
    guard_bar_.fill(-1);
    src_bar_.fill(-1);
    armed_.fill(false);
    bar_rr_ = static_cast<int>(rng_.next_below(sass::kNumBarriers));
  }

  FuzzCase build(std::uint64_t seed) {
    static constexpr std::array<int, 5> kWarpChoices = {1, 1, 2, 2, 4};
    warps_ = kWarpChoices[static_cast<std::size_t>(rng_.next_below(5))];
    threads_ = warps_ * 32;
    use_smem_ = rng_.next_below(4) != 0;
    const bool use_loop = rng_.next_below(2) == 0;

    b_.threads(static_cast<std::uint32_t>(threads_));
    if (use_smem_) {
      b_.smem(static_cast<std::uint32_t>(threads_ * kSlotBytes));
    }

    prologue();

    const int total = static_cast<int>(rng_.next_int(4, kMaxBodyOps));
    if (use_loop) {
      const int pre = total / 3;
      const int body = std::max(1, total / 3);
      const int post = std::max(0, total - pre - body);
      for (int i = 0; i < pre; ++i) body_op();
      b_.mov_imm(kCounter, static_cast<std::int32_t>(rng_.next_int(2, 4)))
          .stall(6);
      b_.label("top");
      for (int i = 0; i < body; ++i) body_op();
      drain();
      b_.iadd_imm(kCounter, kCounter, -1).stall(6);
      b_.isetp_imm(kLoopPred, CmpOp::kGt, kCounter, 0).stall(7);
      b_.bra("top").pred(kLoopPred).stall(2);
      for (int i = 0; i < post; ++i) body_op();
    } else {
      for (int i = 0; i < total; ++i) body_op();
    }

    epilogue();

    FuzzCase c;
    c.seed = seed;
    c.prog = b_.finalize();
    c.in_bytes = static_cast<std::uint32_t>(threads_ * kSlotBytes);
    c.out_bytes = c.in_bytes;
    c.in_data.resize(c.in_bytes);
    if (opts_.numeric_operands) {
      // Loaded words must hit the same operand class as the register pool
      // (slot sizes are multiples of 2, so the buffer packs evenly).
      for (std::size_t i = 0; i + 1 < c.in_data.size(); i += 2) {
        const std::uint16_t h = special_half_bits(rng_);
        c.in_data[i] = static_cast<std::uint8_t>(h & 0xFFu);
        c.in_data[i + 1] = static_cast<std::uint8_t>(h >> 8);
      }
    } else {
      for (auto& byte : c.in_data) {
        byte = static_cast<std::uint8_t>(rng_.next_below(256));
      }
    }
    return c;
  }

 private:
  // --- barrier bookkeeping -------------------------------------------------
  [[nodiscard]] std::uint8_t wait_for_read(int lo, int n) const {
    std::uint8_t mask = 0;
    for (int r = lo; r < lo + n; ++r) {
      if (guard_bar_[static_cast<std::size_t>(r)] >= 0) {
        mask |= static_cast<std::uint8_t>(
            1u << guard_bar_[static_cast<std::size_t>(r)]);
      }
    }
    return mask;
  }

  [[nodiscard]] std::uint8_t wait_for_write(int lo, int n) const {
    std::uint8_t mask = wait_for_read(lo, n);
    for (int r = lo; r < lo + n; ++r) {
      if (src_bar_[static_cast<std::size_t>(r)] >= 0) {
        mask |= static_cast<std::uint8_t>(
            1u << src_bar_[static_cast<std::size_t>(r)]);
      }
    }
    return mask;
  }

  void apply_wait(std::uint8_t mask) {
    if (mask == 0) return;
    for (std::size_t r = 0; r < guard_bar_.size(); ++r) {
      if (guard_bar_[r] >= 0 && ((mask >> guard_bar_[r]) & 1u) != 0) {
        guard_bar_[r] = -1;
      }
      if (src_bar_[r] >= 0 && ((mask >> src_bar_[r]) & 1u) != 0) {
        src_bar_[r] = -1;
      }
    }
    for (int i = 0; i < sass::kNumBarriers; ++i) {
      if (((mask >> i) & 1u) != 0) armed_[static_cast<std::size_t>(i)] = false;
    }
  }

  int next_bar() {
    bar_rr_ = (bar_rr_ + 1) % sass::kNumBarriers;
    return bar_rr_;
  }

  /// Applies wait mask + stall to the instruction just emitted and updates
  /// the barrier maps. Call after any operand-specific `pred`/`write_bar`.
  void finish(std::uint8_t wait_mask, int stall_cycles) {
    if (wait_mask != 0) b_.wait(wait_mask);
    b_.stall(stall_cycles);
    apply_wait(wait_mask);
  }

  // --- random picks --------------------------------------------------------
  int stall_for(int latency) {
    return std::min<int>(15, latency + static_cast<int>(rng_.next_below(3)));
  }

  Reg pick_reg() {
    return Reg{static_cast<std::uint8_t>(rng_.next_int(kPoolLo, kPoolHi))};
  }
  Reg pick_pair() {  // even register in [8, 30]
    return Reg{static_cast<std::uint8_t>(kPoolLo + 2 * rng_.next_below(12))};
  }
  Reg pick_quad() {  // quad-aligned register in {8, 12, ..., 28}
    return Reg{static_cast<std::uint8_t>(kPoolLo + 4 * rng_.next_below(6))};
  }
  Reg pick_for_width(int n) {
    return n == 1 ? pick_reg() : n == 2 ? pick_pair() : pick_quad();
  }
  MemWidth pick_width() {
    switch (rng_.next_below(3)) {
      case 0: return MemWidth::k32;
      case 1: return MemWidth::k64;
      default: return MemWidth::k128;
    }
  }
  std::int32_t pick_offset(MemWidth w) {
    const int bytes = sass::width_bytes(w);
    return static_cast<std::int32_t>(
        bytes * rng_.next_below(static_cast<std::uint64_t>(kSlotBytes / bytes)));
  }

  /// Guards the instruction just emitted with the lane predicate, sometimes.
  void maybe_pred() {
    if (rng_.next_below(100) < 30) {
      b_.pred(kLanePred, rng_.next_below(2) == 0);
    }
  }

  // --- prologue / epilogue -------------------------------------------------
  void prologue() {
    b_.mov_param(kInBase, 0).stall(12);
    b_.mov_param(kOutBase, 1).stall(12);
    b_.s2r(kTid, sass::SpecialReg::kTidX).stall(12);
    b_.shl(kScratch, kTid, 5).stall(6);  // tid * kSlotBytes
    b_.iadd3(kInSlot, kInBase, kScratch).stall(6);
    b_.iadd3(kOutSlot, kOutBase, kScratch).stall(6);
    b_.mov(kSmSlot, kScratch).stall(6);
    b_.isetp_imm(kLanePred, CmpOp::kLt, kTid,
                 static_cast<std::int32_t>(rng_.next_int(1, threads_ - 1)))
        .stall(7);
    for (int r = kPoolLo; r <= kPoolHi; ++r) {
      const std::uint32_t word =
          opts_.numeric_operands ? special_half2_word(rng_)
                                 : static_cast<std::uint32_t>(rng_.next_u64());
      b_.mov_imm(Reg{static_cast<std::uint8_t>(r)}, static_cast<std::int32_t>(word))
          .stall(1);
    }
    // Cover the tail of the init chain: the last MOV's consumer can be the
    // very next instruction.
    b_.nop().stall(6);
  }

  void drain() {
    std::uint8_t mask = 0;
    for (int i = 0; i < sass::kNumBarriers; ++i) {
      if (armed_[static_cast<std::size_t>(i)]) {
        mask |= static_cast<std::uint8_t>(1u << i);
      }
    }
    if (mask != 0) {
      b_.nop().wait(mask).stall(1);
      apply_wait(mask);
    }
  }

  void epilogue() {
    drain();
    const int stores = static_cast<int>(rng_.next_int(1, 3));
    for (int i = 0; i < stores; ++i) {
      const MemWidth w = pick_width();
      const Reg src = pick_for_width(sass::width_regs(w));
      b_.stg(w, kOutSlot, src, pick_offset(w)).stall(2);
    }
    b_.exit().stall(1);
  }

  // --- body op emitters ----------------------------------------------------
  void body_op() {
    if (warps_ > 1 && rng_.next_below(100) < 4) {
      // All warps run identical control flow (the loop counter is uniform),
      // so CTA-wide barriers are safe anywhere.
      b_.bar_sync().stall(1);
      return;
    }
    const auto kind = rng_.next_below(100);
    if (kind < 34) {
      alu_op();
    } else if (kind < 48) {
      fma_op();
    } else if (kind < 60) {
      half_op();
    } else if (kind < 66) {
      pred_op();
    } else if (kind < 76) {
      mma_op();
    } else if (kind < 84) {
      load(true);
    } else if (kind < 90) {
      store(true);
    } else if (kind < 95) {
      if (use_smem_) load(false); else alu_op();
    } else {
      if (use_smem_) store(false); else alu_op();
    }
  }

  void alu_op() {
    const Reg d = pick_reg();
    const Reg a = pick_reg();
    const Reg b = pick_reg();
    std::uint8_t wm = wait_for_read(a.idx, 1);
    wm |= wait_for_read(b.idx, 1);
    wm |= wait_for_write(d.idx, 1);
    switch (rng_.next_below(8)) {
      case 0: b_.iadd3(d, a, b); break;
      case 1: b_.imad(d, a, b); break;
      case 2: b_.land(d, a, b); break;
      case 3: b_.lor(d, a, b); break;
      case 4: b_.lxor(d, a, b); break;
      case 5: b_.shl(d, a, static_cast<int>(rng_.next_below(31))); break;
      case 6: b_.shr(d, a, static_cast<int>(rng_.next_below(31))); break;
      default: b_.sel(d, kLanePred, a, b); break;
    }
    maybe_pred();
    finish(wm, stall_for(6));
  }

  void fma_op() {
    const Reg d = pick_reg();
    const Reg a = pick_reg();
    const Reg b = pick_reg();
    const Reg c = pick_reg();
    std::uint8_t wm = wait_for_read(a.idx, 1);
    wm |= wait_for_read(b.idx, 1);
    wm |= wait_for_write(d.idx, 1);
    switch (rng_.next_below(3)) {
      case 0: b_.fadd(d, a, b); break;
      case 1: b_.fmul(d, a, b); break;
      default:
        wm |= wait_for_read(c.idx, 1);
        b_.ffma(d, a, b, c);
        break;
    }
    maybe_pred();
    finish(wm, stall_for(6));
  }

  void half_op() {
    const Reg d = pick_reg();
    const Reg a = pick_reg();
    const Reg b = pick_reg();
    const Reg c = pick_reg();
    std::uint8_t wm = wait_for_read(a.idx, 1);
    wm |= wait_for_write(d.idx, 1);
    switch (rng_.next_below(5)) {
      case 0:
        wm |= wait_for_read(b.idx, 1);
        b_.hadd2(d, a, b);
        break;
      case 1:
        wm |= wait_for_read(b.idx, 1);
        b_.hmul2(d, a, b);
        break;
      case 2:
        wm |= wait_for_read(b.idx, 1);
        wm |= wait_for_read(c.idx, 1);
        b_.hfma2(d, a, b, c);
        break;
      case 3: b_.f2f_f16_f32(d, a); break;
      default: b_.f2f_f32_f16(d, a); break;
    }
    maybe_pred();
    finish(wm, stall_for(6));
  }

  void pred_op() {
    const Reg a = pick_reg();
    const std::uint8_t wm = wait_for_read(a.idx, 1);
    const auto cmp = static_cast<CmpOp>(rng_.next_below(6));
    if (rng_.next_below(2) == 0) {
      const Reg b = pick_reg();
      b_.isetp(kLanePred, cmp, a, b);
      finish(static_cast<std::uint8_t>(wm | wait_for_read(b.idx, 1)),
             stall_for(6));
    } else {
      b_.isetp_imm(kLanePred, cmp, a,
                   static_cast<std::int32_t>(rng_.next_int(-64, 64)));
      finish(wm, stall_for(6));
    }
  }

  void mma_op() {
    sass::Opcode op;
    switch (rng_.next_below(4)) {
      case 0: op = sass::Opcode::kHmma1688F16; break;
      case 1: op = sass::Opcode::kHmma1688F32; break;
      case 2: op = sass::Opcode::kHmma884F16; break;
      default: op = sass::Opcode::kImma8816S8; break;
    }
    const sass::MmaRegCounts n = sass::mma_reg_counts(op);
    const Reg d = pick_for_width(n.d);
    const Reg a = pick_for_width(n.a);
    const Reg b = pick_for_width(n.b);
    const bool c_is_rz = rng_.next_below(4) == 0;
    const Reg c = c_is_rz ? sass::RZ : pick_for_width(n.c);
    std::uint8_t wm = wait_for_read(a.idx, n.a);
    wm |= wait_for_read(b.idx, n.b);
    if (!c_is_rz) wm |= wait_for_read(c.idx, n.c);
    wm |= wait_for_write(d.idx, n.d);
    switch (op) {
      case sass::Opcode::kHmma1688F16: b_.hmma_1688_f16(d, a, b, c); break;
      case sass::Opcode::kHmma1688F32: b_.hmma_1688_f32(d, a, b, c); break;
      case sass::Opcode::kHmma884F16: b_.hmma_884_f16(d, a, b, c); break;
      default: b_.imma_8816_s8(d, a, b, c); break;
    }
    // MMA is never predicated: exec_step requires all lanes active.
    finish(wm, stall_for(14));
  }

  void load(bool global) {
    const MemWidth w = pick_width();
    const int n = sass::width_regs(w);
    const Reg d = pick_for_width(n);
    const std::uint8_t wm = wait_for_write(d.idx, n);
    if (global) {
      const auto cache =
          rng_.next_below(4) == 0 ? sass::CacheOp::kCg : sass::CacheOp::kCa;
      b_.ldg(w, d, kInSlot, pick_offset(w), cache);
    } else {
      b_.lds(w, d, kSmSlot, pick_offset(w));
    }
    maybe_pred();
    const int bar = next_bar();
    b_.write_bar(bar);
    finish(wm, static_cast<int>(rng_.next_int(1, 4)));
    for (int i = 0; i < n; ++i) {
      guard_bar_[static_cast<std::size_t>(d.idx + i)] = bar;
    }
    armed_[static_cast<std::size_t>(bar)] = true;
  }

  void store(bool global) {
    const MemWidth w = pick_width();
    const int n = sass::width_regs(w);
    const Reg src = pick_for_width(n);
    const std::uint8_t wm = wait_for_read(src.idx, n);
    if (global) {
      b_.stg(w, kOutSlot, src, pick_offset(w));
    } else {
      b_.sts(w, kSmSlot, src, pick_offset(w));
    }
    maybe_pred();
    if (rng_.next_below(2) == 0) {
      // With a read barrier the sources are protected until the wait; without
      // one, tc::sim's issue-time operand capture makes reuse benign (the
      // hazard detector reports that case as a warning, not an error).
      const int bar = next_bar();
      b_.read_bar(bar);
      finish(wm, static_cast<int>(rng_.next_int(1, 4)));
      for (int i = 0; i < n; ++i) {
        src_bar_[static_cast<std::size_t>(src.idx + i)] = bar;
      }
      armed_[static_cast<std::size_t>(bar)] = true;
    } else {
      finish(wm, static_cast<int>(rng_.next_int(1, 4)));
    }
  }

  Rng rng_;
  const FuzzOptions& opts_;
  sass::KernelBuilder b_;
  int warps_ = 1;
  int threads_ = 32;
  bool use_smem_ = false;
  std::array<int, 256> guard_bar_{};  // reg -> write barrier of in-flight load
  std::array<int, 256> src_bar_{};    // reg -> read barrier of in-flight store
  std::array<bool, sass::kNumBarriers> armed_{};
  int bar_rr_ = 0;
};

/// Removes instruction `at` and re-targets branches across the gap.
sass::Program remove_instruction(const sass::Program& p, int at) {
  sass::Program q = p;
  q.code.erase(q.code.begin() + at);
  for (auto& inst : q.code) {
    if (inst.op == sass::Opcode::kBra && inst.target > at) {
      --inst.target;
    }
  }
  return q;
}

}  // namespace

FuzzCase generate_case(std::uint64_t seed, const FuzzOptions& opts) {
  Generator gen(seed, opts);
  return gen.build(seed);
}

std::optional<std::string> run_case(const FuzzCase& c, const FuzzOptions& opts) {
  try {
    const bool jit_mode = opts.compare == FuzzCompare::kJitVsInterpreter;
    const std::string name_a = jit_mode ? "interpret" : "functional";
    const std::string name_b = jit_mode ? "jit" : "timed";
    sim::StateProbe probe_a;
    sim::StateProbe probe_b;
    probe_a.set_num_regs(c.prog.num_regs);
    probe_b.set_num_regs(c.prog.num_regs);

    // Two memories with identical allocation order; addresses match, but each
    // launch carries its own params so no aliasing is assumed.
    mem::GlobalMemory gmem_f;
    mem::GlobalMemory gmem_t;
    const std::uint32_t in_f = gmem_f.alloc(c.in_bytes);
    const std::uint32_t out_f = gmem_f.alloc(c.out_bytes);
    const std::uint32_t in_t = gmem_t.alloc(c.in_bytes);
    const std::uint32_t out_t = gmem_t.alloc(c.out_bytes);
    gmem_f.write(in_f, std::span(c.in_data));
    gmem_t.write(in_t, std::span(c.in_data));

    sim::Launch launch_f;
    launch_f.program = &c.prog;
    launch_f.params = {in_f, out_f};
    launch_f.numerics = opts.numerics;
    sim::FunctionalExecutor fx(gmem_f, /*host_threads=*/1);
    fx.set_probe(&probe_a);
    fx.run(launch_f);

    sim::Launch launch_t;
    launch_t.program = &c.prog;
    launch_t.params = {in_t, out_t};
    launch_t.numerics = opts.numerics;
    if (jit_mode) {
      launch_t.engine = sim::ExecEngine::kJit;
      sim::FunctionalExecutor jx(gmem_t, /*host_threads=*/1);
      jx.set_probe(&probe_b);
      jx.run(launch_t);
    } else {
      sim::TimedConfig cfg;
      cfg.spec = device::rtx2070();
      cfg.probe = &probe_b;
      cfg.max_cycles = kTimedMaxCycles;
      sim::TimedSm sm(cfg, gmem_t);
      const sim::CtaCoord cta{0, 0};
      sm.run(launch_t, std::span(&cta, 1));
    }

    const std::string reg_diff =
        sim::StateProbe::diff(probe_a, probe_b, /*max_reports=*/4, name_a, name_b);
    if (!reg_diff.empty()) return reg_diff;

    std::vector<std::uint8_t> buf_f(c.out_bytes);
    std::vector<std::uint8_t> buf_t(c.out_bytes);
    gmem_f.read(out_f, std::span(buf_f));
    gmem_t.read(out_t, std::span(buf_t));
    for (std::uint32_t i = 0; i < c.out_bytes; ++i) {
      if (buf_f[i] != buf_t[i]) {
        return "output byte " + std::to_string(i) + ": " + name_a + " 0x" +
               std::to_string(buf_f[i]) + " vs " + name_b + " " + std::to_string(buf_t[i]);
      }
    }
    // The input buffer must be untouched by both engines.
    buf_f.assign(c.in_bytes, 0);
    buf_t.assign(c.in_bytes, 0);
    gmem_f.read(in_f, std::span(buf_f));
    gmem_t.read(in_t, std::span(buf_t));
    for (std::uint32_t i = 0; i < c.in_bytes; ++i) {
      if (buf_f[i] != c.in_data[i] || buf_t[i] != c.in_data[i]) {
        return "input buffer clobbered at byte " + std::to_string(i);
      }
    }
    return std::nullopt;
  } catch (const std::exception& e) {
    return std::string("exception: ") + e.what();
  }
}

FuzzCase shrink_case(const FuzzCase& c, const FuzzOptions& opts) {
  FuzzCase best = c;
  const auto original = run_case(best, opts);
  if (!original.has_value()) return best;  // nothing to preserve
  // A deletion may not morph the failure class: a register divergence must
  // stay a divergence, not degrade into (say) a null-pointer throw from
  // deleting the address setup.
  const bool want_exception = original->rfind("exception:", 0) == 0;
  bool changed = true;
  while (changed) {
    changed = false;
    for (int i = static_cast<int>(best.prog.code.size()) - 1; i >= 0; --i) {
      if (best.prog.code[static_cast<std::size_t>(i)].op ==
          sass::Opcode::kExit) {
        continue;
      }
      FuzzCase cand = best;
      cand.prog = remove_instruction(best.prog, i);
      // The shrunken program must stay a valid, race-free program, or the
      // "divergence" could become a program bug instead of an executor bug.
      try {
        sass::validate(cand.prog);
      } catch (const std::exception&) {
        continue;
      }
      if (sass::has_errors(find_hazards(cand.prog))) continue;
      const auto result = run_case(cand, opts);
      if (result.has_value() &&
          (result->rfind("exception:", 0) == 0) == want_exception) {
        best = std::move(cand);
        changed = true;
      }
    }
  }
  return best;
}

FuzzReport run_fuzz(std::uint64_t base_seed, int count, const FuzzOptions& opts) {
  FuzzReport rep;
  for (int i = 0; i < count; ++i) {
    const std::uint64_t seed = base_seed + static_cast<std::uint64_t>(i);
    FuzzCase c;
    try {
      c = generate_case(seed, opts);
    } catch (const std::exception& e) {
      rep.failures.push_back({seed, "exception",
                              std::string("generator: ") + e.what(), "", 0, 0});
      continue;
    }
    ++rep.programs;

    // Generator/detector cross-check: the generator claims the program is
    // race-free; the detector must agree, or one of them is wrong.
    const auto diags = find_hazards(c.prog);
    if (sass::has_errors(diags)) {
      std::string detail;
      for (const auto& d : diags) {
        if (d.severity == sass::DiagSeverity::kError) {
          detail += sass::format(d) + "\n";
        }
      }
      rep.failures.push_back({seed, "hazard", detail, c.prog.disassemble(),
                              static_cast<int>(c.prog.code.size()),
                              static_cast<int>(c.prog.code.size())});
      continue;
    }

    const auto div = run_case(c, opts);
    if (!div.has_value()) continue;
    ++rep.divergences;
    const FuzzCase small = shrink_case(c, opts);
    const auto small_div = run_case(small, opts);
    const std::string detail = small_div.value_or(*div);
    const bool is_exception = detail.rfind("exception:", 0) == 0;
    rep.failures.push_back({seed, is_exception ? "exception" : "divergence",
                            detail, small.prog.disassemble(),
                            static_cast<int>(c.prog.code.size()),
                            static_cast<int>(small.prog.code.size())});
  }
  return rep;
}

}  // namespace tc::check
