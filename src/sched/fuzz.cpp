#include "sched/fuzz.hpp"

#include <algorithm>
#include <array>
#include <cstdint>
#include <exception>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "sass/builder.hpp"
#include "sched/schedule.hpp"

namespace tc::sched {
namespace {

using sass::CmpOp;
using sass::MemWidth;
using sass::Pred;
using sass::Reg;

// Same fixed register map as check/fuzz.cpp: infrastructure registers are
// written once in the prologue and never touched by random body ops, and
// every thread stays inside its own 32-byte slot per memory space, so the
// generated programs are race-free regardless of warp count or scheduling.
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

constexpr int kSlotBytes = 32;

/// Generates one virtual program: the check/fuzz.cpp instruction mix with
/// every scheduling decision left to tc::sched. The builder runs in
/// unscheduled mode, so an accidental .stall()/.wait() here would throw.
class VirtualGenerator {
 public:
  explicit VirtualGenerator(std::uint64_t seed)
      : rng_(seed ^ 0x9E6C63D0876A9A47ull),
        b_("sched_fuzz_" + std::to_string(seed), /*unscheduled=*/true) {}

  check::FuzzCase build(std::uint64_t seed) {
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

    const int total = static_cast<int>(rng_.next_int(4, check::kMaxBodyOps));
    if (use_loop) {
      const int pre = total / 3;
      const int body = std::max(1, total / 3);
      const int post = std::max(0, total - pre - body);
      for (int i = 0; i < pre; ++i) body_op();
      b_.mov_imm(kCounter, static_cast<std::int32_t>(rng_.next_int(2, 4)));
      b_.label("top");
      for (int i = 0; i < body; ++i) body_op();
      b_.iadd_imm(kCounter, kCounter, -1);
      b_.isetp_imm(kLoopPred, CmpOp::kGt, kCounter, 0);
      b_.bra("top").pred(kLoopPred);
      for (int i = 0; i < post; ++i) body_op();
    } else {
      for (int i = 0; i < total; ++i) body_op();
    }

    epilogue();

    check::FuzzCase c;
    c.seed = seed;
    c.prog = b_.finalize();
    c.in_bytes = static_cast<std::uint32_t>(threads_ * kSlotBytes);
    c.out_bytes = c.in_bytes;
    c.in_data.resize(c.in_bytes);
    for (auto& byte : c.in_data) {
      byte = static_cast<std::uint8_t>(rng_.next_below(256));
    }
    return c;
  }

 private:
  // --- random picks --------------------------------------------------------
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

  void maybe_pred() {
    if (rng_.next_below(100) < 30) {
      b_.pred(kLanePred, rng_.next_below(2) == 0);
    }
  }

  // --- prologue / epilogue -------------------------------------------------
  void prologue() {
    b_.mov_param(kInBase, 0);
    b_.mov_param(kOutBase, 1);
    b_.s2r(kTid, sass::SpecialReg::kTidX);
    b_.shl(kScratch, kTid, 5);  // tid * kSlotBytes
    b_.iadd3(kInSlot, kInBase, kScratch);
    b_.iadd3(kOutSlot, kOutBase, kScratch);
    b_.mov(kSmSlot, kScratch);
    b_.isetp_imm(kLanePred, CmpOp::kLt, kTid,
                 static_cast<std::int32_t>(rng_.next_int(1, threads_ - 1)));
    for (int r = kPoolLo; r <= kPoolHi; ++r) {
      b_.mov_imm(Reg{static_cast<std::uint8_t>(r)},
                 static_cast<std::int32_t>(
                     static_cast<std::uint32_t>(rng_.next_u64())));
    }
  }

  void epilogue() {
    const int stores = static_cast<int>(rng_.next_int(1, 3));
    for (int i = 0; i < stores; ++i) {
      const MemWidth w = pick_width();
      const Reg src = pick_for_width(sass::width_regs(w));
      b_.stg(w, kOutSlot, src, pick_offset(w));
    }
    b_.exit();
  }

  // --- body op emitters ----------------------------------------------------
  void body_op() {
    if (warps_ > 1 && rng_.next_below(100) < 4) {
      // All warps run identical control flow (the loop counter is uniform),
      // so CTA-wide barriers are safe anywhere.
      b_.bar_sync();
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
  }

  void fma_op() {
    const Reg d = pick_reg();
    const Reg a = pick_reg();
    const Reg b = pick_reg();
    const Reg c = pick_reg();
    switch (rng_.next_below(3)) {
      case 0: b_.fadd(d, a, b); break;
      case 1: b_.fmul(d, a, b); break;
      default: b_.ffma(d, a, b, c); break;
    }
    maybe_pred();
  }

  void half_op() {
    const Reg d = pick_reg();
    const Reg a = pick_reg();
    const Reg b = pick_reg();
    const Reg c = pick_reg();
    switch (rng_.next_below(5)) {
      case 0: b_.hadd2(d, a, b); break;
      case 1: b_.hmul2(d, a, b); break;
      case 2: b_.hfma2(d, a, b, c); break;
      case 3: b_.f2f_f16_f32(d, a); break;
      default: b_.f2f_f32_f16(d, a); break;
    }
    maybe_pred();
  }

  void pred_op() {
    const Reg a = pick_reg();
    const auto cmp = static_cast<CmpOp>(rng_.next_below(6));
    if (rng_.next_below(2) == 0) {
      b_.isetp(kLanePred, cmp, a, pick_reg());
    } else {
      b_.isetp_imm(kLanePred, cmp, a,
                   static_cast<std::int32_t>(rng_.next_int(-64, 64)));
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
    const Reg c = rng_.next_below(4) == 0 ? sass::RZ : pick_for_width(n.c);
    switch (op) {
      case sass::Opcode::kHmma1688F16: b_.hmma_1688_f16(d, a, b, c); break;
      case sass::Opcode::kHmma1688F32: b_.hmma_1688_f32(d, a, b, c); break;
      case sass::Opcode::kHmma884F16: b_.hmma_884_f16(d, a, b, c); break;
      default: b_.imma_8816_s8(d, a, b, c); break;
    }
    // MMA is never predicated: exec_step requires all lanes active.
  }

  void load(bool global) {
    const MemWidth w = pick_width();
    const Reg d = pick_for_width(sass::width_regs(w));
    if (global) {
      const auto cache =
          rng_.next_below(4) == 0 ? sass::CacheOp::kCg : sass::CacheOp::kCa;
      b_.ldg(w, d, kInSlot, pick_offset(w), cache);
    } else {
      b_.lds(w, d, kSmSlot, pick_offset(w));
    }
    maybe_pred();
  }

  void store(bool global) {
    const MemWidth w = pick_width();
    const Reg src = pick_for_width(sass::width_regs(w));
    if (global) {
      b_.stg(w, kOutSlot, src, pick_offset(w));
    } else {
      b_.sts(w, kSmSlot, src, pick_offset(w));
    }
    maybe_pred();
  }

  Rng rng_;
  sass::KernelBuilder b_;
  int warps_ = 1;
  int threads_ = 32;
  bool use_smem_ = false;
};

}  // namespace

check::FuzzCase generate_virtual_case(std::uint64_t seed) {
  VirtualGenerator gen(seed);
  return gen.build(seed);
}

SchedFuzzReport run_sched_fuzz(std::uint64_t base_seed, int count) {
  SchedFuzzReport rep;

  for (int i = 0; i < count; ++i) {
    const std::uint64_t seed = base_seed + static_cast<std::uint64_t>(i);
    check::FuzzCase virt;
    try {
      virt = generate_virtual_case(seed);
    } catch (const std::exception& e) {
      rep.failures.push_back(
          {seed, false, "schedule", std::string("generator: ") + e.what(), ""});
      continue;
    }
    ++rep.programs;

    for (const bool reorder : {false, true}) {
      ScheduleOptions sopts;
      sopts.reorder = reorder;
      check::FuzzCase scheduled = virt;
      try {
        scheduled.prog = schedule(virt.prog, sopts);
      } catch (const std::exception& e) {
        rep.failures.push_back(
            {seed, reorder, "schedule", e.what(), virt.prog.disassemble()});
        continue;
      }
      ++rep.schedules;

      const auto div = check::run_case(scheduled, check::FuzzOptions{});
      if (!div.has_value()) continue;
      const bool is_exception = div->rfind("exception:", 0) == 0;
      rep.failures.push_back({seed, reorder,
                              is_exception ? "exception" : "divergence", *div,
                              scheduled.prog.disassemble()});
    }
  }
  return rep;
}

}  // namespace tc::sched
