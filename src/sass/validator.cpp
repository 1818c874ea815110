#include "sass/validator.hpp"

#include <algorithm>

#include "common/error.hpp"
#include "sass/footprint.hpp"

namespace tc::sass {

namespace {

void check_operand_range(const Instruction& inst, Reg r, int count, const char* what, int pc) {
  if (r.is_rz()) return;
  TC_CHECK(static_cast<int>(r.idx) + count <= kMaxRegsPerThread - 1,
           opcode_name(inst.op) + " at pc " + std::to_string(pc) + ": " + what +
               " register range exceeds R254");
  // Multi-register operands must be naturally aligned, as on hardware.
  if (count == 2) {
    TC_CHECK(r.idx % 2 == 0, opcode_name(inst.op) + " at pc " + std::to_string(pc) + ": " +
                                 what + " must be an aligned register pair");
  } else if (count == 4) {
    TC_CHECK(r.idx % 4 == 0, opcode_name(inst.op) + " at pc " + std::to_string(pc) + ": " +
                                 what + " must be an aligned register quad");
  }
}

}  // namespace

void validate(const Program& prog) {
  TC_CHECK(!prog.code.empty(), "program '" + prog.name + "' is empty");
  TC_CHECK(prog.num_regs <= kMaxRegsPerThread, "program uses more than 256 registers/thread");
  TC_CHECK(prog.smem_bytes <= kMaxSmemPerCta,
           "program requests more than 64KB shared memory per CTA");
  TC_CHECK(prog.cta_threads >= 32 && prog.cta_threads % 32 == 0 && prog.cta_threads <= 1024,
           "CTA size must be a multiple of 32 in [32,1024]");

  bool has_exit = false;
  const int n = static_cast<int>(prog.code.size());

  // Barriers armed anywhere in the program. A wait_mask bit with no setter
  // at all can never clear on hardware (the scoreboard stays at zero only
  // because nothing ever arms it — silicon blocks forever on the first
  // elevated count a rescheduled kernel produces), so it is a hard error,
  // not a lint warning. The setter may sit *after* the wait in program
  // order: loop bodies legitimately wait at the top for a load issued at
  // the bottom of the previous iteration.
  std::uint32_t barriers_ever_set = 0;
  for (const auto& inst : prog.code) {
    if (inst.ctrl.write_barrier != kNoBarrier) barriers_ever_set |= 1u << inst.ctrl.write_barrier;
    if (inst.ctrl.read_barrier != kNoBarrier) barriers_ever_set |= 1u << inst.ctrl.read_barrier;
  }

  for (int pc = 0; pc < n; ++pc) {
    const auto& inst = prog.code[static_cast<std::size_t>(pc)];
    TC_CHECK(inst.ctrl.stall <= 15, "stall count out of range");
    TC_CHECK(inst.ctrl.write_barrier == kNoBarrier || inst.ctrl.write_barrier < kNumBarriers,
             "bad write barrier index");
    TC_CHECK(inst.ctrl.read_barrier == kNoBarrier || inst.ctrl.read_barrier < kNumBarriers,
             "bad read barrier index");
    TC_CHECK(inst.ctrl.wait_mask < (1u << kNumBarriers), "bad wait mask");
    if (const std::uint32_t orphan = inst.ctrl.wait_mask & ~barriers_ever_set; orphan != 0) {
      int b = 0;
      while (((orphan >> b) & 1u) == 0) ++b;
      TC_CHECK(false, opcode_name(inst.op) + " at pc " + std::to_string(pc) +
                          " waits on scoreboard barrier B" + std::to_string(b) +
                          " that no instruction ever sets; the wait could never clear");
    }
    if (inst.ctrl.write_barrier != kNoBarrier || inst.ctrl.read_barrier != kNoBarrier) {
      TC_CHECK(is_variable_latency(inst.op),
               opcode_name(inst.op) + " at pc " + std::to_string(pc) +
                   ": scoreboard barriers are only meaningful on memory instructions");
    }

    switch (inst.op) {
      case Opcode::kExit:
        has_exit = true;
        break;
      case Opcode::kBra:
        TC_CHECK(inst.target >= 0 && inst.target < n,
                 "unresolved/out-of-range branch target at pc " + std::to_string(pc));
        break;
      case Opcode::kLdg:
      case Opcode::kLds:
        check_operand_range(inst, inst.dst, width_regs(inst.width), "destination", pc);
        check_operand_range(inst, inst.srca, 1, "address", pc);
        TC_CHECK(!inst.srca.is_rz() || inst.imm >= 0, "load from RZ with negative offset");
        break;
      case Opcode::kStg:
      case Opcode::kSts:
        check_operand_range(inst, inst.srcb, width_regs(inst.width), "source", pc);
        check_operand_range(inst, inst.srca, 1, "address", pc);
        break;
      default:
        if (is_mma(inst.op)) {
          const auto rc = mma_reg_counts(inst.op);
          TC_CHECK(!inst.dst.is_rz() && !inst.srca.is_rz() && !inst.srcb.is_rz(),
                   "MMA D/A/B operands must be real registers (C may be RZ)");
          check_operand_range(inst, inst.dst, rc.d, "D", pc);
          check_operand_range(inst, inst.srca, rc.a, "A", pc);
          check_operand_range(inst, inst.srcb, rc.b, "B", pc);
          check_operand_range(inst, inst.srcc, rc.c, "C", pc);
        } else {
          check_operand_range(inst, inst.dst, 1, "destination", pc);
        }
        break;
    }
  }
  TC_CHECK(has_exit, "program '" + prog.name + "' has no EXIT");
}

std::vector<std::string> lint(const Program& prog) {
  std::vector<std::string> warnings;
  std::uint8_t barriers_set = 0;
  std::uint8_t barriers_waited = 0;

  const int n = static_cast<int>(prog.code.size());
  for (int pc = 0; pc < n; ++pc) {
    const auto& inst = prog.code[static_cast<std::size_t>(pc)];
    if (inst.ctrl.write_barrier != kNoBarrier) {
      barriers_set |= static_cast<std::uint8_t>(1u << inst.ctrl.write_barrier);
    }
    if (inst.ctrl.read_barrier != kNoBarrier) {
      barriers_set |= static_cast<std::uint8_t>(1u << inst.ctrl.read_barrier);
    }
    barriers_waited |= inst.ctrl.wait_mask;

    const bool is_load = inst.op == Opcode::kLdg || inst.op == Opcode::kLds;
    if (is_load && !inst.dst.is_rz() && inst.ctrl.write_barrier == kNoBarrier) {
      warnings.push_back("pc " + std::to_string(pc) + ": " + opcode_name(inst.op) +
                         " writes R" + std::to_string(inst.dst.idx) +
                         " without a write barrier; consumers cannot synchronize");
    }
  }

  for (int b = 0; b < kNumBarriers; ++b) {
    const auto bit = static_cast<std::uint8_t>(1u << b);
    if ((barriers_waited & bit) && !(barriers_set & bit)) {
      warnings.push_back("barrier B" + std::to_string(b) + " is waited on but never set");
    }
    if ((barriers_set & bit) && !(barriers_waited & bit)) {
      warnings.push_back("barrier B" + std::to_string(b) + " is set but never waited on");
    }
  }
  return warnings;
}

std::vector<std::string> lint(const Program& prog, LatencyFn latency_of) {
  std::vector<std::string> warnings;
  const int n = static_cast<int>(prog.code.size());
  if (n == 0) return warnings;

  // Straight-line segment leaders: entry, branch targets, and the
  // instruction after any control instruction (branch/barrier/exit).
  std::vector<char> leader(static_cast<std::size_t>(n), 0);
  leader[0] = 1;
  for (int pc = 0; pc < n; ++pc) {
    const auto& inst = prog.code[static_cast<std::size_t>(pc)];
    if (inst.op == Opcode::kBra && inst.target >= 0 && inst.target < n) {
      leader[static_cast<std::size_t>(inst.target)] = 1;
    }
    if (pipe_class(inst.op) == PipeClass::kControl && pc + 1 < n) {
      leader[static_cast<std::size_t>(pc + 1)] = 1;
    }
  }

  const auto at = [&](int pc) -> const Instruction& {
    return prog.code[static_cast<std::size_t>(pc)];
  };
  const std::vector<Footprint> fp = footprints(prog.code);
  const auto fp_at = [&](int pc) -> const Footprint& { return fp[static_cast<std::size_t>(pc)]; };

  int s = 0;
  while (s < n) {
    int e = s;
    while (e + 1 < n && !leader[static_cast<std::size_t>(e + 1)]) ++e;

    // Static issue times within the segment: t[i - s] is when instruction i
    // issues relative to the segment start, assuming no scoreboard waits
    // fire. Waits only ever ADD time, so these are lower bounds — which
    // makes excess-slack findings safe, and under-protection findings valid
    // exactly when no wait mask sits on the consumer path.
    std::vector<std::int64_t> t(static_cast<std::size_t>(e - s + 2), 0);
    for (int i = s; i <= e; ++i) {
      t[static_cast<std::size_t>(i - s + 1)] =
          t[static_cast<std::size_t>(i - s)] + std::max<int>(at(i).ctrl.stall, 1);
    }
    const auto& last = at(e);
    const bool self_loop = last.op == Opcode::kBra && last.target == s;

    for (int i = s; i <= e; ++i) {
      const auto& pinst = at(i);
      const RegRange w = fp_at(i).fixed_write;
      if (w.count == 0) continue;
      int lat = 0;
      for (int off = 0; off < w.count; ++off) lat = std::max(lat, latency_of(pinst, off));

      bool waits = false;
      bool resolved = false;
      for (int j = i + 1; j <= e && !resolved; ++j) {
        if (at(j).ctrl.wait_mask != 0) waits = true;
        if (fp_at(j).reads_any(w)) {
          const std::int64_t gap =
              t[static_cast<std::size_t>(j - s)] - t[static_cast<std::size_t>(i - s)];
          if (gap < lat) {
            if (!waits) {
              warnings.push_back(
                  "pc " + std::to_string(i) + " (" + opcode_name(pinst.op) + "): " +
                  range_name(w) + " read at pc " + std::to_string(j) + " only " +
                  std::to_string(gap) + " cycles after issue but ready after " +
                  std::to_string(lat) + "; under-protected by " + std::to_string(lat - gap) +
                  " cycles");
            }
          } else {
            // Each intermediate instruction needs >= 1 issue slot, so only
            // the (stall - 1) surplus of each is removable.
            const std::int64_t reducible = gap - (j - i);
            const std::int64_t excess = std::min(gap - lat, reducible);
            if (excess > 0) {
              warnings.push_back(
                  "pc " + std::to_string(i) + " (" + opcode_name(pinst.op) + "): " +
                  range_name(w) + " ready after " + std::to_string(lat) +
                  " cycles but first consumer at pc " + std::to_string(j) + " issues " +
                  std::to_string(gap) + " cycles later; " + std::to_string(excess) +
                  " cycles of excess stall slack");
            }
          }
          resolved = true;
        } else if (overlaps(fp_at(j).fixed_write, w)) {
          resolved = true;  // overwritten before any read: dependency dead
        }
      }

      // Loop-carried check for single-block loops: the first consumer may be
      // at the top of the next iteration. Only under-protection is reported
      // (slack across a back edge is not removable per-instruction). The scan
      // includes j == i: a single-instruction loop body that reads its own
      // destination depends on itself across the back edge, with exactly one
      // full trip (loop_len) between issue and re-read.
      if (!resolved && self_loop) {
        const std::int64_t loop_len = t[static_cast<std::size_t>(e - s + 1)];
        for (int j = s; j <= i && !resolved; ++j) {
          if (at(j).ctrl.wait_mask != 0) waits = true;
          if (fp_at(j).reads_any(w)) {
            const std::int64_t gap = loop_len - t[static_cast<std::size_t>(i - s)] +
                                     t[static_cast<std::size_t>(j - s)];
            if (gap < lat && !waits) {
              warnings.push_back(
                  "pc " + std::to_string(i) + " (" + opcode_name(pinst.op) + "): " +
                  range_name(w) + " read at pc " + std::to_string(j) +
                  " across the loop back-edge only " + std::to_string(gap) +
                  " cycles after issue but ready after " + std::to_string(lat) +
                  "; under-protected by " + std::to_string(lat - gap) + " cycles");
            }
            resolved = true;
          } else if (overlaps(fp_at(j).fixed_write, w)) {
            resolved = true;
          }
        }
      }
    }
    s = e + 1;
  }
  return warnings;
}

}  // namespace tc::sass
