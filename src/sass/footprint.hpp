// The register footprint of one instruction: which registers and predicates
// it reads at issue, writes after a fixed latency, writes when a load's data
// arrives, or holds as the source of an in-flight memory operation.
//
// This is the one model every static analysis reads: the scheduler's
// dependence edges and scoreboard demands (tc::sched), the hazard detector
// (tc::check), the stall-slack lint (validator.hpp) and the register count
// of builder and assembler output. A decoded instruction in GPGPU-Sim
// carries the same thing: one list of input and output registers that both
// the scoreboard and the operand collector consult.
#pragma once

#include <array>
#include <span>
#include <string>
#include <vector>

#include "sass/instruction.hpp"
#include "sass/program.hpp"

namespace tc::sass {

/// `count` consecutive registers starting at R`lo`; count 0 is empty.
struct RegRange {
  int lo = 0;
  int count = 0;
};

[[nodiscard]] constexpr bool overlaps(const RegRange& a, const RegRange& b) {
  return a.count > 0 && b.count > 0 && a.lo < b.lo + b.count && b.lo < a.lo + a.count;
}

[[nodiscard]] constexpr bool covers(const RegRange& r, int reg) {
  return r.count > 0 && reg >= r.lo && reg < r.lo + r.count;
}

/// "R8" or "R8..R11".
[[nodiscard]] std::string range_name(const RegRange& r);

/// Empty ranges sort to the end of `reads` and `mio_srcs`; a predicate slot
/// is -1 when unused.
struct Footprint {
  /// Written through a fixed-latency pipe (ALU, FMA, tensor, special).
  RegRange fixed_write;
  /// Written when a load's data arrives (LDG/LDS), signalled by a barrier.
  RegRange load_dst;
  /// Read by the operand collectors at issue.
  std::array<RegRange, 3> reads{};
  /// Held by an in-flight memory op (address, store data) until its read
  /// barrier fires. The timed SM reads them at issue, so an early overwrite
  /// races only on silicon.
  std::array<RegRange, 2> mio_srcs{};
  /// Predicates read at issue: [0] the guard, [1] SEL's selector.
  std::array<int, 2> pred_reads{-1, -1};
  /// Predicate written (ISETP).
  int pred_write = -1;

  [[nodiscard]] constexpr bool reads_any(const RegRange& r) const {
    for (const RegRange& read : reads) {
      if (overlaps(read, r)) return true;
    }
    return false;
  }
};

/// The footprint of `inst`. Allocates nothing.
[[nodiscard]] Footprint footprint(const Instruction& inst);

/// footprint() of each instruction of `code`, in order.
[[nodiscard]] std::vector<Footprint> footprints(std::span<const Instruction> code);

/// Sets prog.num_regs (highest register any footprint touches, +1) and
/// prog.num_param_words (highest MOV.PARAM index, +1) from prog.code.
void count_resources(Program& prog);

}  // namespace tc::sass
