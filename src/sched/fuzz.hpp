// Scheduler-mode differential fuzzer.
//
// The counterpart to check/fuzz.hpp: instead of generating programs that are
// hazard-free by construction (manual stalls + barriers), this generator
// emits *virtual* programs — the same instruction mix, register map, loop
// shapes, and multi-warp/BAR.SYNC structure, but with NO control info at all
// (an unscheduled KernelBuilder enforces that). Each program is then run
// through tc::sched::schedule() twice (reorder off and on) and each result
// must
//
//   1. schedule at all (no exception from the pipeline or from its
//      postcondition, which rejects any check::find_hazards diagnostic),
//   2. agree bit-for-bit between the functional and timed executors
//      (check::run_case), since a correctly scheduled race-free program can
//      only diverge if the scheduler under-synchronized it. This oracle
//      reads no register footprint, so it also catches a mistake in the
//      model the scheduler and the detector share (sass/footprint.hpp).
//
// This lives in tc::sched rather than tc::check because it depends on the
// scheduler; check/ must stay below sched/ in the link order so the
// scheduler can use find_hazards as its verification oracle.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "check/fuzz.hpp"

namespace tc::sched {

struct SchedFuzzFailure {
  std::uint64_t seed = 0;
  bool reordered = false;  // which scheduling mode failed
  std::string phase;       // "schedule" | "divergence" | "exception"
  std::string detail;      // exception text, diagnostics, or probe diff
  std::string program;     // disassembly (virtual if scheduling threw)
};

struct SchedFuzzReport {
  int programs = 0;   // virtual programs generated
  int schedules = 0;  // successful schedule() runs (2 per program when clean)
  std::vector<SchedFuzzFailure> failures;
  [[nodiscard]] bool ok() const { return failures.empty(); }
};

/// Deterministically generates the virtual test case for `seed`: a program
/// whose every control word is the default (stall 1, no barriers, no waits),
/// packaged with reproducible launch data in check's FuzzCase shape.
check::FuzzCase generate_virtual_case(std::uint64_t seed);

/// Fuzzes `count` seeds starting at `base_seed` through the full
/// generate -> schedule -> hazard-scan -> differential-run pipeline.
SchedFuzzReport run_sched_fuzz(std::uint64_t base_seed, int count);

}  // namespace tc::sched
