// Automatic SASS control-word scheduler.
//
// Takes a *virtual* sass::Program — instructions in semantic order with
// default control words (stall 1, no scoreboard barriers, no wait masks) —
// and produces a fully scheduled one against the shared latency table
// (sass/latency.hpp), the same table the timed simulator executes and the
// static hazard detector (check::find_hazards) analyzes. Pass pipeline:
//
//  1. block partition — straight-line regions bounded by branch targets and
//     BRA/EXIT, mirroring the detector's segment structure; a BAR.SYNC does
//     not end a block but acts as a full fence inside one;
//  2. within-block list scheduling (optional) — greedy, latency-aware,
//     lowest-original-index priority; memory, control, and load-consuming
//     instructions are *anchored* (never issue before any earlier
//     instruction) so the pass only hoists fixed-latency ALU work into
//     stall shadows and never migrates a scoreboard wait;
//  3. minimal stall assignment — longest-path issue times over RAW/WAW/
//     predicate dependence edges weighted with the shared latency table;
//     gaps wider than the 4-bit stall field become NOP padding, and
//     loop-carried dependences of single-block self-loops constrain the
//     back edge (branch redirect included);
//  4. scoreboard allocation — every load demands a write barrier waited at
//     its first consumer, every store demands a read barrier waited at the
//     first overwriter of its sources; demands are colored onto the six
//     hardware barriers by interval interference (sharing a barrier is
//     always legal, it only over-synchronizes); BAR.SYNC drains outstanding
//     shared-memory-read barriers, EXIT drains everything still armed;
//     per-consumer waits whose (setter, waiter] window already contains a
//     kept wait on the same barrier are elided — a wait releases every op
//     counted on the barrier, so one wait per group suffices;
//  5. redundant-wait elimination — wait bits the detector would prove
//     useless at every visit (including the second walk of an unrolled
//     self-loop) are dropped;
//  6. register reuse flags — back-to-back same-pipe instructions reading
//     the same register in the same operand slot get the slot's reuse bit
//     (perf-inert in the model, kept representable per the paper).
//
// Register traffic comes from sass::footprint() (sass/footprint.hpp), the
// model the hazard detector also reads. The result is verified:
// sass::validate() plus check::find_hazards() with zero diagnostics is a hard
// postcondition.
#pragma once

#include <cstdint>

#include "sass/program.hpp"

namespace tc::sched {

struct ScheduleOptions {
  /// Enables the within-block list-scheduling pass. When false the program
  /// keeps its semantic order and only receives stalls/barriers/waits —
  /// the "minimally correct" schedule used as the comparison baseline by
  /// `tcgemm_cli schedule`.
  bool reorder = true;
};

/// Counters describing what the pipeline did; filled by schedule().
struct ScheduleStats {
  int instructions = 0;    ///< final instruction count (including NOP padding)
  int nops_inserted = 0;   ///< NOPs added for stall gaps > 15
  int reordered = 0;       ///< instructions moved off their original position
  int barriers_used = 0;   ///< distinct scoreboard barriers allocated
  int waits_placed = 0;    ///< wait-mask bits surviving in the final program
  int waits_elided = 0;    ///< per-consumer waits covered by an earlier wait
  int waits_dropped = 0;   ///< wait-mask bits removed as provably redundant
  int waits_hoisted = 0;   ///< loop waits moved to the preheader
  int reuse_flags = 0;     ///< reuse bits set
  std::int64_t static_issue_cycles = 0;  ///< sum of final stall counts
};

/// Schedules `virt` (a latency-agnostic program: every control word must be
/// the default except predicates and yield hints) and returns the scheduled
/// program. Throws tc::Error if `virt` already carries manual scheduling,
/// or if the result fails the hazard oracle.
[[nodiscard]] sass::Program schedule(const sass::Program& virt, const ScheduleOptions& opts,
                                     ScheduleStats& stats);
[[nodiscard]] sass::Program schedule(const sass::Program& virt, const ScheduleOptions& opts = {});

}  // namespace tc::sched
