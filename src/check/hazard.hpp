// Static scoreboard hazard detector.
//
// Walks a sass::Program with the timed executor's latency table and flags
// register hazards that no stall count or scoreboard wait covers:
//
//  * RAW on a fixed-latency producer (ALU/FMA/MMA, including the split
//    low/high HMMA destination writeback) whose consumer issues before the
//    result is committed;
//  * RAW on an in-flight memory load whose write barrier is not waited on
//    (or that has none) before the destination is read;
//  * WAW against an in-flight load — the late writeback would bury the
//    younger value — and against a fixed-latency write whose commit the
//    younger write's commit would invert;
//  * WAR against the source registers of an in-flight memory operation whose
//    read barrier is not waited on. tc::sim captures operands at issue, so
//    this cannot corrupt the simulation — but it races on silicon, so it is
//    reported as a warning rather than an error;
//  * redundant protection: waiting on a scoreboard barrier that is provably
//    already clear (warning).
//
// Analysis is per straight-line segment (segment-local state is forgotten at
// branch targets), with issue times as static lower bounds exactly like
// sass::lint's slack analysis: scoreboard waits and pipe backpressure only
// ever ADD time, so an under-protection finding is a true race whenever no
// wait sits between producer and consumer. Single-block loops are unrolled
// once so loop-carried hazards — including delayed writebacks crossing the
// back edge — surface with the branch-redirect penalty applied.
#pragma once

#include <vector>

#include "sass/diag.hpp"
#include "sass/latency.hpp"
#include "sass/program.hpp"

namespace tc::check {

/// Latency inputs for the analysis. The defaults are the shared latency
/// table (sass/latency.hpp) — the same one the timed simulator executes —
/// so a default-constructed model IS the simulator's model. Tests substitute
/// small deterministic tables.
struct LatencyModel {
  sass::LatencyFn fixed = &sass::fixed_latency;  // cycles until dst+off is readable
  int branch_redirect = sass::kBranchRedirectCycles;  // min issue gap across a taken branch
  int predicate_latency = sass::kPredicateLatency;  // ISETP issue -> predicate visibility
};

/// Runs the detector and returns structured findings, program order,
/// errors and warnings interleaved. Empty = provably clean schedule (within
/// the segment-local scope documented above).
std::vector<sass::Diag> find_hazards(const sass::Program& prog, const LatencyModel& lat = {});

}  // namespace tc::check
