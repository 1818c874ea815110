// Profiling entry points over the steady-state HGEMM surrogate.
//
// PerfEstimator (hgemm.hpp) runs a small surrogate kernel — `ctas_per_sm`
// resident CTAs, a short main loop, the SM's fair bandwidth share — to
// measure cycles per iteration. The functions here run the *same* surrogate
// and read its counters, so they describe exactly the workload whose timing
// the estimator reports:
//
//  * profile_hgemm:        one run sized after a target GEMM shape with a
//                          tc::prof::Profiler attached (pipe utilization,
//                          stall table, optional trace).
//  * observe_pipe_cycles:  differential two-run measurement of per-iteration
//                          tensor and memory-IO cycles — the *observed*
//                          counterpart of the analytic Table VI columns in
//                          model/blocking.hpp.
#pragma once

#include "common/matrix.hpp"
#include "core/config.hpp"
#include "device/spec.hpp"
#include "prof/profiler.hpp"
#include "sim/timed_sm.hpp"

namespace tc::core {

/// One steady-state surrogate run. This is the measurement harness inside
/// PerfEstimator::measure_steady, exposed so profiled and unprofiled runs
/// share one definition of the workload.
struct SurrogateOptions {
  int iterations = 6;            // main-loop iterations (surrogate k = iterations * bk)
  double l2_hit_rate = 0.0;      // forced LDG L2 hit fraction (model-provided)
  double dram_efficiency = 1.0;  // DRAM row-locality derating of the bandwidth share
  prof::Profiler* profiler = nullptr;  // optional; null = plain timing run
};

/// CTAs of `cfg`'s kernel that fit on one SM (the occupancy probe
/// PerfEstimator uses to size the surrogate grid).
[[nodiscard]] int surrogate_ctas_per_sm(const device::DeviceSpec& spec, const HgemmConfig& cfg);

/// Runs `ctas_per_sm` resident CTAs of the surrogate on one simulated SM
/// with its fair bandwidth share and returns the run's counters.
prof::CounterSet run_steady_surrogate(const device::DeviceSpec& spec, const HgemmConfig& cfg,
                                      int ctas_per_sm, const SurrogateOptions& opt);

/// Result of profile_hgemm: the run's counters and the profiler's
/// attribution; `profiler.print_report(os, counters)` renders both.
struct HgemmProfile {
  prof::Profiler profiler;
  prof::CounterSet counters;
  double l2_hit_rate = 0.0;
  double dram_efficiency = 1.0;
  int iterations = 0;
  int ctas_per_sm = 0;
};

/// Profiles the steady-state portion of `cfg` on `shape`: the surrogate main
/// loop runs min(k/bk, 48) iterations under the L2 hit rate and DRAM
/// efficiency the performance model assigns to this shape (the same inputs
/// PerfEstimator::estimate uses). Attach `trace` to also capture a timeline.
[[nodiscard]] HgemmProfile profile_hgemm(const device::DeviceSpec& spec, const HgemmConfig& cfg,
                                         const GemmShape& shape,
                                         prof::TraceWriter* trace = nullptr);

/// Counter-observed pipe cycles per main-loop iteration, measured as the
/// slope between two surrogate runs of different iteration counts (so
/// prologue/epilogue cost cancels), with LDGs served from L2 as the paper's
/// Table VI assumes.
struct ObservedPipeCycles {
  /// Tensor-pipe cycles per CTA-iteration per partition (Eq. (3) analogue).
  double tensor_cycles = 0.0;
  /// MIO-pipe + L2-return-port cycles per CTA-iteration (Eqs. (4)+(5)
  /// analogue: the surrogate's LDG cost is mostly port serialization).
  double memio_cycles = 0.0;
  /// Utilizations over the longer run (includes prologue/epilogue).
  double tensor_util = 0.0;
  /// MIO pipe + return port busy fraction; the "memory-IO pressure" the
  /// paper's blocking analysis ranks configurations by.
  double mio_util = 0.0;
  int ctas_per_sm = 0;
};

[[nodiscard]] ObservedPipeCycles observe_pipe_cycles(const device::DeviceSpec& spec,
                                                     const HgemmConfig& cfg);

}  // namespace tc::core
