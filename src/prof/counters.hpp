// Hardware-style counters of a timed run on the simulated SM (tc::prof).
//
// The counter taxonomy mirrors what Nsight Compute exposes on real Turing
// parts, restricted to what this simulator actually models: per-pipe
// issue/active cycles (tensor / FMA / ALU / MIO), memory transaction and byte
// counts per instruction class, shared-memory bank beats and phases, sector
// traffic per serving level (L1 / L2 / DRAM), bandwidth-debt stalls, MSHR and
// MIO-queue occupancy high-water marks, and per-scheduler issue/idle cycles.
// The paper argues entirely in these units (CPI x instruction mix = pipe
// cycles); every timed run returns them, which turns that argument from an
// analytic derivation into an observation of the run.
#pragma once

#include <algorithm>
#include <array>
#include <cstdint>
#include <vector>

namespace tc::prof {

/// Pipe indices; values mirror sass::PipeClass so the timing engine can index
/// with static_cast (checked by a static_assert in profiler.cpp).
inline constexpr int kPipeTensor = 0;
inline constexpr int kPipeFma = 1;
inline constexpr int kPipeAlu = 2;
inline constexpr int kPipeMio = 3;
inline constexpr int kPipeControl = 4;
inline constexpr int kPipeSpecial = 5;
inline constexpr int kNumPipes = 6;

[[nodiscard]] const char* pipe_name(int pipe);

/// Why a resident warp could not issue in a given scheduler cycle — the
/// simulator-side equivalent of Nsight's warp-state sampling taxonomy.
enum class StallReason : std::uint8_t {
  kScoreboard = 0,    // waiting on a scoreboard barrier (memory dependency)
  kStallCount = 1,    // inside the previous instruction's stall-count window
  kPipeBusy = 2,      // target execution pipe still occupied
  kMioQueueFull = 3,  // MIO instruction queue at capacity
  kBarrier = 4,       // waiting at BAR.SYNC for the rest of the CTA
  kNotSelected = 5,   // eligible, but the scheduler picked another warp
  kNoInstruction = 6, // scheduler had no live warp to consider
};
inline constexpr int kNumStallReasons = 7;

[[nodiscard]] const char* stall_reason_name(StallReason r);

/// Per-warp-scheduler (per processing block) issue statistics.
struct SchedCounters {
  std::uint64_t issue_cycles = 0;  // cycles with an instruction issued
  std::uint64_t idle_cycles = 0;   // cycles without
};

/// The full counter set of one timed run. sim::TimedSm fills it whether or
/// not a Profiler is attached; sim::TimedDevice keeps one per SM and their
/// fold (operator+=) for the device.
struct CounterSet {
  /// Cycles the run took; for a device fold, the device time.
  std::uint64_t cycles = 0;
  std::uint64_t instructions = 0;

  /// Instructions issued into each pipe class.
  std::array<std::uint64_t, kNumPipes> pipe_issue{};
  /// Pipe-occupancy cycles. Tensor/FMA/ALU are summed over the partitions
  /// (utilization denominator: cycles x partitions), and special-register
  /// reads occupy the ALU; MIO is SM-wide (denominator: cycles).
  std::uint64_t tensor_busy = 0;
  std::uint64_t fma_busy = 0;
  std::uint64_t alu_busy = 0;
  std::uint64_t mio_busy = 0;
  /// Cycles the L2-to-SM return port was streaming data (SM-wide).
  double l2_port_busy_cycles = 0.0;
  /// Completion-delay cycles charged by the DRAM/L2 token buckets.
  std::uint64_t mio_bw_stall = 0;

  // --- memory instruction mix -------------------------------------------
  std::uint64_t ldg_count = 0, stg_count = 0, lds_count = 0, sts_count = 0;
  /// Bytes requested by active lanes (the lane footprint, pre-coalescing).
  std::uint64_t ldg_bytes = 0, stg_bytes = 0, lds_bytes = 0, sts_bytes = 0;

  /// Shared-memory bank beats and conflict-free phases; the beats beyond
  /// the phases are Nsight's "shared memory bank conflict replays".
  std::uint64_t smem_beats = 0;
  std::uint64_t smem_phases = 0;

  /// 32-byte sectors served by each level of the global-memory hierarchy.
  std::uint64_t l1_sectors = 0, l2_sectors = 0, dram_sectors = 0;
  double l1_bytes = 0.0, l2_bytes = 0.0, dram_bytes = 0.0;

  /// Occupancy high-water marks.
  int mshr_highwater = 0;
  int mio_queue_highwater = 0;

  /// One entry per processing block (warp scheduler).
  std::vector<SchedCounters> sched;

  /// Folds another run's counters in: counts add, high-water marks and
  /// `cycles` take the max, so folding every SM of a device leaves `cycles`
  /// at the device time.
  CounterSet& operator+=(const CounterSet& o);

  /// Busy cycles of a pipe (0 for the control and special pipes).
  [[nodiscard]] std::uint64_t busy_cycles(int pipe) const {
    switch (pipe) {
      case kPipeTensor: return tensor_busy;
      case kPipeFma: return fma_busy;
      case kPipeAlu: return alu_busy;
      case kPipeMio: return mio_busy;
      default: return 0;
    }
  }

  /// Busy fraction of a pipe. `partitions` is the per-SM processing-block
  /// count; SM-wide pipes (MIO) ignore it.
  [[nodiscard]] double utilization(int pipe, int partitions) const {
    if (cycles == 0) return 0.0;
    const double denom = (pipe == kPipeMio) ? static_cast<double>(cycles)
                                            : static_cast<double>(cycles) * partitions;
    return static_cast<double>(busy_cycles(pipe)) / denom;
  }

  [[nodiscard]] double l2_port_utilization() const {
    return cycles == 0 ? 0.0 : l2_port_busy_cycles / static_cast<double>(cycles);
  }

  /// Beats per phase; above 1 means bank conflicts.
  [[nodiscard]] double smem_conflict_factor() const {
    return smem_phases == 0 ? 1.0
                            : static_cast<double>(smem_beats) / static_cast<double>(smem_phases);
  }
};

inline CounterSet& CounterSet::operator+=(const CounterSet& o) {
  cycles = std::max(cycles, o.cycles);
  instructions += o.instructions;
  for (int p = 0; p < kNumPipes; ++p) pipe_issue[p] += o.pipe_issue[p];
  tensor_busy += o.tensor_busy;
  fma_busy += o.fma_busy;
  alu_busy += o.alu_busy;
  mio_busy += o.mio_busy;
  l2_port_busy_cycles += o.l2_port_busy_cycles;
  mio_bw_stall += o.mio_bw_stall;
  ldg_count += o.ldg_count;
  stg_count += o.stg_count;
  lds_count += o.lds_count;
  sts_count += o.sts_count;
  ldg_bytes += o.ldg_bytes;
  stg_bytes += o.stg_bytes;
  lds_bytes += o.lds_bytes;
  sts_bytes += o.sts_bytes;
  smem_beats += o.smem_beats;
  smem_phases += o.smem_phases;
  l1_sectors += o.l1_sectors;
  l2_sectors += o.l2_sectors;
  dram_sectors += o.dram_sectors;
  l1_bytes += o.l1_bytes;
  l2_bytes += o.l2_bytes;
  dram_bytes += o.dram_bytes;
  mshr_highwater = std::max(mshr_highwater, o.mshr_highwater);
  mio_queue_highwater = std::max(mio_queue_highwater, o.mio_queue_highwater);
  if (sched.size() < o.sched.size()) sched.resize(o.sched.size());
  for (std::size_t p = 0; p < o.sched.size(); ++p) {
    sched[p].issue_cycles += o.sched[p].issue_cycles;
    sched[p].idle_cycles += o.sched[p].idle_cycles;
  }
  return *this;
}

}  // namespace tc::prof
