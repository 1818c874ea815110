// The profiler the timing engine reports attribution to.
//
// Every timed run returns its prof::CounterSet (counters.hpp) whether or not
// a Profiler is attached. A Profiler adds what needs the engine's per-cycle
// warp-state pre-pass or a timeline: per-warp and per-PC stall attribution
// (the Nsight-style warp-state sampling equivalent), each scheduler's idle
// cycles by reason, and optionally timeline events streamed into a
// TraceWriter. It keeps no copy of a CounterSet count; its report takes the
// run's CounterSet.
//
// A Profiler instance covers ONE timed run: begin_run() resets all state and
// snapshots the program's disassembly, so reports never dangle on the
// Program.
#pragma once

#include <array>
#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "prof/counters.hpp"
#include "sass/program.hpp"

namespace tc::prof {

class TraceWriter;

/// One hot program counter in the stall report.
struct HotPc {
  int pc = 0;
  std::string text;             // disassembled instruction
  std::uint64_t issued = 0;     // times the instruction issued
  std::uint64_t stall_cycles = 0;  // warp-cycles spent blocked at this pc
  StallReason dominant = StallReason::kNoInstruction;
  std::uint64_t dominant_cycles = 0;
};

class Profiler {
 public:
  Profiler() = default;

  /// Attaches a timeline sink; must outlive the profiled run. Null detaches.
  void attach_trace(TraceWriter* trace) { trace_ = trace; }
  [[nodiscard]] TraceWriter* trace() const { return trace_; }

  // --- hooks called by the timing engine ---------------------------------
  void begin_run(const sass::Program& prog, int partitions, int num_warps);

  void on_issue(int partition, int warp, int pc, const sass::Instruction& inst,
                std::uint64_t now, int occupancy, int stall);
  /// `cycles` warp-cycles spent blocked at `pc` for `reason`.
  void on_warp_stall(int warp, int pc, StallReason reason, std::uint64_t cycles);
  /// `cycles` idle cycles of partition `p`'s scheduler, attributed to
  /// `dominant`. The engine charges a skipped idle stretch in one call.
  void on_sched_idle(int partition, StallReason dominant, std::uint64_t cycles);
  /// The MIO unit started serving an operation (timeline only).
  void on_mio_service(bool is_global, bool is_store, int width_bits, std::uint64_t now,
                      std::uint64_t busy_cycles);

  // --- results ------------------------------------------------------------
  [[nodiscard]] int partitions() const { return partitions_; }

  /// Idle cycles of partition `p`'s scheduler, split by reason; they sum to
  /// the run's CounterSet::sched[p].idle_cycles.
  [[nodiscard]] const std::array<std::uint64_t, kNumStallReasons>& idle_by_reason(int p) const {
    return idle_by_reason_[static_cast<std::size_t>(p)];
  }

  /// The `n` PCs with the most blocked warp-cycles, most-blocked first.
  [[nodiscard]] std::vector<HotPc> hot_pcs(int n) const;

  /// Pipe-utilization, memory and scheduler tables of `c`, the counters of
  /// the profiled run, plus the top-`top_n` stall table.
  void print_report(std::ostream& os, const CounterSet& c, int top_n = 10) const;

 private:
  struct PcCounters {
    std::uint64_t issued = 0;
    std::array<std::uint64_t, kNumStallReasons> stall_cycles{};
  };
  struct WarpCounters {
    std::uint64_t issued = 0;
    std::array<std::uint64_t, kNumStallReasons> stall_cycles{};
  };

  [[nodiscard]] int warp_track(int warp) const;

  std::vector<PcCounters> pc_counters_;
  std::vector<WarpCounters> warp_counters_;
  std::vector<std::array<std::uint64_t, kNumStallReasons>> idle_by_reason_;
  std::vector<std::string> inst_text_;
  std::string program_name_;
  int partitions_ = 0;
  TraceWriter* trace_ = nullptr;
};

}  // namespace tc::prof
