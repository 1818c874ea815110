// The profiler object and the zero-overhead-when-off hook the timing engine
// calls into.
//
// Design: tc::sim::TimedSm carries a `ProfileHook` — a nullable pointer
// wrapper whose inline methods reduce to one predictable branch when no
// profiler is attached, so untraced runs keep their performance. When a
// Profiler is attached it accumulates the CounterSet (counters.hpp), per-warp
// and per-PC stall attribution (the Nsight-style warp-state sampling
// equivalent), and optionally streams timeline events into a TraceWriter.
//
// A Profiler instance covers ONE timed run: begin_run() resets all state and
// snapshots the program's disassembly (so reports never dangle on the
// Program), end_run() seals the cycle count. Differential measurements
// (cycles per main-loop iteration) use two Profilers and subtract counters.
#pragma once

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
  void end_run(std::uint64_t cycles);

  void on_issue(int partition, int warp, int pc, const sass::Instruction& inst,
                std::uint64_t now, int occupancy, int stall);
  /// `cycles` warp-cycles spent blocked at `pc` for `reason`.
  void on_warp_stall(int warp, int pc, StallReason reason, std::uint64_t cycles);
  /// `cycles` scheduler cycles of partition `p`; `dominant` attributes idle
  /// cycles. The engine charges a skipped idle stretch in one call.
  void on_sched_cycle(int partition, bool issued, StallReason dominant, std::uint64_t cycles);

  /// A memory instruction issued into the MIO queue (footprint accounting).
  void on_mem_issue(bool is_global, bool is_store, int active_lanes, int width_bytes);
  /// The MIO unit started serving an operation.
  void on_mio_service(bool is_global, bool is_store, int width_bits, std::uint64_t now,
                      std::uint64_t busy_cycles, double port_busy_cycles,
                      std::uint64_t bw_delay_cycles);
  void on_smem_classified(int beats, int phases);
  void on_global_classified(double l1_bytes, double l2_bytes, double dram_bytes);
  void on_mshr_occupancy(int outstanding);
  void on_mio_queue_depth(int depth);

  // --- results ------------------------------------------------------------
  [[nodiscard]] const CounterSet& counters() const { return counters_; }
  [[nodiscard]] int partitions() const { return partitions_; }
  [[nodiscard]] const std::string& program_name() const { return program_name_; }

  /// The `n` PCs with the most blocked warp-cycles, most-blocked first.
  [[nodiscard]] std::vector<HotPc> hot_pcs(int n) const;

  /// Pipe-utilization, memory and scheduler tables plus the top-`top_n`
  /// stall table.
  void print_report(std::ostream& os, int top_n = 10) const;

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

  CounterSet counters_;
  std::vector<PcCounters> pc_counters_;
  std::vector<WarpCounters> warp_counters_;
  std::vector<std::string> inst_text_;
  std::string program_name_;
  int partitions_ = 0;
  TraceWriter* trace_ = nullptr;
};

/// Nullable profiler handle embedded in the timing engine. Every method is an
/// inlined null check, so an unattached hook costs one well-predicted branch
/// per call site and profiling-off runs are indistinguishable from the
/// pre-profiler simulator.
class ProfileHook {
 public:
  ProfileHook() = default;
  explicit ProfileHook(Profiler* p) : p_(p) {}

  [[nodiscard]] bool on() const { return p_ != nullptr; }
  [[nodiscard]] Profiler* get() const { return p_; }

 private:
  Profiler* p_ = nullptr;
};

}  // namespace tc::prof
