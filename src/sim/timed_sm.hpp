// Cycle-approximate timing model of one Turing SM.
//
// Structure (Turing whitepaper + the paper's Section IV/V findings):
//  * 4 processing blocks (partitions), each with its own warp scheduler
//    issuing at most one instruction per cycle, a tensor pipe (2 tensor
//    cores -> HMMA.1688 CPI 8), an FP32 pipe and an integer/ALU pipe.
//  * One SM-wide MIO unit serving LDS/STS/LDG/STG in order from a bounded
//    queue; shared-memory costs follow Table IV (x bank-conflict factor),
//    global costs follow Table III (64 B/cy L1 path, 32 B/cy L2 port).
//  * Global traffic is charged to a MemSystem: DRAM and L2 bandwidth
//    budgets (token buckets) and an L2 tag array. A standalone SM builds its
//    own, with the budget the caller chooses (full device for single-SM
//    microbenchmarks, a 1/num_SMs share for steady-state HGEMM runs under
//    full occupancy); the SMs of a TimedDevice share the device's one.
//  * Scheduling is hazard-accurate: fixed-latency results commit
//    `latency` cycles after issue; stall counts and scoreboard barriers are
//    the only protections, exactly as on silicon. Under-scheduled kernels
//    produce wrong results here while passing the functional engine — that
//    contrast is itself one of the paper's measurement tools.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "device/spec.hpp"
#include "mem/global_mem.hpp"
#include "mem/sector_cache.hpp"
#include "mem/token_bucket.hpp"
#include "prof/counters.hpp"
#include "sim/launch.hpp"

namespace tc::prof {
class Profiler;
}

namespace tc::sim {

class StateProbe;
struct MemSystem;

struct TimedConfig {
  device::DeviceSpec spec;

  /// Bandwidth budget visible to this simulation scope (bytes per cycle).
  /// Defaults (<0) resolve to the full device budget from `spec`.
  double dram_bytes_per_cycle = -1.0;
  double l2_bytes_per_cycle = -1.0;

  /// If >= 0, replace the L2 tag array by a deterministic hit fraction for
  /// L1-missing sectors. Used by the wave model, which computes inter-CTA
  /// reuse analytically (a single simulated SM cannot observe it).
  double forced_l2_hit_rate = -1.0;

  /// A rate >= 0 pins the L2 hit fraction; any other value (negative or NaN)
  /// leaves L2 hits emergent from a tag array.
  [[nodiscard]] bool l2_pinned() const { return forced_l2_hit_rate >= 0.0; }

  /// Skip the FP16 arithmetic of MMA instructions (pipe occupancy, latency
  /// and writeback scheduling are unchanged). Register values become
  /// meaningless, so this is only for pure timing measurements — kernels
  /// with no data-dependent control flow, which is all of them here.
  bool skip_mma_math = false;

  std::uint64_t max_cycles = 4'000'000'000ull;

  /// Optional profiler (see src/prof). The run's counters come back from
  /// run()/finish() either way; when set, the engine also attributes stall
  /// cycles per warp, per PC and per scheduler and (if a TraceWriter is
  /// attached) streams a timeline. Attaching one changes no cycle or count.
  prof::Profiler* profiler = nullptr;

  /// Optional divergence probe: when set, each warp's final committed
  /// register and predicate state is captured after the end-of-run flush,
  /// in the same format the functional executor produces (sim/probe.hpp).
  StateProbe* probe = nullptr;

  /// When set, this SM is one client of a full-device simulation: global
  /// traffic is charged to this shared memory system instead of one the SM
  /// builds from the budgets above (which are then unused).
  /// `forced_l2_hit_rate` and `sm_id` still apply.
  MemSystem* shared = nullptr;

  /// Identity of this SM inside a TimedDevice (address hashing / debugging).
  int sm_id = 0;
};

/// The memory system global traffic is charged to: one DRAM budget, one L2
/// bandwidth budget and, unless the L2 hit fraction is pinned, one L2 tag
/// array. A standalone TimedSm builds its own at begin(); a TimedDevice
/// shares one among its SMs, so bandwidth contention and inter-CTA L2 reuse
/// across SMs emerge from simulation.
struct MemSystem {
  /// The budgets of `cfg`, the full device's by default. The tag array is
  /// built only when `cfg` leaves L2 hits emergent: a pinned rate probes
  /// none, so none is zero-filled.
  explicit MemSystem(const TimedConfig& cfg)
      : dram_bw(cfg.dram_bytes_per_cycle > 0 ? cfg.dram_bytes_per_cycle
                                             : cfg.spec.dram_bytes_per_cycle()),
        l2_bw(cfg.l2_bytes_per_cycle > 0 ? cfg.l2_bytes_per_cycle
                                         : cfg.spec.l2_bytes_per_cycle()) {
    if (!cfg.l2_pinned()) l2.emplace(cfg.spec.l2_size_bytes, cfg.spec.l2_ways);
  }

  mem::TokenBucket dram_bw;
  mem::TokenBucket l2_bw;
  std::optional<mem::SectorCache> l2;
};

class TimedSm {
 public:
  TimedSm(TimedConfig cfg, mem::GlobalMemory& gmem);
  ~TimedSm();
  TimedSm(const TimedSm&) = delete;
  TimedSm& operator=(const TimedSm&) = delete;

  /// Runs the given resident CTAs of `launch` to completion and returns its
  /// counters. Functional side effects (global stores) are applied to the
  /// bound GlobalMemory. Idle stretches are skipped (see skip_to), with the
  /// result of stepping every cycle.
  prof::CounterSet run(const Launch& launch, std::span<const CtaCoord> ctas);

  /// Steppable interface, used by sim::TimedDevice to interleave several SMs
  /// cycle-by-cycle on shared memory-system state. `begin` fills up to
  /// `resident_ctas` CTA slots from `source`; each retired CTA's slot is
  /// refilled from `source` until it is drained (dynamic refill, like the
  /// GigaThread engine — not wave-by-wave). `step` advances exactly one
  /// cycle and returns false once the SM has drained; `finish` flushes
  /// writebacks and returns the counters. Stepping until done is the
  /// lockstep reference the event skip below is held to.
  void begin(const Launch& launch, CtaSource& source, int resident_ctas);
  bool step();
  [[nodiscard]] bool done() const;
  [[nodiscard]] std::uint64_t now() const;
  prof::CounterSet finish();

  /// Event skip. After a step in which nothing but the clock changed (no
  /// issue, memory service, scoreboard or MSHR release, barrier release or
  /// slot refill), the cycles up to idle_until() would repeat it; otherwise
  /// idle_until() == now(). skip_to(c), for c <= idle_until(), advances now()
  /// to c with exactly the effect of stepping through those cycles. Idle
  /// cycles touch no state shared with other SMs, so a driver may leave an
  /// SM behind until its idle_until() and catch it up then.
  [[nodiscard]] std::uint64_t idle_until() const;
  void skip_to(std::uint64_t cycle);

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

}  // namespace tc::sim
