// Cycle-approximate timing model of one Turing SM.
//
// Structure (Turing whitepaper + the paper's Section IV/V findings):
//  * 4 processing blocks (partitions), each with its own warp scheduler
//    issuing at most one instruction per cycle, a tensor pipe (2 tensor
//    cores -> HMMA.1688 CPI 8), an FP32 pipe and an integer/ALU pipe.
//  * One SM-wide MIO unit serving LDS/STS/LDG/STG in order from a bounded
//    queue; shared-memory costs follow Table IV (x bank-conflict factor),
//    global costs follow Table III (64 B/cy L1 path, 32 B/cy L2 port).
//  * DRAM and L2 bandwidth are token buckets; the caller chooses the budget
//    (full device for single-SM microbenchmarks, a 1/num_SMs share for
//    steady-state HGEMM runs under full occupancy).
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

/// CTA coordinates resident on the simulated SM.
struct CtaCoord {
  std::uint32_t x = 0;
  std::uint32_t y = 0;
  std::uint32_t z = 0;
};

/// Hands out CTAs to SMs as their resident slots free up — the GigaThread
/// engine of a full-device simulation. The SMs of one TimedDevice share one
/// source and call it from one host thread, in lockstep order.
class CtaSource {
 public:
  virtual ~CtaSource() = default;
  /// Next CTA to place in a freed slot, or nullopt when the grid is drained.
  virtual std::optional<CtaCoord> next() = 0;
  /// How many CTAs have been handed out so far.
  [[nodiscard]] virtual std::uint64_t issued() const = 0;
};

/// Dispenses a grid_x x grid_y grid in hardware launch order (x fastest).
class GridCtaSource final : public CtaSource {
 public:
  GridCtaSource(std::uint32_t grid_x, std::uint32_t grid_y, std::uint32_t grid_z = 1)
      : grid_x_(grid_x),
        plane_(static_cast<std::uint64_t>(grid_x) * grid_y),
        total_(static_cast<std::uint64_t>(grid_x) * grid_y * grid_z) {}

  std::optional<CtaCoord> next() override {
    if (issued_ >= total_) return std::nullopt;
    const std::uint64_t i = issued_++;
    const std::uint64_t p = i % plane_;
    return CtaCoord{static_cast<std::uint32_t>(p % grid_x_),
                    static_cast<std::uint32_t>(p / grid_x_),
                    static_cast<std::uint32_t>(i / plane_)};
  }

  [[nodiscard]] std::uint64_t issued() const override { return issued_; }

 private:
  std::uint32_t grid_x_;
  std::uint64_t plane_;
  std::uint64_t total_;
  std::uint64_t issued_ = 0;
};

/// Dispenses the grid in an arbitrary LaunchOrder (supertile, serpentine,
/// Hilbert) via a CtaOrderMap.
class OrderedCtaSource final : public CtaSource {
 public:
  OrderedCtaSource(LaunchOrder order, std::uint32_t grid_x, std::uint32_t grid_y,
                   int supertile_width, std::uint32_t grid_z = 1)
      : order_(order),
        supertile_width_(supertile_width),
        grid_z_(grid_z),
        map_(order, grid_x, grid_y, supertile_width) {}

  std::optional<CtaCoord> next() override {
    if (issued_ >= map_.total() * grid_z_) return std::nullopt;
    // z-outer: each z plane re-walks the same 2D curve from its start.
    if (issued_ > 0 && issued_ % map_.total() == 0) {
      map_ = CtaOrderMap(order_, map_.grid_x(), map_.grid_y(), supertile_width_);
    }
    const auto z = static_cast<std::uint32_t>(issued_ / map_.total());
    ++issued_;
    const auto [x, y] = map_.next();
    return CtaCoord{x, y, z};
  }

  [[nodiscard]] std::uint64_t issued() const override { return issued_; }

 private:
  LaunchOrder order_;
  int supertile_width_;
  std::uint64_t grid_z_;
  CtaOrderMap map_;
  std::uint64_t issued_ = 0;
};

/// Source matching `launch.launch_order`: the exact GridCtaSource for the
/// row-major-dispatched orders (kRowMajor, kSwizzled), an OrderedCtaSource
/// otherwise.
[[nodiscard]] std::unique_ptr<CtaSource> make_cta_source(const Launch& launch);

/// Device-level memory resources shared by every SM of a full-device
/// simulation: one DRAM budget, one L2 bandwidth budget and one L2 tag
/// array. A TimedSm bound to a SharedMemSystem charges its global traffic
/// here instead of to its private per-SM budgets, so bandwidth contention
/// and inter-CTA L2 reuse across SMs emerge from simulation.
struct SharedMemSystem {
  explicit SharedMemSystem(const device::DeviceSpec& spec)
      : dram_bw(spec.dram_bytes_per_cycle()),
        l2_bw(spec.l2_bytes_per_cycle()),
        l2(spec.l2_size_bytes, spec.l2_ways) {}

  mem::MultiClientBucket dram_bw;
  mem::MultiClientBucket l2_bw;
  mem::SectorCache l2;

  /// Device-wide L2 sector hit rate observed so far.
  [[nodiscard]] double l2_hit_rate() const { return l2.stats().hit_rate(); }
};

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
  /// traffic is charged to the shared DRAM/L2 budgets and the shared L2 tag
  /// array instead of the private per-SM budgets above (which are then
  /// unused). `forced_l2_hit_rate` and `sm_id` still apply.
  SharedMemSystem* shared = nullptr;

  /// Identity of this SM inside a TimedDevice (address hashing / debugging).
  int sm_id = 0;
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
