// Functional (timing-free) execution of a kernel launch.
//
// Runs every CTA of the grid to completion with immediate register
// writeback, so results are schedule-independent. This engine establishes
// *what* a kernel computes; the timing engine (timed_sm) establishes how
// long it takes and whether its stall/barrier schedule is actually correct.
// CTAs are independent (they communicate only through disjoint global
// stores here), so they execute in parallel on host threads.
#pragma once

#include <cstdint>

#include "mem/global_mem.hpp"
#include "sim/launch.hpp"

namespace tc::sim {

class StateProbe;

struct FunctionalStats {
  std::uint64_t instructions = 0;  // warp instructions across all CTAs
  std::uint64_t hmma_count = 0;
};

class FunctionalExecutor {
 public:
  /// `host_threads` 0 = use hardware concurrency.
  explicit FunctionalExecutor(mem::GlobalMemory& gmem, int host_threads = 0);

  /// Runs all CTAs of `launch` to completion; throws if any warp exceeds
  /// `max_warp_instructions` (runaway-loop guard). When CTAs fail, the error
  /// is that of the failed CTA with the lowest linear index and names its
  /// (x, y, z), whatever the host thread count.
  FunctionalStats run(const Launch& launch,
                      std::uint64_t max_warp_instructions = 200'000'000);

  /// Optional divergence probe: when set, each warp's final register and
  /// predicate state is captured as its CTA completes (see sim/probe.hpp).
  void set_probe(StateProbe* probe) { probe_ = probe; }

 private:
  mem::GlobalMemory& gmem_;
  int host_threads_;
  StateProbe* probe_ = nullptr;
};

}  // namespace tc::sim
