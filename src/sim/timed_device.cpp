#include "sim/timed_device.hpp"

#include <algorithm>
#include <limits>
#include <memory>

#include "common/error.hpp"

namespace tc::sim {

TimedDevice::TimedDevice(TimedDeviceConfig cfg, mem::GlobalMemory& gmem)
    : cfg_(cfg), gmem_(gmem) {
  TC_CHECK(cfg_.ctas_per_sm > 0, "ctas_per_sm must be positive");
  TC_CHECK(cfg_.threads == 1, "TimedDeviceConfig.threads must be 1 (got " +
                                  std::to_string(cfg_.threads) +
                                  "): the device simulates in lockstep on one host thread");
}

DeviceResult TimedDevice::run(const Launch& launch) {
  TC_CHECK(launch.program != nullptr, "launch without a program");
  const auto num_ctas = launch.num_ctas();
  TC_CHECK(num_ctas > 0, "empty grid");

  // Priming is depth-first: SM i takes the next ctas_per_sm CTAs from the
  // source, so co-residents are launch-order neighbours (row neighbours in
  // row-major order) — the residency the model's steady-state surrogate
  // (model/validate.cpp) and the documented xval tolerance bands are
  // calibrated against. Only as many SMs as the grid can actually feed
  // participate: a sub-wave grid (num_ctas < num_sms * ctas_per_sm)
  // concentrates onto ceil(num_ctas / ctas_per_sm) SMs instead of starving
  // trailing SMs of their first CTA mid-priming. (Real GigaThread would
  // spread a sub-wave grid breadth-first across all SMs, one CTA each; that
  // placement also changes which operand slab co-residents share, so
  // adopting it means re-calibrating the surrogate geometry and the xval
  // bands with it.)
  const auto per_sm = static_cast<std::uint64_t>(cfg_.ctas_per_sm);
  const int sms_used = static_cast<int>(std::min<std::uint64_t>(
      static_cast<std::uint64_t>(cfg_.spec.num_sms), (num_ctas + per_sm - 1) / per_sm));

  CtaSource source(launch);
  TimedConfig tc;
  tc.spec = cfg_.spec;
  tc.skip_mma_math = cfg_.skip_mma_math;
  tc.forced_l2_hit_rate = cfg_.forced_l2_hit_rate;
  MemSystem shared(tc);  // the full device's budgets and L2
  tc.shared = &shared;

  std::vector<std::unique_ptr<TimedSm>> sms;
  sms.reserve(static_cast<std::size_t>(sms_used));
  for (int i = 0; i < sms_used; ++i) {
    tc.sm_id = i;
    sms.push_back(std::make_unique<TimedSm>(tc, gmem_));
    sms.back()->begin(launch, source, cfg_.ctas_per_sm);
  }

  // Lockstep in simulated time: at cycle c the SMs step in rotating order
  // starting at SM c mod N, so cross-SM arbitration order is cycle-exact and
  // reproducible — the shared buckets serve same-cycle requests in call
  // order, and a fixed order would hand SM0 a standing bandwidth priority
  // (measured: ~9-13% per-SM finish spread on DRAM-bound kernels at an
  // exactly integral wave). Only SMs with an event at c step: an idle SM
  // touches no shared state, so it sits out until its idle_until() and then
  // catches its clock up with skip_to(), which leaves the order among the
  // SMs that do step unchanged. The clock then jumps to the next event.
  std::uint64_t cycle = 0;
  for (bool any = true; any;) {
    any = false;
    std::uint64_t next = std::numeric_limits<std::uint64_t>::max();
    for (int i = 0; i < sms_used; ++i) {
      TimedSm& sm = *sms[static_cast<std::size_t>((i + cycle) % sms_used)];
      if (sm.done()) continue;
      if (sm.idle_until() <= cycle) {
        sm.skip_to(cycle);
        if (!sm.step()) continue;
      }
      any = true;
      next = std::min(next, sm.idle_until());
    }
    cycle = next;
  }

  DeviceResult res;
  res.sms_used = sms_used;
  res.per_sm.reserve(sms.size());
  for (auto& sm : sms) {
    res.per_sm.push_back(sm->finish());
    res.total += res.per_sm.back();
  }
  res.device_cycles = res.total.cycles;
  res.l2_hit_rate = tc.l2_pinned() ? cfg_.forced_l2_hit_rate : shared.l2->stats().hit_rate();
  res.ctas_run = source.issued();
  return res;
}

}  // namespace tc::sim
