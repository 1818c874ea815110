// Cycle-level multi-SM device simulator.
//
// Runs one TimedSm per SM of the target device against one shared
// MemSystem (the device's DRAM and L2 bandwidth budgets and its L2 tag
// array), with CTAs handed out dynamically from one CtaSource, in the
// launch's order, as resident slots retire. The
// full-device effects the wave model (model::WavePerf) only *assumes* —
// bandwidth contention between SMs, wave quantization, uneven tail waves,
// inter-CTA L2 reuse — all emerge here from simulation, which is what makes
// this engine the validation oracle for the model (tests/test_device_xval).
//
// Determinism: the SMs run in lockstep on one host thread, one cycle at a
// time, so cross-SM arbitration (shared-bucket withdrawals, L2 tag probes,
// CTA hand-out) happens in one reproducible order and a launch has exactly
// one result. At cycle c the SMs step in rotating order from SM c mod N;
// an SM with nothing to do at c sits the cycle out and catches up later
// (TimedSm::skip_to), which no other SM can observe (see run()).
#pragma once

#include <cstdint>
#include <vector>

#include "device/spec.hpp"
#include "mem/global_mem.hpp"
#include "sim/launch.hpp"
#include "sim/timed_sm.hpp"

namespace tc::sim {

struct TimedDeviceConfig {
  device::DeviceSpec spec;

  /// Resident CTA slots per SM. Use device::occupancy() for the kernel's
  /// actual occupancy; the simulator does not re-derive it.
  int ctas_per_sm = 1;

  /// Must be 1: the device runs on one host thread. Any other value is
  /// rejected rather than silently ignored.
  int threads = 1;

  /// Forwarded to each TimedSm (see TimedConfig).
  bool skip_mma_math = false;
  double forced_l2_hit_rate = -1.0;
};

struct DeviceResult {
  /// Device kernel time: the cycle the last SM drained (max over SMs).
  std::uint64_t device_cycles = 0;
  /// Per-SM counters; `cycles` of an early-drained SM is its own finish
  /// time, so the spread between min and max is the tail-wave imbalance.
  std::vector<prof::CounterSet> per_sm;
  /// The fold of per_sm (CounterSet::operator+=): counts summed, high-water
  /// marks and `cycles` the max over SMs, so cycles == device_cycles.
  prof::CounterSet total;
  /// Emergent device-wide L2 sector hit rate (shared tag array).
  double l2_hit_rate = 0.0;
  /// CTAs dispensed (== grid size when the run completes).
  std::uint64_t ctas_run = 0;
  /// SMs that received at least one CTA.
  int sms_used = 0;
};

class TimedDevice {
 public:
  TimedDevice(TimedDeviceConfig cfg, mem::GlobalMemory& gmem);

  /// Simulates `launch` over the whole device to completion. Functional side
  /// effects (global stores) are applied to the bound GlobalMemory.
  DeviceResult run(const Launch& launch);

 private:
  TimedDeviceConfig cfg_;
  mem::GlobalMemory& gmem_;
};

}  // namespace tc::sim
