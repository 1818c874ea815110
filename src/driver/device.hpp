// Host-side driver API over the simulated device — the moral equivalent of
// the CUDA driver API calls the paper's harness uses (cuMemAlloc, cuMemcpy,
// cuLaunchKernel, cuEvent*).
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "device/spec.hpp"
#include "mem/global_mem.hpp"
#include "sass/program.hpp"
#include "sim/functional.hpp"
#include "sim/launch.hpp"
#include "sim/timed_device.hpp"
#include "sim/timed_sm.hpp"

namespace tc::driver {

/// Typed device pointer (an offset into the simulated global memory).
template <typename T>
struct DevPtr {
  std::uint32_t addr = 0;
  [[nodiscard]] bool is_null() const { return addr == 0; }
  /// Byte address of element i.
  [[nodiscard]] std::uint32_t at(std::uint64_t i) const {
    return addr + static_cast<std::uint32_t>(i * sizeof(T));
  }
};

/// One simulated GPU: global memory + spec + launch entry points.
class Device {
 public:
  explicit Device(device::DeviceSpec spec);

  [[nodiscard]] const device::DeviceSpec& spec() const { return spec_; }
  [[nodiscard]] mem::GlobalMemory& gmem() { return gmem_; }

  /// cudaMalloc analogue.
  template <typename T>
  DevPtr<T> alloc(std::uint64_t count) {
    return {gmem_.alloc(count * sizeof(T))};
  }

  /// cudaMemcpy H2D / D2H analogues.
  template <typename T>
  void upload(DevPtr<T> dst, std::span<const T> src) {
    gmem_.write(dst.addr, std::span(reinterpret_cast<const std::uint8_t*>(src.data()),
                                    src.size_bytes()));
  }
  template <typename T>
  void download(std::span<T> dst, DevPtr<T> src) {
    gmem_.read(src.addr,
               std::span(reinterpret_cast<std::uint8_t*>(dst.data()), dst.size_bytes()));
  }

  /// Releases all device allocations.
  void reset() { gmem_.reset(); }

  /// Runs the whole grid functionally (correctness semantics, no timing).
  sim::FunctionalStats launch(const sim::Launch& launch);

  /// Runs `ctas` resident on one simulated SM with cycle-level timing.
  /// `cfg_overrides` starts from a default TimedConfig for this device.
  prof::CounterSet run_timed(const sim::Launch& launch, std::span<const sim::CtaCoord> ctas,
                             const sim::TimedConfig& cfg);

  /// Runs the whole grid on the cycle-level multi-SM simulator (shared
  /// L2/DRAM, dynamic CTA dispatch — see sim/timed_device.hpp). Functional
  /// side effects land in this device's global memory, so results can be
  /// downloaded and checked like after launch().
  sim::DeviceResult run_timed_device(const sim::Launch& launch,
                                     const sim::TimedDeviceConfig& cfg);

  /// A TimedConfig preset: full-device bandwidth budgets (single-kernel
  /// microbenchmark scope).
  [[nodiscard]] sim::TimedConfig timing_whole_device() const;
  /// A TimedConfig preset: one SM's fair share of bandwidth (steady-state
  /// full-occupancy scope).
  [[nodiscard]] sim::TimedConfig timing_sm_share() const;
  /// A TimedDeviceConfig preset for run_timed_device: every SM of this
  /// device, shared memory system, given occupancy.
  [[nodiscard]] sim::TimedDeviceConfig timed_full_device(int ctas_per_sm) const;

 private:
  device::DeviceSpec spec_;
  mem::GlobalMemory gmem_;
};

}  // namespace tc::driver
