#include "driver/device.hpp"

namespace tc::driver {

Device::Device(device::DeviceSpec spec) : spec_(std::move(spec)) {}

sim::FunctionalStats Device::launch(const sim::Launch& launch) {
  sim::FunctionalExecutor exec(gmem_);
  return exec.run(launch);
}

prof::CounterSet Device::run_timed(const sim::Launch& launch,
                                   std::span<const sim::CtaCoord> ctas,
                                   const sim::TimedConfig& cfg) {
  sim::TimedSm sm(cfg, gmem_);
  return sm.run(launch, ctas);
}

sim::DeviceResult Device::run_timed_device(const sim::Launch& launch,
                                           const sim::TimedDeviceConfig& cfg) {
  sim::TimedDevice dev(cfg, gmem_);
  return dev.run(launch);
}

sim::TimedConfig Device::timing_whole_device() const {
  sim::TimedConfig cfg;
  cfg.spec = spec_;
  cfg.dram_bytes_per_cycle = spec_.dram_bytes_per_cycle();
  cfg.l2_bytes_per_cycle = spec_.l2_bytes_per_cycle();
  return cfg;
}

sim::TimedConfig Device::timing_sm_share() const {
  sim::TimedConfig cfg;
  cfg.spec = spec_;
  cfg.dram_bytes_per_cycle = spec_.dram_bytes_per_cycle_per_sm();
  cfg.l2_bytes_per_cycle = spec_.l2_bytes_per_cycle_per_sm();
  return cfg;
}

sim::TimedDeviceConfig Device::timed_full_device(int ctas_per_sm) const {
  sim::TimedDeviceConfig cfg;
  cfg.spec = spec_;
  cfg.ctas_per_sm = ctas_per_sm;
  return cfg;
}

}  // namespace tc::driver
