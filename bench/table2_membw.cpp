// Reproduces paper Table II: DRAM and L2 sustained bandwidth of RTX2070/T4.
//
// Methodology (Section V-A): thread blocks each stream 512 KB with
// LDG.128.CG (L1 bypassed). For DRAM every CTA reads a distinct region; for
// L2 every CTA re-reads the same region. The simulator runs one SM under its
// fair bandwidth share; device bandwidth = per-SM bytes/cycle x SMs x clock.
// Note: the device spec's sustained-bandwidth parameters are calibrated to
// the paper's measured values (see DESIGN.md), so this bench demonstrates
// that the measurement methodology recovers the calibration inputs.
#include <iostream>

#include "common/table.hpp"
#include "driver/device.hpp"
#include "kernels/micro.hpp"

using namespace tc;

namespace {

struct BwResult {
  double dram_gbps;
  double l2_gbps;
};

BwResult measure(const device::DeviceSpec& spec) {
  BwResult out{};

  // --- DRAM: distinct 512 KB regions per CTA ---
  {
    driver::Device dev(spec);
    // One pass over 2 MB per CTA: large enough that nothing is re-read from
    // L2 and the cold ramp is amortized.
    const std::uint32_t per_cta = 2 * 1024 * 1024;
    auto data = dev.alloc<std::uint8_t>(4 * per_cta);
    auto clocks = dev.alloc<std::uint32_t>(64);
    const auto prog = kernels::stream_load_kernel(per_cta, /*distinct_per_cta=*/true,
                                                  /*passes=*/1);
    sim::Launch launch;
    launch.program = &prog;
    launch.grid_x = 2;
    launch.params = {clocks.addr, data.addr};
    const sim::CtaCoord ctas[2] = {{0, 0}, {1, 0}};
    const auto stats = dev.run_timed(launch, std::span(ctas, 2), dev.timing_sm_share());
    const double bytes_per_cycle = stats.dram_bytes / static_cast<double>(stats.cycles);
    out.dram_gbps = bytes_per_cycle * spec.num_sms * spec.sm_clock_ghz;
  }

  // --- L2: all CTAs share one 512 KB region; steady state is L2-resident ---
  {
    driver::Device dev(spec);
    const std::uint32_t per_cta = 512 * 1024;
    auto data = dev.alloc<std::uint8_t>(per_cta);
    auto clocks = dev.alloc<std::uint32_t>(64);
    const auto prog = kernels::stream_load_kernel(per_cta, /*distinct_per_cta=*/false,
                                                  /*passes=*/16);
    sim::Launch launch;
    launch.program = &prog;
    launch.grid_x = 2;
    launch.params = {clocks.addr, data.addr};
    const sim::CtaCoord ctas[2] = {{0, 0}, {1, 0}};
    const auto stats = dev.run_timed(launch, std::span(ctas, 2), dev.timing_sm_share());
    const double bytes_per_cycle =
        (stats.l2_bytes + stats.dram_bytes) / static_cast<double>(stats.cycles);
    out.l2_gbps = bytes_per_cycle * spec.num_sms * spec.sm_clock_ghz;
  }
  return out;
}

}  // namespace

int main() {
  std::cout << "Table II: measured DRAM and L2 bandwidth (GB/s)\n";
  std::cout << "(paper: RTX2070 448 theo / 380 DRAM / 750 L2; T4 320 / 238 / 910)\n\n";

  const auto spec2070 = device::rtx2070();
  const auto spect4 = device::t4();
  const auto r2070 = measure(spec2070);
  const auto rt4 = measure(spect4);

  TablePrinter t({"", "RTX2070", "T4"});
  t.add_row({"DRAM theoretical", fmt_fixed(spec2070.dram_bw_theoretical_gbps, 0) + "GB/s",
             fmt_fixed(spect4.dram_bw_theoretical_gbps, 0) + "GB/s"});
  t.add_row({"DRAM measured", fmt_fixed(r2070.dram_gbps, 0) + "GB/s",
             fmt_fixed(rt4.dram_gbps, 0) + "GB/s"});
  t.add_row({"L2 measured", fmt_fixed(r2070.l2_gbps, 0) + "GB/s",
             fmt_fixed(rt4.l2_gbps, 0) + "GB/s"});
  t.add_row({"Tensor Core throughput", fmt_fixed(spec2070.tensor_peak_flops() / 1e12, 1) + " TFLOPS",
             fmt_fixed(spect4.tensor_peak_flops() / 1e12, 1) + " TFLOPS"});
  t.print(std::cout);
  return 0;
}
