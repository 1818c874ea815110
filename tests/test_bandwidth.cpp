// Regression guards for the Table II methodology and for schedule hygiene:
// the streaming microbenchmarks must recover the device's sustained
// bandwidths, and every generated kernel must pass the scheduling lint.
#include <gtest/gtest.h>

#include "core/kernel_gen.hpp"
#include "driver/device.hpp"
#include "kernels/micro.hpp"
#include "sass/validator.hpp"

namespace tc {
namespace {

double measured_dram_gbps(const device::DeviceSpec& spec) {
  driver::Device dev(spec);
  const std::uint32_t per_cta = 1024 * 1024;
  auto data = dev.alloc<std::uint8_t>(4 * per_cta);
  auto clocks = dev.alloc<std::uint32_t>(64);
  const auto prog = kernels::stream_load_kernel(per_cta, /*distinct_per_cta=*/true, 1);
  sim::Launch launch;
  launch.program = &prog;
  launch.grid_x = 2;
  launch.params = {clocks.addr, data.addr};
  const sim::CtaCoord ctas[2] = {{0, 0}, {1, 0}};
  const auto stats = dev.run_timed(launch, std::span(ctas, 2), dev.timing_sm_share());
  return stats.dram_bytes / static_cast<double>(stats.cycles) * spec.num_sms *
         spec.sm_clock_ghz;
}

TEST(Bandwidth, StreamingRecoversSustainedDram) {
  // Paper Table II measured values are the calibration; the streaming
  // methodology must reproduce them within ~10%.
  EXPECT_NEAR(measured_dram_gbps(device::rtx2070()), 380.0, 38.0);
  EXPECT_NEAR(measured_dram_gbps(device::t4()), 238.0, 24.0);
}

TEST(Lint, AllGeneratedKernelsAreClean) {
  const GemmShape shape{256, 256, 128};
  const GemmShape shape_cb{128, 128, 256};
  const sass::Program kernels_to_check[] = {
      core::hgemm_kernel(core::HgemmConfig::optimized(), shape),
      core::hgemm_kernel(core::HgemmConfig::cublas_like(), shape_cb),
      core::hgemm_kernel(core::HgemmConfig::optimized(), shape, core::Epilogue{2.0f, 1.0f}),
      [] {
        auto cfg = core::HgemmConfig::optimized();
        cfg.prefetch = false;
        return core::hgemm_kernel(cfg, {256, 256, 128});
      }(),
      core::wmma_naive_kernel({64, 128, 64}),
  };
  for (const auto& prog : kernels_to_check) {
    const auto warnings = sass::lint(prog);
    EXPECT_TRUE(warnings.empty()) << prog.name << ": " << warnings.front();
  }
}

TEST(Lint, MicrobenchKernelsOnlyWarnDeliberately) {
  // CPI loop kernels intentionally leave loads unsynchronized; the lint must
  // flag them (that is the tool working), but they must still validate.
  const auto prog = kernels::ldg_cpi_kernel(sass::MemWidth::k128, sass::CacheOp::kCg, 32, 4,
                                            64 * 1024);
  EXPECT_FALSE(sass::lint(prog).empty());
}

}  // namespace
}  // namespace tc
