// Driver API tests: allocation, transfers, launches, event timing, device
// specs and timing-config presets.
#include <gtest/gtest.h>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "driver/device.hpp"
#include "sass/builder.hpp"

namespace tc::driver {
namespace {

TEST(Device, UploadDownloadRoundTrip) {
  Device dev(device::rtx2070());
  Rng rng(1);
  std::vector<float> src(1000);
  for (auto& f : src) f = rng.next_float(-10, 10);
  auto ptr = dev.alloc<float>(src.size());
  dev.upload(ptr, std::span<const float>(src));
  std::vector<float> dst(src.size());
  dev.download(std::span<float>(dst), ptr);
  EXPECT_EQ(src, dst);
}

TEST(Device, TypedPointerArithmetic) {
  Device dev(device::rtx2070());
  auto ptr = dev.alloc<half>(100);
  EXPECT_EQ(ptr.at(10), ptr.addr + 20);  // 2 bytes per element
  EXPECT_FALSE(ptr.is_null());
  EXPECT_TRUE(DevPtr<half>{}.is_null());
}

TEST(Device, ResetReleasesArena) {
  Device dev(device::rtx2070());
  const auto before = dev.alloc<std::uint8_t>(1 << 20).addr;
  dev.reset();
  const auto after = dev.alloc<std::uint8_t>(1 << 20).addr;
  EXPECT_EQ(before, after);
}

TEST(Device, LaunchValidatesParams) {
  Device dev(device::rtx2070());
  sass::KernelBuilder b("needs_params");
  b.mov_param(sass::Reg{0}, 3);
  b.exit();
  const auto prog = b.finalize();
  sim::Launch launch;
  launch.program = &prog;
  launch.params = {1, 2};  // only 2 words; kernel reads word 3
  EXPECT_THROW(dev.launch(launch), tc::Error);
}

TEST(Device, TimingPresetsScaleBandwidth) {
  Device dev(device::rtx2070());
  const auto whole = dev.timing_whole_device();
  const auto share = dev.timing_sm_share();
  EXPECT_NEAR(whole.dram_bytes_per_cycle / share.dram_bytes_per_cycle, 36.0, 1e-9);
  EXPECT_NEAR(whole.l2_bytes_per_cycle / share.l2_bytes_per_cycle, 36.0, 1e-9);
}

TEST(Spec, PeaksMatchPaper) {
  // Paper Table II: 59.7 TFLOPS (RTX2070) and 65 TFLOPS (T4).
  EXPECT_NEAR(device::rtx2070().tensor_peak_flops() / 1e12, 59.7, 0.2);
  EXPECT_NEAR(device::t4().tensor_peak_flops() / 1e12, 65.0, 0.3);
  // FP16 units are 4x slower than tensor cores.
  EXPECT_NEAR(device::rtx2070().fp16_peak_flops() * 4, device::rtx2070().tensor_peak_flops(),
              1.0);
}

TEST(Spec, BandwidthConversions) {
  const auto spec = device::rtx2070();
  EXPECT_NEAR(spec.dram_bytes_per_cycle(), 380.0 / 1.62, 0.01);
  EXPECT_NEAR(spec.dram_bytes_per_cycle_per_sm() * 36, spec.dram_bytes_per_cycle(), 1e-9);
  EXPECT_NEAR(spec.cycles_to_seconds(1.62e9), 1.0, 1e-12);
}

TEST(Spec, LookupByName) {
  EXPECT_EQ(device::spec_by_name("rtx2070").name, "RTX2070");
  EXPECT_EQ(device::spec_by_name("T4").name, "T4");
  EXPECT_THROW(device::spec_by_name("a100"), tc::Error);
}

}  // namespace
}  // namespace tc::driver
