// Launch-order machinery and reuse-distance L2 cross-validation (l2_xval).
//
// Three layers, cheapest first:
//
//  1. Property: the model-side trace generator (model::launch_trace) and the
//     simulator-side dispenser (sim::CtaSource) are independent
//     implementations of every LaunchOrder; they must emit the *identical*
//     permutation of the grid, and that sequence must be a bijection, for
//     arbitrary grids including degenerate 1-row/1-col and non-pow2 sizes.
//  2. Dispatch: CtaSource stops once the grid is drained, walks every z
//     plane in the launch's order, and dispatches kSwizzled exactly as
//     kRowMajor (its analytic patch is a model assumption, not a schedule
//     change).
//  3. Band: the stack-distance sampler's predicted L2 hit rate must land
//     within 15 % of the TimedDevice's *emergent* sector-cache rate
//     (pin_l2_hit_rate = false) for row-major and supertile orders on three
//     whole-wave shapes per device spec. This is the end-to-end check that
//     the trace replay models the same locality the device simulates.
//
// docs/l2_model.md documents the sampler and the band; scripts/check.sh and
// CI run this file under the l2_xval ctest label.
#include <gtest/gtest.h>

#include <cmath>
#include <set>
#include <vector>

#include "core/config.hpp"
#include "core/hgemm.hpp"
#include "core/kernel_gen.hpp"
#include "core/profile.hpp"
#include "device/spec.hpp"
#include "model/stack_distance.hpp"
#include "model/validate.hpp"
#include "sim/cta_order.hpp"
#include "sim/timed_sm.hpp"

namespace tc {
namespace {

using model::LaunchOrder;

const LaunchOrder kAllOrders[] = {LaunchOrder::kRowMajor, LaunchOrder::kSwizzled,
                                  LaunchOrder::kSupertile, LaunchOrder::kSerpentine,
                                  LaunchOrder::kHilbert};

sim::Launch grid_launch(LaunchOrder order, std::uint32_t gx, std::uint32_t gy, int width,
                        std::uint32_t gz = 1) {
  sim::Launch launch;
  launch.launch_order = order;
  launch.grid_x = gx;
  launch.grid_y = gy;
  launch.grid_z = gz;
  launch.supertile_width = width;
  return launch;
}

std::vector<std::pair<std::uint32_t, std::uint32_t>> drain_source(LaunchOrder order,
                                                                  std::uint32_t gx,
                                                                  std::uint32_t gy, int width) {
  sim::CtaSource src(grid_launch(order, gx, gy, width));
  std::vector<std::pair<std::uint32_t, std::uint32_t>> seq;
  while (const auto c = src.next()) seq.emplace_back(c->x, c->y);
  return seq;
}

TEST(LaunchOrderProperty, TraceAndSourceEmitTheSameBijection) {
  const std::pair<std::uint32_t, std::uint32_t> grids[] = {
      {1, 1}, {1, 7}, {7, 1}, {5, 3}, {16, 16}, {13, 29}, {47, 2}, {3, 32}};
  const int widths[] = {1, 3, 8, 64};
  for (const auto [gx, gy] : grids) {
    for (const LaunchOrder order : kAllOrders) {
      for (const int w : widths) {
        const auto trace = model::launch_trace(order, gx, gy, w);
        const auto dispatched = drain_source(order, gx, gy, w);
        ASSERT_EQ(trace.size(), static_cast<std::size_t>(gx) * gy)
            << sim::launch_order_name(order) << " " << gx << "x" << gy << " w" << w;
        ASSERT_EQ(trace, dispatched)
            << sim::launch_order_name(order) << " " << gx << "x" << gy << " w" << w;
        std::set<std::pair<std::uint32_t, std::uint32_t>> seen(trace.begin(), trace.end());
        EXPECT_EQ(seen.size(), trace.size())
            << sim::launch_order_name(order) << " repeats a CTA";
        for (const auto [x, y] : trace) {
          ASSERT_LT(x, gx);
          ASSERT_LT(y, gy);
        }
        if (order != LaunchOrder::kSupertile) break;  // width only matters here
      }
    }
  }
}

TEST(LaunchOrderProperty, SwizzledDispatchesExactlyRowMajor) {
  // kSwizzled's L2-friendly patch is an analytic model assumption; its
  // *dispatch* must stay the row-major baseline so recorded tuning results
  // and surrogate calibration are untouched by the launch-order machinery.
  const auto swizzled = model::launch_trace(LaunchOrder::kSwizzled, 13, 5, 8);
  const auto row_major = model::launch_trace(LaunchOrder::kRowMajor, 13, 5, 8);
  EXPECT_EQ(swizzled, row_major);
}

TEST(LaunchOrderProperty, NameRoundTrips) {
  for (const LaunchOrder order : kAllOrders) {
    EXPECT_EQ(sim::launch_order_from_name(sim::launch_order_name(order)), order);
  }
  EXPECT_THROW((void)sim::launch_order_from_name("zorder"), Error);
}

TEST(LaunchOrderDispatch, OrderedSourceDispensesMapSequenceThenStops) {
  sim::CtaSource src(grid_launch(LaunchOrder::kSupertile, 6, 4, 2));
  const auto expect = model::launch_trace(LaunchOrder::kSupertile, 6, 4, 2);
  for (const auto& [x, y] : expect) {
    const auto got = src.next();
    ASSERT_TRUE(got.has_value());
    EXPECT_EQ(got->x, x);
    EXPECT_EQ(got->y, y);
  }
  EXPECT_FALSE(src.next().has_value());
  EXPECT_EQ(src.issued(), expect.size());
}

TEST(LaunchOrderDispatch, GridSourceIsXFastestOnArbitraryGrids) {
  // timed_device reasons about co-residency from the documented hardware
  // launch order (x fastest) of kRowMajor and kSwizzled; pin the source to
  // the row-major trace on a non-power-of-two grid, in each z plane, so the
  // locality-preserving orders can't silently change the baseline dispatch.
  const auto plane = model::launch_trace(LaunchOrder::kRowMajor, 13, 7, 8);
  for (const LaunchOrder order : {LaunchOrder::kRowMajor, LaunchOrder::kSwizzled}) {
    sim::CtaSource src(grid_launch(order, 13, 7, 8, 3));
    for (std::uint32_t z = 0; z < 3; ++z) {
      for (const auto& [x, y] : plane) {
        const auto got = src.next();
        ASSERT_TRUE(got.has_value());
        ASSERT_EQ(got->x, x);
        ASSERT_EQ(got->y, y);
        ASSERT_EQ(got->z, z);
      }
    }
    EXPECT_FALSE(src.next().has_value());
    EXPECT_EQ(src.issued(), 3 * plane.size());
  }
}

// --- sampler vs. emergent L2: the 15 % band --------------------------------

constexpr double kSamplerBand = 0.15;

model::ValidateKernelInput band_input(const device::DeviceSpec& spec,
                                      const core::HgemmConfig& cfg) {
  model::ValidateKernelInput kin;
  kin.make_kernel = [cfg](const GemmShape& s) { return core::hgemm_kernel(cfg, s); };
  kin.name = cfg.name();
  kin.bm = cfg.bm;
  kin.bn = cfg.bn;
  kin.bk = cfg.bk;
  kin.ctas_per_sm = core::surrogate_ctas_per_sm(spec, cfg);
  kin.order = cfg.launch_order;
  kin.swizzle_max_grid_x = cfg.swizzle_max_grid_x;
  kin.supertile_width = cfg.supertile_width;
  kin.pin_l2_hit_rate = false;  // the emergent sector-cache rate is the point
  return kin;
}

void expect_sampler_band(const device::DeviceSpec& spec, LaunchOrder order, int width,
                         std::uint32_t grid_x, std::uint32_t grid_y) {
  core::HgemmConfig cfg = core::HgemmConfig::optimized();
  cfg.launch_order = order;
  cfg.supertile_width = width;
  const auto kin = band_input(spec, cfg);
  const GemmShape shape{static_cast<std::size_t>(grid_y) * cfg.bm,
                        static_cast<std::size_t>(grid_x) * cfg.bn, 256};
  const auto v = model::validate_wave(spec, kin, shape);
  ASSERT_GT(v.device_l2_hit_rate, 0.0)
      << cfg.name() << " on " << spec.name << ": no emergent hits at all";
  EXPECT_LE(std::abs(v.sampler_l2_hit_rate - v.device_l2_hit_rate) / v.device_l2_hit_rate,
            kSamplerBand)
      << cfg.name() << " on " << spec.name << " grid " << grid_x << "x" << grid_y << ":\n"
      << v.report();
}

TEST(L2SamplerBand, RowMajorRtx2070) {
  const auto spec = device::rtx2070();
  expect_sampler_band(spec, LaunchOrder::kRowMajor, 8, 6, 6);
  expect_sampler_band(spec, LaunchOrder::kRowMajor, 8, 12, 3);
  expect_sampler_band(spec, LaunchOrder::kRowMajor, 8, 36, 2);
}

TEST(L2SamplerBand, SupertileRtx2070) {
  const auto spec = device::rtx2070();
  expect_sampler_band(spec, LaunchOrder::kSupertile, 6, 6, 6);
  expect_sampler_band(spec, LaunchOrder::kSupertile, 6, 12, 3);
  expect_sampler_band(spec, LaunchOrder::kSupertile, 6, 36, 2);
}

TEST(L2SamplerBand, RowMajorT4) {
  const auto spec = device::t4();
  expect_sampler_band(spec, LaunchOrder::kRowMajor, 8, 5, 8);
  expect_sampler_band(spec, LaunchOrder::kRowMajor, 8, 10, 4);
  expect_sampler_band(spec, LaunchOrder::kRowMajor, 8, 40, 2);
}

TEST(L2SamplerBand, SupertileT4) {
  const auto spec = device::t4();
  expect_sampler_band(spec, LaunchOrder::kSupertile, 5, 5, 8);
  expect_sampler_band(spec, LaunchOrder::kSupertile, 5, 10, 4);
  expect_sampler_band(spec, LaunchOrder::kSupertile, 5, 40, 2);
}

TEST(L2SamplerBand, SupertileBeatsRowMajorAtTheCliff) {
  // The Fig. 8 cliff width on RTX 2070, at bench/fig8_swizzle's operating
  // point: a DRAM-hungry 64x64x64 blocking and a shallow k = 192, so one
  // wave's L2 window crosses the 4 MiB capacity right at W = 12032 under
  // row-major dispatch while a supertile panel stays resident. The tuned
  // supertile dispatch must be strictly faster — the model-side half of
  // the bench — and the row-major hit rate must visibly collapse.
  const auto spec = device::rtx2070();
  const GemmShape shape{12032, 12032, 192};
  core::HgemmConfig base;
  base.bm = 64;
  base.bn = 64;
  base.bk = 64;
  base.wm = 32;
  base.wn = 64;
  base.layout = core::SmemLayout::kTileMajor;
  core::HgemmConfig row = base;
  row.launch_order = LaunchOrder::kRowMajor;
  core::HgemmConfig super = base;
  super.launch_order = LaunchOrder::kSupertile;
  super.supertile_width = 16;
  core::PerfEstimator er(spec, row);
  core::PerfEstimator es(spec, super);
  const auto row_est = er.estimate(shape);
  const auto super_est = es.estimate(shape);
  EXPECT_GT(super_est.tflops, row_est.tflops * 1.02);
  EXPECT_GT(super_est.l2_hit_rate, row_est.l2_hit_rate + 0.1);
}

}  // namespace
}  // namespace tc
