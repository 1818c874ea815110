// Timing-engine tests of the HGEMM kernels: schedule correctness under
// hazard-accurate writeback, pipe utilization consistent with the paper's
// Table VI analysis, and the ablation orderings (padding, interleave,
// prefetch) the paper measures in Figs. 4/5.
#include <gtest/gtest.h>

#include "common/rng.hpp"
#include "core/hgemm.hpp"
#include "core/kernel_gen.hpp"
#include "core/reference.hpp"
#include "device/occupancy.hpp"
#include "driver/device.hpp"

namespace tc {
namespace {

/// Runs one CTA of a kernel in the timing engine with generous bandwidth and
/// returns (stats, C block) for a bm x bn x k problem.
struct TimedGemmRun {
  prof::CounterSet stats;
  HalfMatrix c;
};

TimedGemmRun run_one_cta_timed(const core::HgemmConfig& cfg, std::size_t k,
                               sim::TimedConfig tcfg, driver::Device& dev, Rng& rng) {
  const GemmShape shape{static_cast<std::size_t>(cfg.bm), static_cast<std::size_t>(cfg.bn), k};
  HalfMatrix a(shape.m, k), bt(shape.n, k);
  a.randomize(rng, -0.5f, 0.5f);
  bt.randomize(rng, -0.5f, 0.5f);

  const sass::Program prog = core::hgemm_kernel(cfg, shape);
  auto da = dev.alloc<half>(a.size());
  auto db = dev.alloc<half>(bt.size());
  auto dc = dev.alloc<half>(shape.m * shape.n);
  dev.upload(da, std::span<const half>(a.data(), a.size()));
  dev.upload(db, std::span<const half>(bt.data(), bt.size()));

  sim::Launch launch;
  launch.program = &prog;
  launch.grid_x = 1;
  launch.grid_y = 1;
  launch.params = {da.addr, db.addr, dc.addr};

  const sim::CtaCoord cta{0, 0};
  TimedGemmRun r{dev.run_timed(launch, std::span(&cta, 1), tcfg), HalfMatrix(shape.m, shape.n)};
  dev.download(std::span(r.c.data(), r.c.size()), dc);

  const HalfMatrix ref = core::gemm_ref_tc(a, bt);
  EXPECT_EQ(core::mismatch_count(r.c, ref), 0u)
      << "timed execution of " << cfg.name() << " diverged from the reference — "
      << "the stall/scoreboard schedule is wrong";
  return r;
}

TEST(TimedHgemm, OptimizedScheduleIsHazardCorrect) {
  // The strongest schedule test: under delayed writeback, any missing stall
  // or scoreboard wait corrupts the result.
  driver::Device dev(device::rtx2070());
  Rng rng(17);
  run_one_cta_timed(core::HgemmConfig::optimized(), 128, dev.timing_whole_device(), dev, rng);
}

TEST(TimedHgemm, CublasLikeScheduleIsHazardCorrect) {
  driver::Device dev(device::rtx2070());
  Rng rng(18);
  run_one_cta_timed(core::HgemmConfig::cublas_like(), 256, dev.timing_whole_device(), dev, rng);
}

TEST(TimedHgemm, ScheduleCorrectUnderTightBandwidth) {
  // Starving DRAM stretches load latencies; the scoreboard schedule must
  // still be correct (stalls alone would not be).
  driver::Device dev(device::rtx2070());
  Rng rng(19);
  auto tcfg = dev.timing_sm_share();
  tcfg.dram_bytes_per_cycle = 1.0;  // pathological
  run_one_cta_timed(core::HgemmConfig::optimized(), 96, tcfg, dev, rng);
}

TEST(TimedHgemm, TensorPipeDominatesForOptimizedConfig) {
  // Section VI-A: with (256x256x32)/(128x64) the HMMA cycles exceed the
  // memory-IO cycles, so the tensor pipe should be the busiest resource.
  driver::Device dev(device::rtx2070());
  Rng rng(20);
  auto tcfg = dev.timing_sm_share();
  tcfg.forced_l2_hit_rate = 0.5;
  const auto r = run_one_cta_timed(core::HgemmConfig::optimized(), 512, tcfg, dev, rng);
  // Tensor busy is per-partition-cycles; with 4 partitions the per-partition
  // average should dominate MIO busy time.
  EXPECT_GT(static_cast<double>(r.stats.tensor_busy) / 4.0,
            static_cast<double>(r.stats.mio_busy) * 0.9);
  // Utilization sanity: HMMA count = m*n*k / (16*8*8).
  EXPECT_EQ(r.stats.pipe_issue[prof::kPipeTensor], 256ull * 256 * 512 / 1024);
}

TEST(TimedHgemm, PaddedLayoutIsConflictFreeNaiveIsNot) {
  driver::Device dev(device::rtx2070());
  Rng rng(21);
  auto padded = core::HgemmConfig::optimized();
  auto naive = core::HgemmConfig::optimized();
  naive.layout = core::SmemLayout::kNaiveRowMajor;

  const auto rp = run_one_cta_timed(padded, 128, dev.timing_whole_device(), dev, rng);
  const auto rn = run_one_cta_timed(naive, 128, dev.timing_whole_device(), dev, rng);
  EXPECT_DOUBLE_EQ(rp.stats.smem_conflict_factor(), 1.0);
  EXPECT_GT(rn.stats.smem_conflict_factor(), 1.8);  // Fig. 5: ~halved throughput
  EXPECT_GT(static_cast<double>(rn.stats.cycles), 1.3 * static_cast<double>(rp.stats.cycles));
}

TEST(TimedHgemm, PrefetchHidesLoadLatency) {
  driver::Device dev(device::rtx2070());
  Rng rng(22);
  auto on = core::HgemmConfig::optimized();
  auto off = core::HgemmConfig::optimized();
  off.prefetch = false;
  const auto r_on = run_one_cta_timed(on, 256, dev.timing_sm_share(), dev, rng);
  const auto r_off = run_one_cta_timed(off, 256, dev.timing_sm_share(), dev, rng);
  EXPECT_LT(static_cast<double>(r_on.stats.cycles), static_cast<double>(r_off.stats.cycles));
}

TEST(TimedHgemm, TileMajorUsesLessSmemSameResult) {
  // The cuBLAS-style economical layout: 32 KB instead of 36 KB (Table VII),
  // still conflict-free.
  auto economical = core::HgemmConfig::optimized();
  economical.layout = core::SmemLayout::kTileMajor;
  EXPECT_EQ(economical.smem_bytes(), 32u * 1024);
  EXPECT_EQ(core::HgemmConfig::optimized().smem_bytes(), 36u * 1024);

  driver::Device dev(device::rtx2070());
  Rng rng(23);
  const auto r = run_one_cta_timed(economical, 128, dev.timing_whole_device(), dev, rng);
  EXPECT_DOUBLE_EQ(r.stats.smem_conflict_factor(), 1.0);
}

TEST(Occupancy, TableVII) {
  // Table VII: ours 36KB/CTA, 1 CTA/SM, 8 warps; cuBLAS 32KB, 2 CTAs, 8 warps.
  const auto spec = device::rtx2070();
  const GemmShape shape{256, 256, 64};
  const auto ours = core::hgemm_kernel(core::HgemmConfig::optimized(), shape);
  EXPECT_EQ(ours.smem_bytes, 36u * 1024);
  const auto occ_ours = device::occupancy(spec, ours);
  EXPECT_EQ(occ_ours.ctas_per_sm, 1);
  EXPECT_EQ(occ_ours.warps_per_sm, 8);

  const GemmShape shape_cb{128, 128, 128};
  const auto cublas = core::hgemm_kernel(core::HgemmConfig::cublas_like(), shape_cb);
  EXPECT_EQ(cublas.smem_bytes, 32u * 1024);
  const auto occ_cb = device::occupancy(spec, cublas);
  EXPECT_EQ(occ_cb.ctas_per_sm, 2);
  EXPECT_EQ(occ_cb.warps_per_sm, 8);
}

TEST(Occupancy, RegisterRounding) {
  EXPECT_EQ(device::allocated_regs_per_thread(1), 8);
  EXPECT_EQ(device::allocated_regs_per_thread(33), 40);
  EXPECT_EQ(device::allocated_regs_per_thread(255), 256);
}

TEST(PerfEstimator, OptimizedNearPeakOnRtx2070) {
  // Fig. 6: our kernel reaches ~device peak (59.7 TF) for large W.
  core::PerfEstimator est(device::rtx2070(), core::HgemmConfig::optimized());
  const auto p = est.estimate({8192, 8192, 8192});
  EXPECT_GT(p.tflops, 0.85 * device::rtx2070().tensor_peak_flops() / 1e12);
  EXPECT_LE(p.tflops, 1.02 * device::rtx2070().tensor_peak_flops() / 1e12);
}

TEST(PerfEstimator, OptimizedBeatsCublasLikeAtLargeSizes) {
  core::PerfEstimator ours(device::rtx2070(), core::HgemmConfig::optimized());
  core::PerfEstimator base(device::rtx2070(), core::HgemmConfig::cublas_like());
  const GemmShape big{12288, 12288, 12288};
  EXPECT_GT(ours.estimate(big).tflops, 1.2 * base.estimate(big).tflops);
}

TEST(PerfEstimator, T4IsDramBound) {
  // Fig. 7 / Section VII-C: T4 plateaus near ~50 TF, well under its 65 TF peak.
  core::PerfEstimator est(device::t4(), core::HgemmConfig::optimized());
  const auto p = est.estimate({8192, 8192, 8192});
  EXPECT_LT(p.tflops, 0.9 * device::t4().tensor_peak_flops() / 1e12);
  EXPECT_GT(p.tflops, 0.6 * device::t4().tensor_peak_flops() / 1e12);
}

}  // namespace
}  // namespace tc
