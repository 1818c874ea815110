// Cross-validation of model::WavePerf against sim::TimedDevice.
//
// Every kernel_gen kernel runs at several small full-device shapes on both
// the analytic wave composition (surrogate steady state + ceil-quantized
// waves, fair-share bandwidth, l2_reuse hit rate) and the cycle-level
// multi-SM simulator (shared L2/DRAM buckets, dynamic CTA dispatch, emergent
// reuse/contention). Tolerance bands — documented in docs/device_sim.md:
//
//  * whole-wave shapes (grid == W * num_sms * ctas_per_sm), tensor-bound
//    smem-staged kernels: 10 %. Measured agreement is ~1-5 %; the band
//    leaves room for platform libm noise.
//  * whole-wave, DRAM-bound smem-staged operating points (cublas_like on
//    T4): 15 %. Measured ~10-13 %: once the shared DRAM bucket is the
//    bottleneck, queueing adds a per-SM finish spread (~2-5 %) on top of
//    the fair-share rate the model assumes.
//  * whole-wave, smem-less wmma_naive (DRAM-oversubscribed everywhere):
//    40 %. Measured ~17-34 %, dominated by an emergent feedback loop the
//    single-SM surrogate cannot represent: bandwidth-stalled SMs drift
//    apart in co-resident access interleaving, lose L1 reuse, fetch more
//    and stall more (probed: per-SM dram_bytes spread ~8 %, finish spread
//    ~12 % at a pinned L2 rate and identical per-CTA work). Device time is
//    the max over SMs; the model predicts the fast-SM time.
//  * non-integral waves: 20 %. The model charges the tail wave as a full
//    wave and ignores the wave-transition DRAM burst the device simulates;
//    measured drift is ~10-15 %.
//
// The matrix runs with the device's L2 hit rate pinned to the model's
// l2_reuse prediction (ValidateKernelInput::pin_l2_hit_rate, the default):
// at these validation-scale shapes the whole A+B working set fits in L2, so
// the emergent sector-cache rate runs ~2x the η-derated analytic rate that
// l2_reuse calibrates for paper-scale working sets, and DRAM-bound kernels
// (hgemm on T4, wmma everywhere) would diverge 20-70 % for reasons that are
// a property of the shapes, not a bug in either engine. Pinning isolates
// what the matrix is meant to validate — wave composition, shared-bandwidth
// contention and CTA scheduling. EmergentL2ExceedsDeratedModel asserts the
// divergence itself, so the live sector-cache path stays covered.
//
// On failure, WaveValidation::report() attributes the miss per component
// (L2 hit rate, DRAM traffic, tensor utilization, tail imbalance).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "core/config.hpp"
#include "core/kernel_gen.hpp"
#include "core/profile.hpp"
#include "device/occupancy.hpp"
#include "mem/global_mem.hpp"
#include "model/validate.hpp"
#include "sim/timed_device.hpp"
#include "support/timed_results.hpp"

namespace tc {
namespace {

constexpr double kWholeWaveTol = 0.10;
constexpr double kDramBoundTol = 0.15;
constexpr double kMemBoundTol = 0.40;
constexpr double kTailWaveTol = 0.20;

model::ValidateKernelInput hgemm_input(const device::DeviceSpec& spec,
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
  return kin;
}

model::ValidateKernelInput wmma_input(const device::DeviceSpec& spec) {
  model::ValidateKernelInput kin;
  kin.make_kernel = [](const GemmShape& s) { return core::wmma_naive_kernel(s); };
  kin.name = "wmma_naive";
  kin.bm = 16;
  kin.bn = 128;
  kin.bk = 16;
  const GemmShape probe{16, 128, 32};
  kin.ctas_per_sm = device::occupancy(spec, core::wmma_naive_kernel(probe)).ctas_per_sm;
  return kin;
}

/// A shape whose grid is exactly `waves` full device waves: num_sms factors
/// as a x b (a <= b), grid_y = a * ctas_per_sm * waves along m, grid_x = b
/// along n. `transpose` swaps the factor assignment for a different aspect
/// ratio at the same CTA count.
GemmShape whole_wave_shape(const device::DeviceSpec& spec,
                           const model::ValidateKernelInput& kin, std::size_t k,
                           int waves = 1, bool transpose = false) {
  int a = 1;
  for (int d = 1; d * d <= spec.num_sms; ++d) {
    if (spec.num_sms % d == 0) a = d;
  }
  int b = spec.num_sms / a;
  if (transpose) std::swap(a, b);
  const auto grid_y = static_cast<std::size_t>(a * kin.ctas_per_sm * waves);
  const auto grid_x = static_cast<std::size_t>(b);
  return {grid_y * static_cast<std::size_t>(kin.bm),
          grid_x * static_cast<std::size_t>(kin.bn), k};
}

void expect_xval(const device::DeviceSpec& spec, const model::ValidateKernelInput& kin,
                 const GemmShape& shape, double tol) {
  const auto v = model::validate_wave(spec, kin, shape);
  EXPECT_LE(std::abs(v.rel_error), tol)
      << kin.name << " on " << spec.name << " at " << shape.m << "x" << shape.n << "x"
      << shape.k << ":\n"
      << v.report();
}

/// Three whole-wave shapes per kernel/device: two k's at the default aspect
/// ratio plus the transposed factorization (>= 3 sizes per the harness
/// contract). `tol` is the regime band from the table above.
void xval_matrix(const device::DeviceSpec& spec, const model::ValidateKernelInput& kin,
                 std::size_t k_small, std::size_t k_large,
                 double tol = kWholeWaveTol) {
  expect_xval(spec, kin, whole_wave_shape(spec, kin, k_small), tol);
  expect_xval(spec, kin, whole_wave_shape(spec, kin, k_large), tol);
  expect_xval(spec, kin, whole_wave_shape(spec, kin, k_small, 1, true), tol);
}

TEST(DeviceXval, OptimizedRtx2070) {
  const auto spec = device::rtx2070();
  xval_matrix(spec, hgemm_input(spec, core::HgemmConfig::optimized()), 128, 256);
}

TEST(DeviceXval, OptimizedT4) {
  const auto spec = device::t4();
  xval_matrix(spec, hgemm_input(spec, core::HgemmConfig::optimized()), 128, 256);
}

TEST(DeviceXval, CublasLikeRtx2070) {
  const auto spec = device::rtx2070();
  xval_matrix(spec, hgemm_input(spec, core::HgemmConfig::cublas_like()), 128, 256);
}

TEST(DeviceXval, CublasLikeT4) {
  // The cublas_like config on T4 is DRAM-bound at these shapes (T4 has
  // ~45 % of the RTX 2070's per-SM DRAM share): shared-bucket queueing adds
  // a measured 2-5 % per-SM finish spread over the model's fair share.
  const auto spec = device::t4();
  xval_matrix(spec, hgemm_input(spec, core::HgemmConfig::cublas_like()), 128, 256,
              kDramBoundTol);
}

TEST(DeviceXval, WmmaNaiveRtx2070) {
  // wmma_naive is smem-less and DRAM-oversubscribed on both devices; see
  // the header for why the emergent per-SM spread forces the wide band.
  const auto spec = device::rtx2070();
  xval_matrix(spec, wmma_input(spec), 64, 128, kMemBoundTol);
}

TEST(DeviceXval, WmmaNaiveT4) {
  const auto spec = device::t4();
  xval_matrix(spec, wmma_input(spec), 64, 128, kMemBoundTol);
}

TEST(DeviceXval, EmergentL2ExceedsDeratedModel) {
  // With the sector cache live, a one-wave working set that fits in L2 must
  // beat the model's derated analytic rate — and the tensor-bound optimized
  // kernel must stay within the headline band regardless of which L2 rate
  // it sees (cycle count insensitive to the divergence).
  const auto spec = device::rtx2070();
  auto kin = hgemm_input(spec, core::HgemmConfig::optimized());
  kin.pin_l2_hit_rate = false;
  const auto v = model::validate_wave(spec, kin, whole_wave_shape(spec, kin, 128));
  EXPECT_GT(v.device_l2_hit_rate, v.model_l2_hit_rate) << v.report();
  EXPECT_LE(std::abs(v.rel_error), kWholeWaveTol) << v.report();
}

TEST(DeviceXval, TailWaveWithinWideBand) {
  // A non-integral second wave: the model's ceil() and the device's dynamic
  // refill disagree the most here; the drift must stay inside the wider
  // documented band.
  const auto spec = device::rtx2070();
  const auto kin = hgemm_input(spec, core::HgemmConfig::optimized());
  expect_xval(spec, kin, {2048, 2048, 256}, kTailWaveTol);
}

// ---------------------------------------------------------------------------
// Property tests re-asserted against TimedDevice (not just WavePerf): the
// wave-quantization sawtooth and k-linearity of tests/test_property.cpp must
// also hold for the emergent device simulation.

std::uint64_t device_cycles(const device::DeviceSpec& spec,
                            const model::ValidateKernelInput& kin, const GemmShape& shape) {
  const sass::Program prog = kin.make_kernel(shape);
  mem::GlobalMemory gmem;
  sim::Launch launch;
  launch.program = &prog;
  launch.grid_x = static_cast<std::uint32_t>(shape.n / static_cast<std::size_t>(kin.bn));
  launch.grid_y = static_cast<std::uint32_t>(shape.m / static_cast<std::size_t>(kin.bm));
  launch.params = {gmem.alloc(shape.m * shape.k * 2), gmem.alloc(shape.n * shape.k * 2),
                   gmem.alloc(shape.m * shape.n * 2)};
  sim::TimedDeviceConfig dc;
  dc.spec = spec;
  dc.ctas_per_sm = kin.ctas_per_sm;
  dc.skip_mma_math = true;
  sim::TimedDevice dev(dc, gmem);
  return dev.run(launch).device_cycles;
}

TEST(DeviceXval, WaveQuantizationSawtoothEmerges) {
  // One CTA row past a full wave costs nearly a whole extra wave.
  const auto spec = device::rtx2070();
  const auto kin = hgemm_input(spec, core::HgemmConfig::optimized());
  const auto full = device_cycles(spec, kin, {1536, 1536, 128});   // 36 CTAs, 1 wave
  const auto over = device_cycles(spec, kin, {1792, 1536, 128});   // 42 CTAs, 2 waves
  EXPECT_GT(static_cast<double>(over), 1.3 * static_cast<double>(full));
  EXPECT_LT(static_cast<double>(over), 2.6 * static_cast<double>(full));
}

TEST(DeviceXval, KLinearityEmerges) {
  // Device cycles grow linearly in k: equal k increments cost equal cycles.
  const auto spec = device::rtx2070();
  const auto kin = hgemm_input(spec, core::HgemmConfig::optimized());
  const auto c1 = device_cycles(spec, kin, {1536, 1536, 128});
  const auto c2 = device_cycles(spec, kin, {1536, 1536, 256});
  const auto c3 = device_cycles(spec, kin, {1536, 1536, 384});
  const double s12 = static_cast<double>(c2 - c1);
  const double s23 = static_cast<double>(c3 - c2);
  EXPECT_GT(c2, c1);
  EXPECT_GT(c3, c2);
  EXPECT_NEAR(s23 / s12, 1.0, 0.25);
}

TEST(DeviceXval, SubWaveGridPrimesEverySm) {
  // Regression: sms_used was min(num_sms, num_ctas) while priming filled SMs
  // depth-first (each SM draining up to ctas_per_sm CTAs from the source in
  // turn), so a sub-wave grid starved the trailing SMs and the launch aborted
  // with "CTA source drained". A 2x2 grid at ctas_per_sm=2 must instead run
  // on ceil(4 / 2) = 2 SMs, two CTAs each, every instantiated SM fed.
  const auto spec = device::rtx2070();
  const auto kin = hgemm_input(spec, core::HgemmConfig::optimized());
  const GemmShape shape{2 * static_cast<std::size_t>(kin.bm),
                        2 * static_cast<std::size_t>(kin.bn), 128};
  const sass::Program prog = kin.make_kernel(shape);
  mem::GlobalMemory gmem;
  sim::Launch launch;
  launch.program = &prog;
  launch.grid_x = 2;
  launch.grid_y = 2;
  launch.params = {gmem.alloc(shape.m * shape.k * 2), gmem.alloc(shape.n * shape.k * 2),
                   gmem.alloc(shape.m * shape.n * 2)};
  sim::TimedDeviceConfig dc;
  dc.spec = spec;
  dc.ctas_per_sm = 2;
  dc.skip_mma_math = true;
  sim::TimedDevice dev(dc, gmem);
  const auto res = dev.run(launch);
  EXPECT_EQ(res.sms_used, 2);
  EXPECT_EQ(res.ctas_run, 4u);
  ASSERT_EQ(res.per_sm.size(), 2u);
  for (const auto& s : res.per_sm) EXPECT_GT(s.instructions, 0u);

  // Odd remainder: 3 CTAs at 2/SM -> 2 SMs, the second primed with only one.
  const GemmShape odd{3 * static_cast<std::size_t>(kin.bm),
                      static_cast<std::size_t>(kin.bn), 128};
  const sass::Program oprog = kin.make_kernel(odd);
  mem::GlobalMemory ogmem;
  sim::Launch olaunch;
  olaunch.program = &oprog;
  olaunch.grid_x = 1;
  olaunch.grid_y = 3;
  olaunch.params = {ogmem.alloc(odd.m * odd.k * 2), ogmem.alloc(odd.n * odd.k * 2),
                    ogmem.alloc(odd.m * odd.n * 2)};
  sim::TimedDevice odev(dc, ogmem);
  const auto ores = odev.run(olaunch);
  EXPECT_EQ(ores.sms_used, 2);
  EXPECT_EQ(ores.ctas_run, 3u);
  for (const auto& s : ores.per_sm) EXPECT_GT(s.instructions, 0u);
}

TEST(DeviceXval, TotalIsTheFoldOfPerSm) {
  // DeviceResult::total is CounterSet::operator+= over per_sm: counts add,
  // high-water marks and cycles take the max, so total.cycles is the device
  // time. A cublas_like grid of two CTAs per SM on 8 SMs, emergent L2.
  const auto spec = device::rtx2070();
  const auto cfg = core::HgemmConfig::cublas_like();
  const GemmShape shape{256, 1024, 128};
  const sass::Program prog = core::hgemm_kernel(cfg, shape);
  mem::GlobalMemory gmem;
  sim::Launch launch;
  launch.program = &prog;
  launch.grid_x = static_cast<std::uint32_t>(shape.n / static_cast<std::size_t>(cfg.bn));
  launch.grid_y = static_cast<std::uint32_t>(shape.m / static_cast<std::size_t>(cfg.bm));
  launch.params = {gmem.alloc(shape.m * shape.k * 2), gmem.alloc(shape.n * shape.k * 2),
                   gmem.alloc(shape.m * shape.n * 2)};
  sim::TimedDeviceConfig dc;
  dc.spec = spec;
  dc.ctas_per_sm = 2;
  dc.skip_mma_math = true;
  const sim::DeviceResult res = sim::TimedDevice(dc, gmem).run(launch);
  ASSERT_EQ(res.per_sm.size(), 8u);

  prof::CounterSet fold;
  std::uint64_t max_cycles = 0;
  std::uint64_t instructions = 0;
  int mshr_highwater = 0;
  for (const auto& s : res.per_sm) {
    fold += s;
    max_cycles = std::max(max_cycles, s.cycles);
    instructions += s.instructions;
    mshr_highwater = std::max(mshr_highwater, s.mshr_highwater);
  }
  testsupport::expect_same_counters(res.total, fold);
  EXPECT_EQ(res.total.cycles, res.device_cycles);
  EXPECT_EQ(res.device_cycles, max_cycles);
  EXPECT_EQ(res.total.instructions, instructions);
  EXPECT_EQ(res.total.mshr_highwater, mshr_highwater);
  EXPECT_GT(res.total.dram_bytes, 0.0);
}

/// TimedDevice::run as it was before event skip, over the public TimedSm
/// API: one TimedSm per SM on a shared MemSystem, every SM stepping every
/// cycle, the round's first SM rotating with the cycle. The oracle the
/// event-skipping device is held to.
sim::DeviceResult run_lockstep_device(const sim::TimedDeviceConfig& dc,
                                      mem::GlobalMemory& gmem, const sim::Launch& launch) {
  const auto per_sm = static_cast<std::uint64_t>(dc.ctas_per_sm);
  const int sms_used = static_cast<int>(std::min<std::uint64_t>(
      static_cast<std::uint64_t>(dc.spec.num_sms), (launch.num_ctas() + per_sm - 1) / per_sm));
  sim::CtaSource source(launch);
  sim::TimedConfig tc;
  tc.spec = dc.spec;
  tc.skip_mma_math = dc.skip_mma_math;
  tc.forced_l2_hit_rate = dc.forced_l2_hit_rate;
  sim::MemSystem shared(tc);
  tc.shared = &shared;
  std::vector<std::unique_ptr<sim::TimedSm>> sms;
  for (int i = 0; i < sms_used; ++i) {
    tc.sm_id = i;
    sms.push_back(std::make_unique<sim::TimedSm>(tc, gmem));
    sms.back()->begin(launch, source, dc.ctas_per_sm);
  }
  for (std::uint64_t round = 0, any = 1; any != 0; ++round) {
    any = 0;
    for (int i = 0; i < sms_used; ++i) {
      auto& sm = sms[static_cast<std::size_t>((i + round) % sms_used)];
      if (!sm->done()) {
        sm->step();
        any = 1;
      }
    }
  }
  sim::DeviceResult res;
  res.sms_used = sms_used;
  for (auto& sm : sms) {
    res.per_sm.push_back(sm->finish());
    res.total += res.per_sm.back();
  }
  res.device_cycles = res.total.cycles;
  res.l2_hit_rate = tc.l2_pinned() ? dc.forced_l2_hit_rate : shared.l2->stats().hit_rate();
  res.ctas_run = source.issued();
  return res;
}

void expect_same_result(const sim::DeviceResult& a, const sim::DeviceResult& b) {
  EXPECT_EQ(a.device_cycles, b.device_cycles);
  EXPECT_EQ(a.l2_hit_rate, b.l2_hit_rate);
  EXPECT_EQ(a.ctas_run, b.ctas_run);
  EXPECT_EQ(a.sms_used, b.sms_used);
  ASSERT_EQ(a.per_sm.size(), b.per_sm.size());
  for (std::size_t i = 0; i < a.per_sm.size(); ++i) {
    SCOPED_TRACE("SM " + std::to_string(i));
    testsupport::expect_same_counters(a.per_sm[i], b.per_sm[i]);
  }
  testsupport::expect_same_counters(a.total, b.total);
}

/// One device launch of `prog` over `shape` with random A and B^T, run by
/// TimedDevice::run or by the lockstep oracle; returns the result and the
/// bytes of C.
std::pair<sim::DeviceResult, std::vector<std::uint8_t>> run_device(
    const sass::Program& prog, const core::HgemmConfig& cfg, const GemmShape& shape,
    sim::LaunchOrder order, const sim::TimedDeviceConfig& dc, bool lockstep) {
  mem::GlobalMemory gmem;
  sim::Launch launch;
  launch.program = &prog;
  launch.grid_x = static_cast<std::uint32_t>(shape.n / static_cast<std::size_t>(cfg.bn));
  launch.grid_y = static_cast<std::uint32_t>(shape.m / static_cast<std::size_t>(cfg.bm));
  launch.launch_order = order;
  launch.supertile_width = 2;
  Rng rng(5);
  for (const std::size_t elems : {shape.m * shape.k, shape.n * shape.k}) {
    std::vector<std::uint8_t> bytes(elems * 2);
    for (std::size_t i = 0; i < elems; ++i) {
      const std::uint16_t bits = rng.next_half(-0.5f, 0.5f).bits();
      bytes[2 * i] = static_cast<std::uint8_t>(bits & 0xFF);
      bytes[2 * i + 1] = static_cast<std::uint8_t>(bits >> 8);
    }
    launch.params.push_back(gmem.alloc(bytes.size()));
    gmem.write(launch.params.back(), bytes);
  }
  launch.params.push_back(gmem.alloc(shape.m * shape.n * 2));
  sim::DeviceResult res;
  if (lockstep) {
    res = run_lockstep_device(dc, gmem, launch);
  } else {
    sim::TimedDevice dev(dc, gmem);
    res = dev.run(launch);
  }
  std::vector<std::uint8_t> c(shape.m * shape.n * 2);
  gmem.read(launch.params[2], c);
  return {std::move(res), std::move(c)};
}

TEST(DeviceXval, LockstepRunsAreBitwiseRepeatable) {
  // One launch has one result. TimedDevice::run steps an SM only in cycles
  // where something happens on it; it must equal stepping every SM every
  // cycle on every DeviceResult field, and repeat itself.
  //
  // Timing-only runs cover both configs on both specs in row-major,
  // supertile and Hilbert order, with the emergent shared L2 and a forced
  // hit rate, on grids of 8 to 16 SMs. One grid per config outnumbers the
  // device's resident slots, so CTA hand-out between SMs is exercised too.
  // Full-math runs (emergent L2, Hilbert order) also compare C.
  struct Case {
    device::DeviceSpec spec;
    core::HgemmConfig cfg;
    GemmShape shape;
    sim::LaunchOrder order;
    double forced_l2;
    bool full_math;
  };
  const auto opt = core::HgemmConfig::optimized();
  const auto cub = core::HgemmConfig::cublas_like();
  const GemmShape opt_grid{512, 1024, 64};   // 2 x 4 CTAs, one per SM
  const GemmShape cub_grid{256, 1024, 128};  // 2 x 8 CTAs, two per SM
  std::vector<Case> cases;
  for (const auto& spec : {device::rtx2070(), device::t4()}) {
    for (const auto order : {sim::LaunchOrder::kRowMajor, sim::LaunchOrder::kSupertile,
                             sim::LaunchOrder::kHilbert}) {
      for (const double l2 : {-1.0, 0.5}) {
        cases.push_back({spec, opt, opt_grid, order, l2, false});
        cases.push_back({spec, cub, cub_grid, order, l2, false});
      }
    }
    cases.push_back({spec, opt, {512, 512, 64}, sim::LaunchOrder::kHilbert, -1.0, true});
    cases.push_back({spec, cub, {256, 512, 128}, sim::LaunchOrder::kHilbert, -1.0, true});
  }
  const std::size_t first_refill = cases.size();
  cases.push_back({device::rtx2070(), opt, {1536, 2048, 64}, sim::LaunchOrder::kRowMajor, -1.0,
                   false});  // 48 CTAs, 36 slots
  cases.push_back({device::t4(), cub, {1024, 1536, 128}, sim::LaunchOrder::kHilbert, 0.5,
                   false});  // 96 CTAs, 80 slots

  for (std::size_t i = 0; i < cases.size(); ++i) {
    const Case& c = cases[i];
    SCOPED_TRACE(c.cfg.name() + " on " + c.spec.name + " at " + std::to_string(c.shape.m) + "x" +
                 std::to_string(c.shape.n) + "x" + std::to_string(c.shape.k) + ", order " +
                 std::to_string(static_cast<int>(c.order)) + ", forced L2 " +
                 std::to_string(c.forced_l2) + (c.full_math ? ", full math" : ""));
    const sass::Program prog = core::hgemm_kernel(c.cfg, c.shape);
    sim::TimedDeviceConfig dc;
    dc.spec = c.spec;
    dc.ctas_per_sm = device::occupancy(c.spec, prog).ctas_per_sm;
    dc.skip_mma_math = !c.full_math;
    dc.forced_l2_hit_rate = c.forced_l2;
    const auto [want, want_c] = run_device(prog, c.cfg, c.shape, c.order, dc, true);
    const auto [got, got_c] = run_device(prog, c.cfg, c.shape, c.order, dc, false);
    expect_same_result(want, got);
    if (c.full_math) EXPECT_TRUE(want_c == got_c) << "C differs";
    const std::uint64_t ctas = (c.shape.m / static_cast<std::size_t>(c.cfg.bm)) *
                               (c.shape.n / static_cast<std::size_t>(c.cfg.bn));
    EXPECT_EQ(got.ctas_run, ctas);
    EXPECT_GT(got.sms_used, 1);
    const auto slots = static_cast<std::uint64_t>(c.spec.num_sms) *
                       static_cast<std::uint64_t>(dc.ctas_per_sm);
    EXPECT_EQ(ctas > slots, i >= first_refill);
  }

  // Two runs of one DRAM-bound, emergent-L2 grid (cublas_like on T4, two
  // CTAs per SM) agree on every field: the shared L2 tag array and both
  // shared bandwidth buckets under contention, and the Hilbert-ordered
  // CtaSource.
  const auto spec = device::t4();
  const auto cfg = core::HgemmConfig::cublas_like();
  const GemmShape shape{1024, 512, 128};  // 4 x 8 CTAs on 16 SMs
  const sass::Program prog = core::hgemm_kernel(cfg, shape);
  sim::TimedDeviceConfig dc;
  dc.spec = spec;
  dc.ctas_per_sm = device::occupancy(spec, prog).ctas_per_sm;
  dc.skip_mma_math = true;
  for (const auto order : {sim::LaunchOrder::kRowMajor, sim::LaunchOrder::kHilbert}) {
    SCOPED_TRACE(static_cast<int>(order));
    const auto a = run_device(prog, cfg, shape, order, dc, false).first;
    const auto b = run_device(prog, cfg, shape, order, dc, false).first;
    expect_same_result(a, b);
    // The run really shares the device: every SM fed, L2 hits emerge.
    EXPECT_EQ(a.ctas_run, 32u);
    EXPECT_GT(a.sms_used, 1);
    EXPECT_GT(a.l2_hit_rate, 0.0);
  }

  // There is no multi-threaded device: a thread count other than 1 is an
  // error that names the field, not a silently ignored knob.
  dc.threads = 2;
  try {
    (void)run_device(prog, cfg, shape, sim::LaunchOrder::kRowMajor, dc, false);
    ADD_FAILURE() << "threads = 2 was accepted";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("TimedDeviceConfig.threads"), std::string::npos)
        << e.what();
  }
}

}  // namespace
}  // namespace tc
