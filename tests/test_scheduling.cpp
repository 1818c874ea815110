// Instruction-scheduling behaviour at the SM level: the mechanisms behind
// the paper's Figs. 4/5 measured directly in cycles, plus negative tests
// proving that the hazard machinery actually bites.
#include <gtest/gtest.h>

#include <limits>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "core/hgemm.hpp"
#include "core/kernel_gen.hpp"
#include "core/reference.hpp"
#include "driver/device.hpp"
#include "sass/builder.hpp"
#include "sim/probe.hpp"
#include "support/kernel_cases.hpp"
#include "support/timed_results.hpp"

namespace tc {
namespace {

/// Steady-state cycles for one CTA of `cfg` (timing only; MMA math skipped).
double steady_cycles(const core::HgemmConfig& cfg, int iters, double l2_hit = 0.5) {
  const GemmShape s{static_cast<std::size_t>(cfg.bm), static_cast<std::size_t>(cfg.bn),
                    static_cast<std::size_t>(cfg.bk) * static_cast<std::size_t>(iters)};
  const auto prog = core::hgemm_kernel(cfg, s);
  mem::GlobalMemory gmem;
  sim::Launch launch;
  launch.program = &prog;
  launch.params = {gmem.alloc(s.m * s.k * 2), gmem.alloc(s.n * s.k * 2),
                   gmem.alloc(s.m * s.n * 2)};
  sim::TimedConfig tc;
  tc.spec = device::rtx2070();
  tc.dram_bytes_per_cycle = tc.spec.dram_bytes_per_cycle_per_sm();
  tc.l2_bytes_per_cycle = tc.spec.l2_bytes_per_cycle_per_sm();
  tc.forced_l2_hit_rate = l2_hit;
  tc.skip_mma_math = true;
  sim::TimedSm sm(tc, gmem);
  const sim::CtaCoord cta{0, 0};
  return static_cast<double>(sm.run(launch, std::span(&cta, 1)).cycles);
}

double slope(const core::HgemmConfig& cfg) {
  return (steady_cycles(cfg, 14) - steady_cycles(cfg, 6)) / 8.0;
}

TEST(Scheduling, Sts5FasterThanSts2InCycles) {
  // Fig. 4's mechanism at SM level: interleave 2 bunches STS into the MIO
  // queue and stalls the issuing warps' HMMAs.
  auto sts5 = core::HgemmConfig::optimized();
  auto sts2 = core::HgemmConfig::optimized();
  sts2.sts_interleave = 2;
  EXPECT_LT(slope(sts5), slope(sts2));
}

TEST(Scheduling, WiderWarpTileBeatsNarrow) {
  // Section VI-A: (64x64) warp tiles need 1.5x the LDS traffic per HMMA.
  auto wide = core::HgemmConfig::optimized();  // 128x64
  auto narrow = core::HgemmConfig::optimized();
  narrow.wm = 64;
  narrow.wn = 64;  // 16 warps -> 512 threads; still valid
  EXPECT_LT(slope(wide), slope(narrow));
}

TEST(Scheduling, TensorUtilizationIsHigh) {
  // The optimized kernel should keep the tensor pipe > 85% busy in steady
  // state (ideal iteration = 4126 cycles per Table VI).
  const double per_iter = slope(core::HgemmConfig::optimized());
  EXPECT_LT(per_iter, 4126.0 / 0.85);
  EXPECT_GE(per_iter, 4126.0 * 0.99);
}

TEST(Scheduling, NanL2HitRateLeavesAStandaloneSmOnItsPrivateL2) {
  // Only a rate >= 0 pins L2 hits; NaN behaves as the emergent default.
  const auto cfg = core::HgemmConfig::optimized();
  EXPECT_EQ(steady_cycles(cfg, 6, std::numeric_limits<double>::quiet_NaN()),
            steady_cycles(cfg, 6, -1.0));
}

TEST(Scheduling, UnderStalledHmmaProducesStaleResult) {
  // Negative control for the whole hazard model: read D one cycle too early
  // and the value must be the poison, not the product.
  sass::KernelBuilder b("understalled");
  b.threads(32);
  b.mov_param(sass::Reg{10}, 0).stall(13);
  b.s2r(sass::Reg{11}, sass::SpecialReg::kLaneId).stall(13);
  b.shl(sass::Reg{12}, sass::Reg{11}, 2).stall(6);
  b.iadd3(sass::Reg{12}, sass::Reg{12}, sass::Reg{10}).stall(6);
  b.mov_imm(sass::Reg{2}, half2{half(1.0f), half(1.0f)}.pack()).stall(1);
  b.mov_imm(sass::Reg{3}, half2{half(1.0f), half(1.0f)}.pack()).stall(1);
  b.mov_imm(sass::Reg{6}, half2{half(1.0f), half(1.0f)}.pack()).stall(1);
  b.mov_imm(sass::Reg{8}, 0xDEADDEADu).stall(6);  // poison
  b.hmma_1688_f16(sass::Reg{8}, sass::Reg{2}, sass::Reg{6}, sass::RZ).stall(9);  // 1 short
  b.stg(sass::MemWidth::k32, sass::Reg{12}, sass::Reg{8}).stall(1);
  b.exit();
  const auto prog = b.finalize();

  driver::Device dev(device::rtx2070());
  auto out = dev.alloc<std::uint32_t>(32);
  sim::Launch launch;
  launch.program = &prog;
  launch.params = {out.addr};
  const sim::CtaCoord cta{0, 0};
  dev.run_timed(launch, std::span(&cta, 1), dev.timing_whole_device());
  std::vector<std::uint32_t> host(32);
  dev.download(std::span<std::uint32_t>(host), out);
  EXPECT_EQ(host[0], 0xDEADDEADu);  // stale poison: latency not covered

  // The same program runs correctly in the functional engine.
  dev.launch(launch);
  dev.download(std::span<std::uint32_t>(host), out);
  EXPECT_NE(host[0], 0xDEADDEADu);
}

TEST(Scheduling, MissingScoreboardWaitReadsStaleLoad) {
  sass::KernelBuilder b("nowait");
  b.threads(32);
  b.mov_param(sass::Reg{10}, 0).stall(1);
  b.mov_param(sass::Reg{11}, 1).stall(13);
  b.s2r(sass::Reg{12}, sass::SpecialReg::kLaneId).stall(13);
  b.shl(sass::Reg{13}, sass::Reg{12}, 2).stall(6);
  b.iadd3(sass::Reg{14}, sass::Reg{13}, sass::Reg{10}).stall(6);  // in + lane*4
  b.iadd3(sass::Reg{15}, sass::Reg{13}, sass::Reg{11}).stall(6);  // out + lane*4
  b.mov_imm(sass::Reg{4}, 0xCAFEBABEu).stall(6);
  b.ldg(sass::MemWidth::k32, sass::Reg{4}, sass::Reg{14}).write_bar(0).stall(2);
  b.stg(sass::MemWidth::k32, sass::Reg{15}, sass::Reg{4}).stall(1);  // no wait!
  b.nop().wait_on(0).stall(1);  // barrier consumed later (keeps lint clean)
  b.exit();
  const auto prog = b.finalize();

  driver::Device dev(device::rtx2070());
  auto in = dev.alloc<std::uint32_t>(32);
  auto out = dev.alloc<std::uint32_t>(32);
  std::vector<std::uint32_t> ones(32, 111u);
  dev.upload(in, std::span<const std::uint32_t>(ones));
  sim::Launch launch;
  launch.program = &prog;
  launch.params = {in.addr, out.addr};
  const sim::CtaCoord cta{0, 0};
  dev.run_timed(launch, std::span(&cta, 1), dev.timing_whole_device());
  std::vector<std::uint32_t> host(32);
  dev.download(std::span<std::uint32_t>(host), out);
  EXPECT_EQ(host[0], 0xCAFEBABEu);  // the load had not returned yet
}

/// Cycles to run `grid_ctas` CTAs through `resident` slots of one SM with
/// dynamic refill (the GigaThread path TimedDevice uses).
double refill_cycles(int grid_ctas, int resident) {
  const auto cfg = core::HgemmConfig::optimized();
  const GemmShape s{256ull * static_cast<std::size_t>(grid_ctas), 256, 64};
  const auto prog = core::hgemm_kernel(cfg, s);
  mem::GlobalMemory gmem;
  sim::Launch launch;
  launch.program = &prog;
  launch.grid_x = 1;
  launch.grid_y = static_cast<std::uint32_t>(grid_ctas);
  launch.params = {gmem.alloc(s.m * s.k * 2), gmem.alloc(s.n * s.k * 2),
                   gmem.alloc(s.m * s.n * 2)};
  sim::TimedConfig tc;
  tc.spec = device::rtx2070();
  tc.dram_bytes_per_cycle = tc.spec.dram_bytes_per_cycle_per_sm();
  tc.l2_bytes_per_cycle = tc.spec.l2_bytes_per_cycle_per_sm();
  tc.forced_l2_hit_rate = 0.5;
  tc.skip_mma_math = true;
  sim::TimedSm sm(tc, gmem);
  sim::CtaSource source(launch);
  sm.begin(launch, source, resident);
  while (sm.step()) {
  }
  EXPECT_EQ(source.issued(), static_cast<std::uint64_t>(grid_ctas));
  return static_cast<double>(sm.finish().cycles);
}

TEST(Scheduling, UnevenTailWaveCostsAFullRound) {
  // 5 CTAs through 2 resident slots: the 5th CTA runs alone in round 3, but
  // still costs nearly the full round — the wave-quantization effect the
  // model's ceil() asserts, here emerging from dynamic refill on one SM.
  const double c4 = refill_cycles(4, 2);  // 2 even rounds
  const double c5 = refill_cycles(5, 2);  // tail round with 1 CTA
  const double c6 = refill_cycles(6, 2);  // 3 even rounds
  EXPECT_GT(c5, c4 * 1.2);
  EXPECT_LE(c5, c6 * 1.02);
}

TEST(Scheduling, RespawnProbeCapturesRetiringCtaCoords) {
  // Regression: respawn_slot used to relabel the slot with the incoming
  // CTA's coordinates before the divergence-probe capture, so a retiring
  // CTA's final registers were recorded under the wrong (x, y) — colliding
  // with the finish()-time capture of the CTA that ends up owning them.
  // A kernel that writes its own ctaid into registers makes any mis-keying
  // visible: every snapshot's R4/R5 must equal its recorded coordinates.
  sass::KernelBuilder b("ctaid_probe");
  b.threads(32);
  b.s2r(sass::Reg{4}, sass::SpecialReg::kCtaIdX).stall(13);
  b.s2r(sass::Reg{5}, sass::SpecialReg::kCtaIdY).stall(13);
  b.exit();
  const auto prog = b.finalize();

  mem::GlobalMemory gmem;
  sim::Launch launch;
  launch.program = &prog;
  launch.grid_x = 2;
  launch.grid_y = 2;

  sim::StateProbe probe;
  probe.set_num_regs(prog.num_regs);
  sim::TimedConfig tc;
  tc.spec = device::rtx2070();
  tc.probe = &probe;
  sim::TimedSm sm(tc, gmem);
  sim::CtaSource source(launch);
  sm.begin(launch, source, 2);  // 4 CTAs through 2 slots -> 2 respawn captures
  while (sm.step()) {
  }
  sm.finish();

  const auto snaps = probe.sorted();
  ASSERT_EQ(snaps.size(), 4u);  // one per CTA, no coordinate collisions
  for (const auto& s : snaps) {
    ASSERT_GE(prog.num_regs, 6);
    for (std::size_t lane = 0; lane < 32; ++lane) {
      EXPECT_EQ(s.gprs[4 * 32 + lane], s.cta_x)
          << "CTA (" << s.cta_x << "," << s.cta_y << ") lane " << lane;
      EXPECT_EQ(s.gprs[5 * 32 + lane], s.cta_y)
          << "CTA (" << s.cta_x << "," << s.cta_y << ") lane " << lane;
    }
  }
}

TEST(Scheduling, CtaSourceDispensesInLaunchOrder) {
  sim::Launch launch;
  launch.grid_x = 3;
  launch.grid_y = 2;
  sim::CtaSource src(launch);
  const std::pair<std::uint32_t, std::uint32_t> want[] = {{0, 0}, {1, 0}, {2, 0},
                                                          {0, 1}, {1, 1}, {2, 1}};
  for (const auto& [x, y] : want) {
    const auto c = src.next();
    ASSERT_TRUE(c.has_value());
    EXPECT_EQ(c->x, x);
    EXPECT_EQ(c->y, y);
  }
  EXPECT_FALSE(src.next().has_value());
  EXPECT_EQ(src.issued(), 6u);
}

TEST(Scheduling, CtaRefillMatchesFunctionalResult) {
  // Retirement + slot respawn must be functionally invisible: a 2x2 grid
  // pulled through 2 resident slots (so two CTAs run in respawned slots)
  // produces bit-identical C to the functional executor.
  const auto cfg = core::HgemmConfig::optimized();
  const GemmShape s{512, 512, 64};
  const auto prog = core::hgemm_kernel(cfg, s);
  Rng rng(7);
  HalfMatrix a(s.m, s.k), bt(s.n, s.k);
  a.randomize(rng, -0.5f, 0.5f);
  bt.randomize(rng, -0.5f, 0.5f);

  auto setup = [&](driver::Device& dev, sim::Launch& launch) {
    auto da = dev.alloc<half>(a.size());
    auto db = dev.alloc<half>(bt.size());
    auto dc = dev.alloc<half>(s.m * s.n);
    dev.upload(da, std::span<const half>(a.data(), a.size()));
    dev.upload(db, std::span<const half>(bt.data(), bt.size()));
    launch.program = &prog;
    launch.grid_x = 2;
    launch.grid_y = 2;
    launch.params = {da.addr, db.addr, dc.addr};
    return dc;
  };

  driver::Device fdev(device::rtx2070());
  sim::Launch flaunch;
  const auto fc = setup(fdev, flaunch);
  fdev.launch(flaunch);
  std::vector<half> fhost(s.m * s.n);
  fdev.download(std::span<half>(fhost), fc);

  driver::Device tdev(device::rtx2070());
  sim::Launch tlaunch;
  const auto tc_ptr = setup(tdev, tlaunch);
  sim::TimedConfig tc;
  tc.spec = tdev.spec();
  sim::TimedSm sm(tc, tdev.gmem());  // full math: results must be real
  sim::CtaSource source(tlaunch);
  sm.begin(tlaunch, source, 2);
  while (sm.step()) {
  }
  sm.finish();
  std::vector<half> thost(s.m * s.n);
  tdev.download(std::span<half>(thost), tc_ptr);

  EXPECT_EQ(source.issued(), 4u);
  std::size_t mismatches = 0;
  for (std::size_t i = 0; i < fhost.size(); ++i) {
    if (fhost[i].bits() != thost[i].bits()) ++mismatches;
  }
  EXPECT_EQ(mismatches, 0u);
}

TEST(Scheduling, BarSyncSpansProcessingBlocks) {
  // 8 warps land on all 4 processing blocks (warp % 4). Each warp publishes
  // its id to shared memory, BAR.SYNCs, then reads its neighbour's slot —
  // correct results require the SM-wide barrier to gate warps in *different*
  // partitions, not just co-scheduled ones.
  sass::KernelBuilder b("xpartition_bar");
  b.threads(256);
  b.smem(32);
  b.s2r(sass::Reg{10}, sass::SpecialReg::kTidX).stall(13);
  b.shr(sass::Reg{11}, sass::Reg{10}, 5).stall(6);   // warp id
  b.shl(sass::Reg{12}, sass::Reg{11}, 2).stall(6);   // smem addr: warp*4
  b.sts(sass::MemWidth::k32, sass::Reg{12}, sass::Reg{11}).read_bar(0).stall(2);
  b.nop().wait_on(0).stall(1);
  b.bar_sync().stall(1);
  b.iadd_imm(sass::Reg{13}, sass::Reg{11}, 1).stall(6);
  b.land_imm(sass::Reg{13}, sass::Reg{13}, 7).stall(6);  // (warp+1) % 8
  b.shl(sass::Reg{14}, sass::Reg{13}, 2).stall(6);
  b.lds(sass::MemWidth::k32, sass::Reg{15}, sass::Reg{14}).write_bar(0).stall(2);
  b.mov_param(sass::Reg{16}, 0).stall(6);
  b.shl(sass::Reg{17}, sass::Reg{10}, 2).stall(6);
  b.iadd3(sass::Reg{18}, sass::Reg{17}, sass::Reg{16}).stall(6);
  b.nop().wait_on(0).stall(1);
  b.stg(sass::MemWidth::k32, sass::Reg{18}, sass::Reg{15}).stall(1);
  b.exit();
  const auto prog = b.finalize();

  driver::Device dev(device::rtx2070());
  auto out = dev.alloc<std::uint32_t>(256);
  sim::Launch launch;
  launch.program = &prog;
  launch.params = {out.addr};
  const sim::CtaCoord cta{0, 0};
  dev.run_timed(launch, std::span(&cta, 1), dev.timing_whole_device());
  std::vector<std::uint32_t> host(256);
  dev.download(std::span<std::uint32_t>(host), out);
  for (std::uint32_t tid = 0; tid < 256; ++tid) {
    EXPECT_EQ(host[tid], ((tid >> 5) + 1) & 7u) << "tid " << tid;
  }
}

TEST(Scheduling, ReuseFlagsHaveNoTimingEffect) {
  // Paper Section IV-C: "the register reuse flag has no impact".
  auto base = core::HgemmConfig::optimized();
  const GemmShape s{256, 256, 256};
  auto prog_plain = core::hgemm_kernel(base, s);
  auto prog_reuse = core::hgemm_kernel(base, s);
  for (auto& inst : prog_reuse.code) {
    if (sass::is_mma(inst.op)) inst.ctrl.reuse = 0xF;
  }

  auto run = [&](const sass::Program& prog) {
    mem::GlobalMemory gmem;
    sim::Launch launch;
    launch.program = &prog;
    launch.params = {gmem.alloc(s.m * s.k * 2), gmem.alloc(s.n * s.k * 2),
                     gmem.alloc(s.m * s.n * 2)};
    sim::TimedConfig tc;
    tc.spec = device::rtx2070();
    tc.skip_mma_math = true;
    sim::TimedSm sm(tc, gmem);
    const sim::CtaCoord cta{0, 0};
    return sm.run(launch, std::span(&cta, 1)).cycles;
  };
  EXPECT_EQ(run(prog_plain), run(prog_reuse));
}

/// The three ways to drive one TimedSm launch: step() every cycle (the
/// lockstep reference), TimedSm::run, and a driver that catches the SM up
/// with skip_to() before each step, as TimedDevice does.
enum class SmDriver { kLockstep, kRun, kSkipTo };

using testsupport::SmCase;

/// Everything one run reports: its counters, the attached profiler's
/// attribution, the probe's final register snapshots, and every buffer.
struct SmRecord {
  prof::CounterSet counters;
  prof::Profiler profiler;
  std::vector<sim::WarpSnapshot> snaps;
  std::vector<std::vector<std::uint8_t>> buffers;
};

/// Runs `c` with full math on per-SM bandwidth shares and a forced L2 hit
/// rate, so the SM's private buckets refill through every skipped stretch.
/// `observe` attaches a Profiler and a StateProbe.
SmRecord run_sm_case(const SmCase& c, const device::DeviceSpec& spec, SmDriver driver,
                     bool observe) {
  mem::GlobalMemory gmem;
  const sim::Launch launch = testsupport::make_launch(c, gmem);

  SmRecord rec;
  sim::StateProbe probe;
  probe.set_num_regs(c.prog.num_regs);
  sim::TimedConfig tc;
  tc.spec = spec;
  tc.dram_bytes_per_cycle = spec.dram_bytes_per_cycle_per_sm();
  tc.l2_bytes_per_cycle = spec.l2_bytes_per_cycle_per_sm();
  tc.forced_l2_hit_rate = 0.5;
  if (observe) {
    tc.profiler = &rec.profiler;
    tc.probe = &probe;
  }
  sim::TimedSm sm(tc, gmem);
  sim::CtaSource source(launch);
  if (driver == SmDriver::kRun) {
    std::vector<sim::CtaCoord> ctas;
    while (const auto cta = source.next()) ctas.push_back(*cta);
    rec.counters = sm.run(launch, ctas);
  } else {
    sm.begin(launch, source, c.resident);
    if (driver == SmDriver::kLockstep) {
      while (sm.step()) {
      }
    } else {
      do {
        sm.skip_to(sm.idle_until());
      } while (sm.step());
    }
    EXPECT_EQ(source.issued(), launch.num_ctas());
    rec.counters = sm.finish();
  }
  rec.snaps = probe.sorted();
  for (std::size_t i = 0; i < c.param_bytes.size(); ++i) {
    rec.buffers.emplace_back(c.param_bytes[i]);
    gmem.read(launch.params[i], rec.buffers.back());
  }
  return rec;
}

void expect_same_record(const SmRecord& a, const SmRecord& b) {
  testsupport::expect_same_counters(a.counters, b.counters);
  testsupport::expect_same_attribution(a.profiler, b.profiler);
  ASSERT_EQ(a.snaps.size(), b.snaps.size());
  for (std::size_t i = 0; i < a.snaps.size(); ++i) {
    EXPECT_EQ(a.snaps[i].cta_x, b.snaps[i].cta_x);
    EXPECT_EQ(a.snaps[i].cta_y, b.snaps[i].cta_y);
    EXPECT_EQ(a.snaps[i].cta_z, b.snaps[i].cta_z);
    EXPECT_EQ(a.snaps[i].warp_in_cta, b.snaps[i].warp_in_cta);
    EXPECT_TRUE(a.snaps[i].gprs == b.snaps[i].gprs) << "registers of snapshot " << i;
    EXPECT_TRUE(a.snaps[i].preds == b.snaps[i].preds) << "predicates of snapshot " << i;
  }
  EXPECT_TRUE(a.buffers == b.buffers) << "global memory differs";
}

TEST(Scheduling, EventSkipMatchesSteppingEveryCycle) {
  // TimedSm::run and a skip_to() driver leave idle stretches unsimulated;
  // both must report exactly what stepping every cycle reports, for every
  // kernel_gen kernel on both specs.
  const std::vector<SmCase> cases = testsupport::kernel_gen_cases();
  for (const auto& spec : {device::rtx2070(), device::t4()}) {
    for (const SmCase& c : cases) {
      SCOPED_TRACE(c.name + " on " + spec.name);
      const SmRecord lockstep = run_sm_case(c, spec, SmDriver::kLockstep, true);
      ASSERT_GT(lockstep.counters.instructions, 0u);
      {
        SCOPED_TRACE("skip_to driver");
        expect_same_record(lockstep, run_sm_case(c, spec, SmDriver::kSkipTo, true));
      }
      {
        SCOPED_TRACE("skip_to driver, nothing attached");
        const SmRecord bare = run_sm_case(c, spec, SmDriver::kSkipTo, false);
        testsupport::expect_same_counters(lockstep.counters, bare.counters);
        EXPECT_TRUE(lockstep.buffers == bare.buffers) << "global memory differs";
      }
      // run() takes a fixed resident set, so it covers the cases without refill.
      if (static_cast<std::uint64_t>(c.resident) == std::uint64_t{c.grid_x} * c.grid_y * c.grid_z) {
        SCOPED_TRACE("TimedSm::run");
        expect_same_record(lockstep, run_sm_case(c, spec, SmDriver::kRun, true));
      }
    }
  }
}

TEST(Scheduling, ReusedSmStartsLikeAFreshOne) {
  // begin() builds the L1 tags and a standalone SM's memory system afresh,
  // so a second run on one TimedSm reports what a fresh SM reports.
  // cublas_like at T4's per-SM share with an emergent L2 runs into
  // bandwidth debt and leaves L1 and L2 tags behind, any of which would
  // carry over into the second run.
  const SmCase c = testsupport::kernel_gen_cases()[1];
  ASSERT_EQ(c.name, "cublas_like");
  const auto spec = device::t4();
  mem::GlobalMemory gmem;
  const sim::Launch launch = testsupport::make_launch(c, gmem);
  sim::TimedConfig tc;
  tc.spec = spec;
  tc.dram_bytes_per_cycle = spec.dram_bytes_per_cycle_per_sm();
  tc.l2_bytes_per_cycle = spec.l2_bytes_per_cycle_per_sm();
  const auto run = [&](sim::TimedSm& sm) {
    sim::CtaSource source(launch);
    sm.begin(launch, source, c.resident);
    do {
      sm.skip_to(sm.idle_until());
    } while (sm.step());
    return sm.finish();
  };
  sim::TimedSm fresh(tc, gmem);
  const prof::CounterSet want = run(fresh);
  EXPECT_GT(want.mio_bw_stall, 0u);
  EXPECT_GT(want.l1_sectors, 0u);
  sim::TimedSm reused(tc, gmem);
  (void)run(reused);
  testsupport::expect_same_counters(run(reused), want);
}

TEST(Scheduling, EventSkipReplaysWritebacksAtTheirDueCycles) {
  // A load into R4, then a MOV to R4 that is due hundreds of cycles before
  // the load's data. The warp waits at the scoreboard in between, so lockstep
  // settles it every cycle: the MOV lands first and the load overwrites it.
  // The wait is an idle stretch the engine skips; committing both writes
  // only when the warp next wakes would land them in scheduling order and
  // store the MOV's value instead.
  sass::KernelBuilder b("waw_across_skip");
  b.threads(32);
  b.mov_param(sass::Reg{10}, 0).stall(1);
  b.mov_param(sass::Reg{11}, 1).stall(13);
  b.s2r(sass::Reg{12}, sass::SpecialReg::kLaneId).stall(13);
  b.shl(sass::Reg{13}, sass::Reg{12}, 2).stall(6);
  b.iadd3(sass::Reg{14}, sass::Reg{13}, sass::Reg{10}).stall(6);  // in + lane*4
  b.iadd3(sass::Reg{15}, sass::Reg{13}, sass::Reg{11}).stall(6);  // out + lane*4
  b.ldg(sass::MemWidth::k32, sass::Reg{4}, sass::Reg{14}).write_bar(0).stall(2);
  b.mov_imm(sass::Reg{4}, 0x600DF00Du).stall(1);
  b.nop().wait_on(0).stall(1);
  b.stg(sass::MemWidth::k32, sass::Reg{15}, sass::Reg{4}).stall(1);
  b.exit();
  const SmCase c{"waw_across_skip", b.finalize(), 1, 1, 1, 1, {32 * 4, 32 * 4}};
  for (const auto driver : {SmDriver::kLockstep, SmDriver::kRun, SmDriver::kSkipTo}) {
    SCOPED_TRACE(static_cast<int>(driver));
    const SmRecord rec = run_sm_case(c, device::rtx2070(), driver, false);
    EXPECT_TRUE(rec.buffers[1] == rec.buffers[0]) << "the MOV's value was stored";
  }
}

TEST(Scheduling, MaxCyclesStopsARunawayKernelAtTheLimit) {
  // max_cycles is the livelock guard. A kernel that never exits fails with
  // the same error at the same cycle whether its idle stretches are skipped
  // or stepped; skip_to stops at the limit even inside a stall window. The
  // limits sweep one loop period, so some fall inside a skipped stretch.
  sass::KernelBuilder b("runaway");
  b.threads(32);
  b.label("spin");
  b.nop().stall(15);
  b.bra("spin").stall(5);
  b.exit();
  const auto prog = b.finalize();
  mem::GlobalMemory gmem;
  sim::Launch launch;
  launch.program = &prog;
  sim::TimedConfig tc;
  tc.spec = device::rtx2070();
  for (std::uint64_t limit = 3000; limit < 3025; ++limit) {
    tc.max_cycles = limit;
    for (const auto driver : {SmDriver::kLockstep, SmDriver::kSkipTo, SmDriver::kRun}) {
      SCOPED_TRACE("limit " + std::to_string(limit) + ", driver " +
                   std::to_string(static_cast<int>(driver)));
      sim::TimedSm sm(tc, gmem);
      sim::CtaSource source(launch);
      try {
        if (driver == SmDriver::kRun) {
          const sim::CtaCoord cta{0, 0};
          (void)sm.run(launch, std::span(&cta, 1));
        } else {
          sm.begin(launch, source, 1);
          if (driver == SmDriver::kLockstep) {
            while (sm.step()) {
            }
          } else {
            do {
              sm.skip_to(sm.idle_until());
            } while (sm.step());
          }
        }
        ADD_FAILURE() << "a kernel that never exits ran to completion";
      } catch (const Error& e) {
        EXPECT_NE(std::string(e.what()).find("max_cycles"), std::string::npos) << e.what();
      }
      EXPECT_EQ(sm.now(), limit);
    }
  }
}

}  // namespace
}  // namespace tc
