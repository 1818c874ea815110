// Profiler subsystem (src/prof): counter exactness on hand-built kernels,
// zero-perturbation of the timing engine, trace output sanity, and the
// cross-check between counter-observed pipe cycles and the paper's analytic
// blocking model (Table VI) that motivates the whole subsystem.
#include <gtest/gtest.h>

#include <bit>
#include <sstream>
#include <vector>

#include "check/fuzz.hpp"
#include "core/profile.hpp"
#include "device/spec.hpp"
#include "driver/device.hpp"
#include "mem/global_mem.hpp"
#include "model/blocking.hpp"
#include "prof/profiler.hpp"
#include "prof/trace.hpp"
#include "sass/builder.hpp"
#include "sim/timed_sm.hpp"
#include "support/fnv1a.hpp"
#include "support/kernel_cases.hpp"
#include "support/timed_results.hpp"

namespace tc {
namespace {

/// One warp, one CTA, full-device bandwidth, profiler attached.
prof::CounterSet run_program(const sass::Program& prog, prof::Profiler* profiler,
                            prof::TraceWriter* trace = nullptr) {
  if (profiler != nullptr) profiler->attach_trace(trace);
  mem::GlobalMemory gmem;
  sim::Launch launch;
  launch.program = &prog;
  sim::TimedConfig tc;
  tc.spec = device::rtx2070();
  tc.profiler = profiler;
  sim::TimedSm sm(tc, gmem);
  const sim::CtaCoord cta{0, 0};
  return sm.run(launch, std::span(&cta, 1));
}

sass::Program hmma_chain(int n) {
  sass::KernelBuilder b("hmma_chain");
  b.threads(32);
  for (int i = 0; i < n; ++i) {
    b.hmma_1688_f16(sass::Reg{8}, sass::Reg{2}, sass::Reg{4}, sass::RZ).stall(8);
  }
  b.exit();
  return b.finalize();
}

}  // namespace

TEST(Prof, TensorIssueCyclesAreExactly8PerHmma) {
  // HMMA.1688 occupies the tensor pipe for 8 cycles (Table I); N HMMAs must
  // be counted as exactly 8N busy cycles — the counter is causal, not
  // sampled.
  const int n = 17;
  const auto prog = hmma_chain(n);
  prof::Profiler p;
  const auto c = run_program(prog, &p);
  EXPECT_EQ(c.tensor_busy, 8u * n);
  EXPECT_EQ(c.pipe_issue[prof::kPipeTensor], static_cast<std::uint64_t>(n));
}

TEST(Prof, CounterFoldAddsCountsAndTakesTheMaxOfMarks) {
  // operator+= is how TimedDevice folds its SMs: every count adds, while
  // cycles and the two high-water marks take the max.
  prof::CounterSet a;
  a.cycles = 100;
  a.instructions = 10;
  a.pipe_issue = {1, 2, 3, 4, 5, 6};
  a.tensor_busy = 11;
  a.fma_busy = 12;
  a.alu_busy = 13;
  a.mio_busy = 14;
  a.l2_port_busy_cycles = 1.5;
  a.mio_bw_stall = 15;
  a.ldg_count = 16;
  a.stg_count = 17;
  a.lds_count = 18;
  a.sts_count = 19;
  a.ldg_bytes = 20;
  a.stg_bytes = 21;
  a.lds_bytes = 22;
  a.sts_bytes = 23;
  a.smem_beats = 24;
  a.smem_phases = 25;
  a.l1_sectors = 26;
  a.l2_sectors = 27;
  a.dram_sectors = 28;
  a.l1_bytes = 29.0;
  a.l2_bytes = 30.0;
  a.dram_bytes = 31.0;
  a.mshr_highwater = 7;
  a.mio_queue_highwater = 3;
  a.sched = {{40, 60}, {41, 59}};
  prof::CounterSet b = a;
  b.cycles = 80;
  b.mshr_highwater = 9;
  b.mio_queue_highwater = 2;

  prof::CounterSet fold;
  fold += a;
  fold += b;
  prof::CounterSet want = a;
  want.instructions = 20;
  want.pipe_issue = {2, 4, 6, 8, 10, 12};
  want.tensor_busy = 22;
  want.fma_busy = 24;
  want.alu_busy = 26;
  want.mio_busy = 28;
  want.l2_port_busy_cycles = 3.0;
  want.mio_bw_stall = 30;
  want.ldg_count = 32;
  want.stg_count = 34;
  want.lds_count = 36;
  want.sts_count = 38;
  want.ldg_bytes = 40;
  want.stg_bytes = 42;
  want.lds_bytes = 44;
  want.sts_bytes = 46;
  want.smem_beats = 48;
  want.smem_phases = 50;
  want.l1_sectors = 52;
  want.l2_sectors = 54;
  want.dram_sectors = 56;
  want.l1_bytes = 58.0;
  want.l2_bytes = 60.0;
  want.dram_bytes = 62.0;
  want.mshr_highwater = 9;
  want.sched = {{80, 120}, {82, 118}};
  testsupport::expect_same_counters(fold, want);
}

TEST(Prof, TwoWayBankConflictCountsOneReplayPerLds) {
  // Lane i reads shared address 8*i: lanes i and i+16 hit the same bank in
  // different 4-byte words -> every LDS.32 needs 2 beats for 1 phase, i.e.
  // exactly one replay per instruction.
  const int n = 9;
  sass::KernelBuilder b("lds_conflict");
  b.threads(32);
  b.smem(512);
  b.s2r(sass::Reg{4}, sass::SpecialReg::kLaneId).stall(13);
  b.shl(sass::Reg{5}, sass::Reg{4}, 3).stall(6);
  for (int i = 0; i < n; ++i) {
    b.lds(sass::MemWidth::k32, sass::Reg{6}, sass::Reg{5}).write_bar(0).stall(1);
  }
  b.nop().wait_on(0).stall(1);
  b.exit();
  const auto prog = b.finalize();

  prof::Profiler p;
  const auto c = run_program(prog, &p);
  EXPECT_EQ(c.lds_count, static_cast<std::uint64_t>(n));
  EXPECT_EQ(c.smem_beats - c.smem_phases, static_cast<std::uint64_t>(n));
  EXPECT_EQ(c.smem_phases, static_cast<std::uint64_t>(n));
}

TEST(Prof, ConflictFreeLdsCountsZeroReplays) {
  sass::KernelBuilder b("lds_clean");
  b.threads(32);
  b.smem(256);
  b.s2r(sass::Reg{4}, sass::SpecialReg::kLaneId).stall(13);
  b.shl(sass::Reg{5}, sass::Reg{4}, 2).stall(6);  // lane i -> bank i
  b.lds(sass::MemWidth::k32, sass::Reg{6}, sass::Reg{5}).write_bar(0).stall(1);
  b.nop().wait_on(0).stall(1);
  b.exit();
  prof::Profiler p;
  const auto c = run_program(b.finalize(), &p);
  EXPECT_EQ(c.smem_beats, c.smem_phases);
}

TEST(Prof, AttachingProfilerDoesNotPerturbTiming) {
  // A profiled run is cycle-identical to an unprofiled one and returns the
  // same counters. Use the real HGEMM surrogate so every hook site (issue,
  // MIO, smem, MSHR, barriers) is exercised.
  const auto spec = device::rtx2070();
  const auto cfg = core::HgemmConfig::optimized();
  core::SurrogateOptions opt;
  opt.iterations = 3;
  opt.l2_hit_rate = 0.5;
  const auto plain = core::run_steady_surrogate(spec, cfg, 1, opt);

  prof::Profiler p;
  opt.profiler = &p;
  const auto profiled = core::run_steady_surrogate(spec, cfg, 1, opt);

  testsupport::expect_same_counters(plain, profiled);
}

TEST(Prof, SchedulerAccountingIsComplete) {
  // Every partition gets exactly one scheduler verdict per cycle, and the
  // issue verdicts sum to the instruction count.
  const auto spec = device::rtx2070();
  const auto cfg = core::HgemmConfig::optimized();
  core::SurrogateOptions opt;
  opt.iterations = 3;
  opt.l2_hit_rate = 0.5;
  prof::Profiler p;
  opt.profiler = &p;
  const auto c = core::run_steady_surrogate(spec, cfg, 1, opt);

  ASSERT_EQ(c.sched.size(), 4u);
  std::uint64_t issued = 0;
  for (std::size_t i = 0; i < c.sched.size(); ++i) {
    const auto& s = c.sched[i];
    EXPECT_EQ(s.issue_cycles + s.idle_cycles, c.cycles);
    std::uint64_t attributed = 0;
    for (const auto r : p.idle_by_reason(static_cast<int>(i))) attributed += r;
    EXPECT_EQ(attributed, s.idle_cycles);
    issued += s.issue_cycles;
  }
  EXPECT_EQ(issued, c.instructions);
}

TEST(Prof, HotPcTableIsSortedAndBounded) {
  const auto spec = device::rtx2070();
  core::SurrogateOptions opt;
  opt.iterations = 3;
  opt.l2_hit_rate = 0.5;
  prof::Profiler p;
  opt.profiler = &p;
  const auto c = core::run_steady_surrogate(spec, core::HgemmConfig::optimized(), 1, opt);

  const auto hot = p.hot_pcs(10);
  ASSERT_FALSE(hot.empty());
  EXPECT_LE(hot.size(), 10u);
  for (std::size_t i = 1; i < hot.size(); ++i) {
    EXPECT_GE(hot[i - 1].stall_cycles, hot[i].stall_cycles);
  }
  // The report renders without touching the (destroyed) Program.
  std::ostringstream os;
  p.print_report(os, c, 10);
  EXPECT_NE(os.str().find("pipe"), std::string::npos);
  EXPECT_NE(os.str().find("hot instructions"), std::string::npos);
}

TEST(Prof, TraceWriterEmitsChromeTraceJson) {
  const auto prog = hmma_chain(5);
  prof::Profiler p;
  prof::TraceWriter trace;
  run_program(prog, &p, &trace);

  std::ostringstream os;
  trace.write(os);
  const std::string s = os.str();
  EXPECT_EQ(s.front(), '{');
  EXPECT_NE(s.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(s.find("\"thread_name\""), std::string::npos);   // track metadata
  EXPECT_NE(s.find("\"HMMA.1688.F16\""), std::string::npos); // pipe events
  EXPECT_NE(s.find("\"ph\":\"X\""), std::string::npos);      // complete events
  // Balanced braces/brackets => structurally sound JSON.
  long depth = 0;
  for (const char ch : s) {
    if (ch == '{' || ch == '[') ++depth;
    if (ch == '}' || ch == ']') --depth;
    ASSERT_GE(depth, 0);
  }
  EXPECT_EQ(depth, 0);
}

TEST(Prof, ObservedPipeCyclesMatchBlockingModel) {
  // The tentpole cross-check: the counters must *observe* what Table VI
  // *derives*. Tensor cycles per CTA-iteration are deterministic (HMMA count
  // x CPI 8 vs the paper's measured 8.06); memory-IO cycles fold MIO pipe
  // occupancy plus L2-port serialization and land within modeling tolerance
  // of Eq. (4) + Eq. (5).
  const auto spec = device::rtx2070();
  const auto obs_opt = core::observe_pipe_cycles(spec, core::HgemmConfig::optimized());
  const auto obs_cub = core::observe_pipe_cycles(spec, core::HgemmConfig::cublas_like());

  const model::CpiSet cpi;  // paper values
  const model::BlockConfig bc_opt{256, 256, 32, 128, 64, 8};
  const model::BlockConfig bc_cub{128, 128, 64, 64, 64, 8};

  EXPECT_NEAR(obs_opt.tensor_cycles / model::hmma_cycles(bc_opt, cpi), 1.0, 0.05);
  EXPECT_NEAR(obs_cub.tensor_cycles / model::hmma_cycles(bc_cub, cpi), 1.0, 0.05);
  EXPECT_NEAR(obs_opt.memio_cycles / model::memio_cycles(bc_opt, cpi), 1.0, 0.35);
  EXPECT_NEAR(obs_cub.memio_cycles / model::memio_cycles(bc_cub, cpi), 1.0, 0.35);

  // Section VI-A's conclusion, observed rather than derived: the optimized
  // blocking keeps the tensor pipe the bottleneck; the cuBLAS-like blocking
  // is memory-IO bound.
  EXPECT_GT(obs_opt.tensor_cycles, obs_opt.memio_cycles);
  EXPECT_GT(obs_cub.memio_cycles, obs_cub.tensor_cycles);
}

TEST(Prof, CublasLikeKernelHasHigherMioUtilization) {
  // Acceptance check from the issue: observed MIO utilization must rank the
  // cuBLAS-like kernel above the optimized one.
  const auto spec = device::rtx2070();
  const auto obs_opt = core::observe_pipe_cycles(spec, core::HgemmConfig::optimized());
  const auto obs_cub = core::observe_pipe_cycles(spec, core::HgemmConfig::cublas_like());
  EXPECT_GT(obs_cub.mio_util, obs_opt.mio_util);
  EXPECT_GT(obs_opt.tensor_util, obs_cub.tensor_util);
}

TEST(Prof, ProfileHgemmReportsSteadyStateCounters) {
  const auto spec = device::rtx2070();
  prof::TraceWriter trace;
  const auto hp = core::profile_hgemm(spec, core::HgemmConfig::optimized(), {1024, 1024, 1024},
                                      &trace);
  EXPECT_EQ(hp.iterations, 32);  // k / bk
  EXPECT_GT(hp.counters.cycles, 0u);
  EXPECT_GT(hp.counters.utilization(prof::kPipeTensor, hp.profiler.partitions()), 0.5);
  std::ostringstream os;
  trace.write(os);
  EXPECT_GT(os.str().size(), 1000u);
}

TEST(Prof, StallAttributionIsPinned) {
  // Pins every number the timed engine's per-warp eligibility check feeds
  // the profiler: per-pipe issue and busy cycles, each scheduler's issue,
  // idle and idle-by-reason cycles, and the hot-PC table (issues, stall
  // cycles and the dominant reason per PC). k = 128 keeps the surrogate
  // short: 4 main-loop iterations for optimized (bk 32), 2 for cublas_like.
  struct Pin {
    device::DeviceSpec spec;
    core::HgemmConfig cfg;
    const char* name;
    std::uint64_t hash;
  };
  const auto opt = core::HgemmConfig::optimized();
  const auto cub = core::HgemmConfig::cublas_like();
  const std::vector<Pin> pins = {
      {device::rtx2070(), opt, "rtx2070/optimized", 0x4BAB769CAF00E035ull},
      {device::rtx2070(), cub, "rtx2070/cublas_like", 0x0FCD81986EF1AC56ull},
      {device::t4(), opt, "t4/optimized", 0x54A1FB2A3AB1B65Cull},
      {device::t4(), cub, "t4/cublas_like", 0xAD3E5167A2FB603Dull},
  };
  for (const auto& pin : pins) {
    const auto hp = core::profile_hgemm(pin.spec, pin.cfg, {1024, 1024, 128});
    const auto& c = hp.counters;
    ASSERT_EQ(c.sched.size(), 4u) << pin.name;
    std::vector<std::uint64_t> words = {c.cycles, c.instructions};
    words.insert(words.end(), c.pipe_issue.begin(), c.pipe_issue.end());
    for (int pipe = 0; pipe < prof::kNumPipes; ++pipe) words.push_back(c.busy_cycles(pipe));
    for (std::size_t i = 0; i < c.sched.size(); ++i) {
      words.push_back(c.sched[i].issue_cycles);
      words.push_back(c.sched[i].idle_cycles);
      const auto& idle = hp.profiler.idle_by_reason(static_cast<int>(i));
      words.insert(words.end(), idle.begin(), idle.end());
    }
    for (const auto& h : hp.profiler.hot_pcs(16)) {
      words.push_back(static_cast<std::uint64_t>(h.pc));
      words.push_back(h.issued);
      words.push_back(h.stall_cycles);
      words.push_back(static_cast<std::uint64_t>(h.dominant));
      words.push_back(h.dominant_cycles);
    }
    const std::uint64_t hash = testsupport::fnv1a_words(words);
    EXPECT_EQ(hash, pin.hash) << pin.name << " hashed 0x" << std::hex << std::uppercase << hash;
  }
}


TEST(Prof, CountersArePinned) {
  // Pins every count a timed run reports, with and without a Profiler, and
  // the Profiler's attribution when one is attached: testsupport::pinned_words
  // of each run, hashed per group. TimedSm::run covers every kernel_gen kernel
  // on both specs (full math, per-SM bandwidth shares, forced L2 hits);
  // TimedDevice covers optimized and cublas_like grids on both specs with
  // the emergent and a forced L2 (every per-SM entry and the total); the
  // fuzz group runs 200 generated programs with a Profiler attached.
  const auto hash_of = [](const std::vector<std::uint64_t>& words) {
    return testsupport::fnv1a_words(words);
  };

  std::vector<std::uint64_t> sm_words;
  for (const auto& spec : {device::rtx2070(), device::t4()}) {
    for (const testsupport::SmCase& c : testsupport::kernel_gen_cases()) {
      for (const bool profiled : {false, true}) {
        mem::GlobalMemory gmem;
        const sim::Launch launch = testsupport::make_launch(c, gmem);
        prof::Profiler profiler;
        sim::TimedConfig tc;
        tc.spec = spec;
        tc.dram_bytes_per_cycle = spec.dram_bytes_per_cycle_per_sm();
        tc.l2_bytes_per_cycle = spec.l2_bytes_per_cycle_per_sm();
        tc.forced_l2_hit_rate = 0.5;
        if (profiled) tc.profiler = &profiler;
        std::vector<sim::CtaCoord> ctas;
        sim::CtaSource source(launch);
        while (const auto cta = source.next()) ctas.push_back(*cta);
        sim::TimedSm sm(tc, gmem);
        const auto counts = sm.run(launch, ctas);
        const auto w = testsupport::pinned_words(counts, profiled ? &profiler : nullptr);
        sm_words.insert(sm_words.end(), w.begin(), w.end());
      }
    }
  }

  std::vector<std::uint64_t> device_words;
  for (const auto& spec : {device::rtx2070(), device::t4()}) {
    for (const bool cublas : {false, true}) {
      const auto cfg =
          cublas ? core::HgemmConfig::cublas_like() : core::HgemmConfig::optimized();
      const GemmShape shape = cublas ? GemmShape{256, 1024, 128} : GemmShape{512, 1024, 64};
      const sass::Program prog = core::hgemm_kernel(cfg, shape);
      for (const double forced_l2 : {-1.0, 0.5}) {
        driver::Device dev(spec);
        sim::Launch launch;
        launch.program = &prog;
        launch.grid_x = static_cast<std::uint32_t>(shape.n / static_cast<std::size_t>(cfg.bn));
        launch.grid_y = static_cast<std::uint32_t>(shape.m / static_cast<std::size_t>(cfg.bm));
        launch.params = {dev.alloc<half>(shape.m * shape.k).addr,
                         dev.alloc<half>(shape.n * shape.k).addr,
                         dev.alloc<half>(shape.m * shape.n).addr};
        sim::TimedDeviceConfig dc = dev.timed_full_device(cublas ? 2 : 1);
        dc.skip_mma_math = true;
        dc.forced_l2_hit_rate = forced_l2;
        const sim::DeviceResult dr = dev.run_timed_device(launch, dc);
        device_words.insert(device_words.end(),
                            {dr.device_cycles, std::bit_cast<std::uint64_t>(dr.l2_hit_rate),
                             dr.ctas_run, static_cast<std::uint64_t>(dr.sms_used)});
        for (const auto& per_sm : dr.per_sm) {
          const auto w = testsupport::pinned_words(per_sm, nullptr);
          device_words.insert(device_words.end(), w.begin(), w.end());
        }
        const auto w = testsupport::pinned_words(dr.total, nullptr);
        device_words.insert(device_words.end(), w.begin(), w.end());
      }
    }
  }

  std::vector<std::uint64_t> fuzz_words;
  for (std::uint64_t seed = 1; seed <= 200; ++seed) {
    const check::FuzzCase fc = check::generate_case(seed, check::FuzzOptions{});
    mem::GlobalMemory gmem;
    sim::Launch launch;
    launch.program = &fc.prog;
    launch.params = {gmem.alloc(fc.in_bytes), gmem.alloc(fc.out_bytes)};
    gmem.write(launch.params[0], std::span(fc.in_data));
    prof::Profiler profiler;
    sim::TimedConfig tc;
    tc.spec = device::rtx2070();
    tc.dram_bytes_per_cycle = tc.spec.dram_bytes_per_cycle_per_sm();
    tc.l2_bytes_per_cycle = tc.spec.l2_bytes_per_cycle_per_sm();
    tc.forced_l2_hit_rate = 0.3;
    tc.max_cycles = 200'000;
    tc.profiler = &profiler;
    sim::TimedSm sm(tc, gmem);
    const sim::CtaCoord cta{0, 0};
    const auto counts = sm.run(launch, std::span(&cta, 1));
    const auto w = testsupport::pinned_words(counts, &profiler);
    fuzz_words.insert(fuzz_words.end(), w.begin(), w.end());
  }

  struct Pin {
    const char* name;
    std::uint64_t hash;
    std::uint64_t want;
  };
  for (const Pin& pin : {Pin{"TimedSm::run", hash_of(sm_words), 0xCF61A4543045F62Full},
                         Pin{"TimedDevice", hash_of(device_words), 0xDE68620B53641FC8ull},
                         Pin{"fuzz", hash_of(fuzz_words), 0xA43310E0B30CC1BFull}}) {
    EXPECT_EQ(pin.hash, pin.want) << pin.name << " hashed 0x" << std::hex << std::uppercase
                                  << pin.hash;
  }
}

}  // namespace tc
