// Functional-executor tests: small hand-written SASS programs, then the full
// HGEMM kernels against the bit-exact Tensor Core reference.
#include <gtest/gtest.h>

#include "common/rng.hpp"
#include "core/hgemm.hpp"
#include "core/kernel_gen.hpp"
#include "core/reference.hpp"
#include "driver/device.hpp"
#include "sass/builder.hpp"
#include "sim/engine.hpp"
#include "sim/functional.hpp"

namespace tc {
namespace {

using sass::CmpOp;
using sass::KernelBuilder;
using sass::MemWidth;
using sass::Pred;
using sass::Reg;
using sass::SpecialReg;

driver::Device make_device() { return driver::Device(device::rtx2070()); }

TEST(Functional, TidAndParamPlumbing) {
  // out[tid] = tid * 3 + param.
  KernelBuilder b("plumb");
  b.threads(64);
  b.s2r(Reg{0}, SpecialReg::kTidX);
  b.mov_param(Reg{1}, 0);  // out base
  b.mov_param(Reg{2}, 1);  // addend
  b.imad_imm(Reg{3}, Reg{0}, 3, Reg{2});
  b.shl(Reg{4}, Reg{0}, 2);
  b.iadd3(Reg{4}, Reg{4}, Reg{1});
  b.stg(MemWidth::k32, Reg{4}, Reg{3});
  b.exit();
  const auto prog = b.finalize();

  auto dev = make_device();
  auto out = dev.alloc<std::uint32_t>(64);
  sim::Launch launch;
  launch.program = &prog;
  launch.params = {out.addr, 1000};
  dev.launch(launch);

  std::vector<std::uint32_t> host(64);
  dev.download(std::span(host.data(), host.size()), out);
  for (std::uint32_t t = 0; t < 64; ++t) EXPECT_EQ(host[t], t * 3 + 1000);
}

TEST(Functional, LoopAndPredication) {
  // out[tid] = sum over i<10 of (tid + i); even tids only.
  KernelBuilder b("loop");
  b.threads(32);
  b.s2r(Reg{0}, SpecialReg::kTidX);
  b.mov_param(Reg{1}, 0);
  b.mov_imm(Reg{2}, 0);   // acc
  b.mov_imm(Reg{3}, 0);   // i
  b.label("top");
  b.iadd3(Reg{4}, Reg{0}, Reg{3});
  b.iadd3(Reg{2}, Reg{2}, Reg{4});
  b.iadd_imm(Reg{3}, Reg{3}, 1);
  b.isetp_imm(Pred{0}, CmpOp::kLt, Reg{3}, 10);
  b.bra("top").pred(Pred{0});
  b.land_imm(Reg{5}, Reg{0}, 1);
  b.isetp_imm(Pred{1}, CmpOp::kEq, Reg{5}, 0);
  b.shl(Reg{6}, Reg{0}, 2);
  b.iadd3(Reg{6}, Reg{6}, Reg{1});
  b.stg(MemWidth::k32, Reg{6}, Reg{2}).pred(Pred{1});
  b.exit();
  const auto prog = b.finalize();

  auto dev = make_device();
  auto out = dev.alloc<std::uint32_t>(32);
  sim::Launch launch;
  launch.program = &prog;
  launch.params = {out.addr};
  dev.launch(launch);

  std::vector<std::uint32_t> host(32);
  dev.download(std::span(host.data(), host.size()), out);
  for (std::uint32_t t = 0; t < 32; ++t) {
    const std::uint32_t want = t % 2 == 0 ? 10 * t + 45 : 0;
    EXPECT_EQ(host[t], want) << "tid " << t;
  }
}

TEST(Functional, SharedMemoryBarrierAcrossWarps) {
  // Warp 0 stores tid*7 to smem; after BAR.SYNC warp 1 reads it back out.
  KernelBuilder b("smem_bar");
  b.threads(64);
  b.smem(256);
  b.s2r(Reg{0}, SpecialReg::kTidX);
  b.mov_param(Reg{1}, 0);
  b.land_imm(Reg{2}, Reg{0}, 31);  // lane
  b.shl(Reg{3}, Reg{2}, 2);        // lane*4
  b.isetp_imm(Pred{0}, CmpOp::kLt, Reg{0}, 32);  // warp 0
  b.imad_imm(Reg{4}, Reg{0}, 7, sass::RZ);
  b.sts(MemWidth::k32, Reg{3}, Reg{4}).pred(Pred{0});
  b.bar_sync();
  b.isetp_imm(Pred{1}, CmpOp::kGe, Reg{0}, 32);  // warp 1
  b.lds(MemWidth::k32, Reg{5}, Reg{3});
  b.write_bar(0).stall(1);
  b.shl(Reg{6}, Reg{2}, 2).wait_on(0);
  b.iadd3(Reg{6}, Reg{6}, Reg{1});
  b.stg(MemWidth::k32, Reg{6}, Reg{5}).pred(Pred{1});
  b.exit();
  const auto prog = b.finalize();

  auto dev = make_device();
  auto out = dev.alloc<std::uint32_t>(32);
  sim::Launch launch;
  launch.program = &prog;
  launch.params = {out.addr};
  dev.launch(launch);

  std::vector<std::uint32_t> host(32);
  dev.download(std::span(host.data(), host.size()), out);
  for (std::uint32_t l = 0; l < 32; ++l) EXPECT_EQ(host[l], l * 7);
}

TEST(Functional, DivergentBranchRejected) {
  KernelBuilder b("diverge");
  b.threads(32);
  b.s2r(Reg{0}, SpecialReg::kTidX);
  b.isetp_imm(Pred{0}, CmpOp::kLt, Reg{0}, 16);
  b.label("x");
  b.bra("x").pred(Pred{0});  // half the warp branches: unsupported
  b.exit();
  const auto prog = b.finalize();
  auto dev = make_device();
  sim::Launch launch;
  launch.program = &prog;
  EXPECT_THROW(dev.launch(launch), Error);
}

TEST(Functional, RunawayLoopGuard) {
  KernelBuilder b("forever");
  b.threads(32);
  b.label("x");
  b.bra("x");
  b.exit();
  const auto prog = b.finalize();
  auto dev = make_device();
  sim::Launch launch;
  launch.program = &prog;
  sim::FunctionalExecutor exec(dev.gmem());
  EXPECT_THROW(exec.run(launch, /*max_warp_instructions=*/10000), Error);
}

TEST(Functional, RunawayLoopGuardSpansBarriers) {
  // The instruction budget is per warp over its whole lifetime, not per
  // barrier-to-barrier stretch: an infinite loop whose body contains a
  // BAR.SYNC re-enters the executor's inner stretch each iteration and must
  // still trip the guard instead of spinning forever.
  KernelBuilder b("forever_bar");
  b.threads(32);
  b.label("x");
  b.bar_sync();
  b.bra("x");
  b.exit();
  const auto prog = b.finalize();
  auto dev = make_device();
  sim::Launch launch;
  launch.program = &prog;
  sim::FunctionalExecutor exec(dev.gmem());
  EXPECT_THROW(exec.run(launch, /*max_warp_instructions=*/10000), Error);
}

TEST(Functional, InstructionStatsSurviveBarrierStretches) {
  // Per-warp counts accumulate across barrier stretches into the run stats:
  // 2 warps x (s2r + 3x(bar + nop) + bar + exit) = 2 x 9 instructions.
  KernelBuilder b("bar_count");
  b.threads(64);
  b.s2r(Reg{0}, SpecialReg::kTidX);
  for (int i = 0; i < 3; ++i) {
    b.bar_sync();
    b.nop();
  }
  b.bar_sync();
  b.exit();
  const auto prog = b.finalize();
  auto dev = make_device();
  sim::Launch launch;
  launch.program = &prog;
  sim::FunctionalExecutor exec(dev.gmem());
  const auto stats = exec.run(launch, /*max_warp_instructions=*/1000);
  EXPECT_EQ(stats.instructions, 18u);
}

TEST(Functional, FailureNamesTheLowestFailingCtaAtAnyThreadCount) {
  // On a 4 x 4 grid every CTA with x + y >= 4 reads through a null pointer.
  // The lowest linear index among them is (3, 1, 0); every thread count must
  // report that CTA and the same message.
  KernelBuilder b("fail_some");
  b.threads(32);
  b.s2r(Reg{0}, SpecialReg::kCtaIdX);
  b.s2r(Reg{1}, SpecialReg::kCtaIdY);
  b.iadd3(Reg{2}, Reg{0}, Reg{1});
  b.isetp_imm(Pred{0}, CmpOp::kGe, Reg{2}, 4);
  b.mov_param(Reg{3}, 0);
  b.mov_imm(Reg{3}, 0).pred(Pred{0});
  b.ldg(MemWidth::k32, Reg{4}, Reg{3});
  b.exit();
  const auto prog = b.finalize();
  auto dev = make_device();
  const auto buf = dev.alloc<std::uint32_t>(32);
  sim::Launch launch;
  launch.program = &prog;
  launch.grid_x = 4;
  launch.grid_y = 4;
  launch.params = {buf.addr};
  std::string first;
  for (const int threads : {1, 7, 16}) {
    try {
      (void)sim::FunctionalExecutor(dev.gmem(), threads).run(launch);
      ADD_FAILURE() << threads << " threads: no failure";
    } catch (const Error& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find("CTA (3, 1, 0): "), std::string::npos) << threads << ": " << what;
      if (first.empty()) first = what;
      EXPECT_EQ(what, first) << threads << " threads";
    }
  }
}

// --- full kernels -------------------------------------------------------------

class HgemmFunctional : public ::testing::TestWithParam<core::HgemmConfig> {};

TEST_P(HgemmFunctional, MatchesTensorCoreReference) {
  const core::HgemmConfig cfg = GetParam();
  Rng rng(99);
  const std::size_t m = static_cast<std::size_t>(cfg.bm);
  const std::size_t n = static_cast<std::size_t>(cfg.bn);
  const std::size_t k = static_cast<std::size_t>(cfg.bk) * 3;

  HalfMatrix a(m, k), bt(n, k);
  a.randomize(rng, -0.5f, 0.5f);
  bt.randomize(rng, -0.5f, 0.5f);

  auto dev = make_device();
  const HalfMatrix c = core::run_hgemm(dev, a, bt, cfg);
  const HalfMatrix ref = core::gemm_ref_tc(a, bt);
  EXPECT_EQ(core::mismatch_count(c, ref), 0u);

  const FloatMatrix ref32 = core::gemm_ref_f32(a, bt);
  EXPECT_LT(core::max_abs_diff(c, ref32), 0.25);  // fp16 accumulation tolerance
}

INSTANTIATE_TEST_SUITE_P(
    Configs, HgemmFunctional,
    ::testing::Values(core::HgemmConfig::optimized(), core::HgemmConfig::cublas_like(),
                      [] {
                        auto c = core::HgemmConfig::optimized();
                        c.layout = core::SmemLayout::kNaiveRowMajor;
                        return c;
                      }(),
                      [] {
                        auto c = core::HgemmConfig::optimized();
                        c.prefetch = false;
                        return c;
                      }(),
                      [] {
                        auto c = core::HgemmConfig::optimized();
                        c.sts_interleave = 2;
                        return c;
                      }()),
    [](const auto& info) {
      std::string n = info.param.name();
      for (auto& ch : n) {
        if (ch == '-') ch = '_';
      }
      return n + "_" + std::to_string(info.index);
    });

TEST(HgemmFunctional, MultiBlockGrid) {
  auto cfg = core::HgemmConfig::optimized();
  Rng rng(5);
  HalfMatrix a(512, 64), bt(512, 64);
  a.randomize(rng, -0.5f, 0.5f);
  bt.randomize(rng, -0.5f, 0.5f);
  auto dev = make_device();
  const HalfMatrix c = core::run_hgemm(dev, a, bt, cfg);
  const HalfMatrix ref = core::gemm_ref_tc(a, bt);
  EXPECT_EQ(core::mismatch_count(c, ref), 0u);
}

TEST(HgemmFunctional, RaggedSizesArePadded) {
  auto cfg = core::HgemmConfig::optimized();
  Rng rng(6);
  HalfMatrix a(100, 72), bt(130, 72);
  a.randomize(rng, -0.5f, 0.5f);
  bt.randomize(rng, -0.5f, 0.5f);
  auto dev = make_device();
  const HalfMatrix c = core::run_hgemm(dev, a, bt, cfg);
  ASSERT_EQ(c.rows(), 100u);
  ASSERT_EQ(c.cols(), 130u);
  const HalfMatrix ref = core::gemm_ref_tc(a, bt);
  EXPECT_EQ(core::mismatch_count(c, ref), 0u);
}

TEST(HgemmFunctional, OneAndSevenHostThreadsAgreeBitwise) {
  // 8 CTAs spread over 7 host threads give the same C, bit for bit, and the
  // same stats as one thread, in both numerics modes and both engines.
  const core::HgemmConfig cfg = core::HgemmConfig::cublas_like();
  const GemmShape shape{256, 512, 128};
  const sass::Program prog = core::hgemm_kernel_virtual(cfg, shape);
  Rng rng(17);
  HalfMatrix a(shape.m, shape.k), bt(shape.n, shape.k);
  a.randomize(rng, -1.0f, 1.0f);
  bt.randomize(rng, -1.0f, 1.0f);
  for (const auto mode :
       {numerics::NumericsMode::kIdealized, numerics::NumericsMode::kBitAccurate}) {
    for (const auto engine : {sim::ExecEngine::kInterpret, sim::ExecEngine::kJit}) {
      std::vector<std::uint16_t> c_bits[2];
      sim::FunctionalStats stats[2];
      for (int t = 0; t < 2; ++t) {
        auto dev = make_device();
        const auto da = dev.alloc<half>(a.size());
        const auto db = dev.alloc<half>(bt.size());
        const auto dc = dev.alloc<half>(shape.m * shape.n);
        dev.upload(da, std::span<const half>(a.data(), a.size()));
        dev.upload(db, std::span<const half>(bt.data(), bt.size()));
        sim::Launch launch;
        launch.program = &prog;
        launch.grid_x = static_cast<std::uint32_t>(shape.n / static_cast<std::size_t>(cfg.bn));
        launch.grid_y = static_cast<std::uint32_t>(shape.m / static_cast<std::size_t>(cfg.bm));
        launch.params = {da.addr, db.addr, dc.addr};
        launch.numerics = mode;
        launch.engine = engine;
        stats[t] = sim::FunctionalExecutor(dev.gmem(), t == 0 ? 1 : 7).run(launch);
        std::vector<half> c(shape.m * shape.n);
        dev.download(std::span(c.data(), c.size()), dc);
        for (const half h : c) c_bits[t].push_back(h.bits());
      }
      const std::string what = std::string(numerics::numerics_mode_name(mode)) + " " +
                               sim::exec_engine_name(engine);
      EXPECT_EQ(c_bits[0], c_bits[1]) << what;
      EXPECT_EQ(stats[0].instructions, stats[1].instructions) << what;
      EXPECT_EQ(stats[0].hmma_count, stats[1].hmma_count) << what;
      EXPECT_GT(stats[0].hmma_count, 0u) << what;
    }
  }
}

TEST(WmmaNaive, MatchesReference) {
  Rng rng(11);
  HalfMatrix a(64, 64), bt(256, 64);
  a.randomize(rng, -0.5f, 0.5f);
  bt.randomize(rng, -0.5f, 0.5f);
  auto dev = make_device();
  const HalfMatrix c = core::run_wmma_naive(dev, a, bt);
  const HalfMatrix ref = core::gemm_ref_tc(a, bt);
  EXPECT_EQ(core::mismatch_count(c, ref), 0u);
}

}  // namespace
}  // namespace tc
