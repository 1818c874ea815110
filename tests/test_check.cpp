// Unit tests for the static scoreboard hazard detector (src/check/hazard.*):
// seeded races must be caught with the right severity, protected schedules
// must be clean, and every built-in kernel must analyze error-free.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "check/hazard.hpp"
#include "core/config.hpp"
#include "core/kernel_gen.hpp"
#include "sass/builder.hpp"
#include "sass/latency.hpp"

namespace tc::check {
namespace {

using sass::Instruction;
using sass::KernelBuilder;
using sass::MemWidth;
using sass::Opcode;
using sass::Pred;
using sass::Reg;

// Small deterministic latency table: FADD takes 6 cycles, everything else 4.
// branch_redirect is 1 so loop tests control the back-edge gap exactly.
int test_latency(const Instruction& inst, int /*dreg_offset*/) {
  return inst.op == Opcode::kFadd ? 6 : 4;
}

LatencyModel test_model() { return {&test_latency, /*branch_redirect=*/1, /*predicate_latency=*/6}; }

int count_kind(const std::vector<sass::Diag>& diags, const std::string& kind) {
  int n = 0;
  for (const auto& d : diags) n += d.kind == kind ? 1 : 0;
  return n;
}

TEST(Hazard, SeededMissingWriteBarrierRaceIsCaught) {
  // The acceptance case: a load consumed without waiting on its write
  // barrier. Stall counts never cover variable-latency loads, so this is a
  // true race no matter how large the stall is.
  KernelBuilder b("race");
  b.ldg(MemWidth::k32, Reg{8}, Reg{4}).write_bar(0).stall(15);
  b.iadd3(Reg{9}, Reg{8}, Reg{8}).stall(4);
  b.exit();
  const auto diags = find_hazards(b.finalize(), test_model());
  ASSERT_GE(sass::count_errors(diags), 1);
  EXPECT_EQ(count_kind(diags, "raw-load"), 1);
  EXPECT_EQ(diags[0].producer_pc, 0);
  EXPECT_EQ(diags[0].consumer_pc, 1);
}

TEST(Hazard, WaitOnWriteBarrierProtectsTheLoad) {
  KernelBuilder b("race_fixed");
  b.ldg(MemWidth::k32, Reg{8}, Reg{4}).write_bar(0).stall(1);
  b.iadd3(Reg{9}, Reg{8}, Reg{8}).wait_on(0).stall(4);
  b.exit();
  EXPECT_EQ(sass::count_errors(find_hazards(b.finalize(), test_model())), 0);
}

TEST(Hazard, LoadWithoutAnyWriteBarrierIsCaught) {
  KernelBuilder b("no_bar");
  b.ldg(MemWidth::k64, Reg{8}, Reg{4}).stall(15);
  b.mov(Reg{10}, Reg{9}).stall(4);  // reads the high half of the pair
  b.exit();
  const auto diags = find_hazards(b.finalize(), test_model());
  EXPECT_EQ(count_kind(diags, "raw-load"), 1);
  ASSERT_GE(sass::count_errors(diags), 1);
}

TEST(Hazard, RawOnFixedLatencyProducer) {
  KernelBuilder b("raw_fixed");
  b.fadd(Reg{8}, Reg{4}, Reg{5}).stall(1);  // result ready after 6
  b.mov(Reg{9}, Reg{8}).stall(4);
  b.exit();
  const auto diags = find_hazards(b.finalize(), test_model());
  EXPECT_EQ(count_kind(diags, "raw-fixed"), 1);

  KernelBuilder ok("raw_fixed_ok");
  ok.fadd(Reg{8}, Reg{4}, Reg{5}).stall(6);
  ok.mov(Reg{9}, Reg{8}).stall(4);
  ok.exit();
  EXPECT_EQ(sass::count_errors(find_hazards(ok.finalize(), test_model())), 0);
}

TEST(Hazard, SplitMmaWritebackHighHalfNeedsMoreTime) {
  // HMMA.1688.F32 commits D+0/D+1 after kMmaLatencyLow cycles and D+2/D+3
  // after kMmaLatencyHigh. A stall covering only the low half leaves reads
  // of the high half racy.
  KernelBuilder low("mma_low");
  low.hmma_1688_f32(Reg{8}, Reg{16}, Reg{20}, Reg{8}).stall(sass::kMmaLatencyLow);
  low.mov(Reg{12}, Reg{8}).stall(4);  // low half: committed exactly at issue
  low.exit();
  EXPECT_EQ(sass::count_errors(find_hazards(low.finalize())), 0);

  KernelBuilder high("mma_high");
  high.hmma_1688_f32(Reg{8}, Reg{16}, Reg{20}, Reg{8}).stall(sass::kMmaLatencyLow);
  high.mov(Reg{12}, Reg{11}).stall(4);  // high half: 4 cycles short
  high.exit();
  const auto diags = find_hazards(high.finalize());
  EXPECT_EQ(count_kind(diags, "raw-fixed"), 1);
}

TEST(Hazard, WawAgainstInFlightLoad) {
  // Overwriting the destination of an in-flight load: the late writeback
  // would bury the younger MOV value.
  KernelBuilder b("waw_load");
  b.ldg(MemWidth::k32, Reg{8}, Reg{4}).write_bar(0).stall(15);
  b.mov(Reg{8}, Reg{5}).stall(4);
  b.exit();
  const auto diags = find_hazards(b.finalize(), test_model());
  EXPECT_EQ(count_kind(diags, "waw-load"), 1);
  ASSERT_GE(sass::count_errors(diags), 1);
}

TEST(Hazard, WarOnStoreSourcesIsWarningOnly) {
  // tc::sim captures store operands at issue, so overwriting them before the
  // read barrier clears cannot corrupt the simulation — but it would race on
  // silicon, so the detector warns without failing the program.
  KernelBuilder b("war_mio");
  b.stg(MemWidth::k32, Reg{4}, Reg{8}).read_bar(1).stall(1);
  b.mov(Reg{8}, Reg{5}).stall(4);
  b.exit();
  const auto diags = find_hazards(b.finalize(), test_model());
  EXPECT_EQ(count_kind(diags, "war-mio"), 1);
  EXPECT_EQ(sass::count_errors(diags), 0);
}

TEST(Hazard, RedundantWaitOnClearBarrierIsWarning) {
  KernelBuilder b("redundant");
  b.ldg(MemWidth::k32, Reg{8}, Reg{4}).write_bar(0).stall(1);
  b.nop().wait_on(0).stall(1);
  b.mov(Reg{9}, Reg{8}).wait_on(0).stall(4);  // B0 is provably clear already
  b.exit();
  const auto diags = find_hazards(b.finalize(), test_model());
  EXPECT_EQ(count_kind(diags, "redundant-wait"), 1);
  EXPECT_EQ(sass::count_errors(diags), 0);
}

TEST(Hazard, PredicateConsumedTooEarly) {
  KernelBuilder b("pred_raw");
  b.isetp_imm(Pred{0}, sass::CmpOp::kLt, Reg{4}, 7).stall(1);
  b.mov(Reg{8}, Reg{5}).pred(Pred{0}).stall(4);
  b.exit();
  const auto diags = find_hazards(b.finalize(), test_model());
  EXPECT_EQ(count_kind(diags, "raw-pred"), 1);

  KernelBuilder ok("pred_ok");
  ok.isetp_imm(Pred{0}, sass::CmpOp::kLt, Reg{4}, 7).stall(6);
  ok.mov(Reg{8}, Reg{5}).pred(Pred{0}).stall(4);
  ok.exit();
  EXPECT_EQ(sass::count_errors(find_hazards(ok.finalize(), test_model())), 0);
}

TEST(Hazard, LoopCarriedRawAcrossBackEdge) {
  // Self-loop: FADD's 6-cycle result is consumed by itself on the next trip.
  // With branch_redirect = 1 the loop takes 2 cycles — a true race that only
  // an unrolled analysis of the back edge can see.
  KernelBuilder b("loop_raw");
  b.label("top");
  b.fadd(Reg{8}, Reg{8}, Reg{5}).stall(1);
  b.bra("top").stall(1);
  b.exit();
  const auto diags = find_hazards(b.finalize(), test_model());
  EXPECT_GE(count_kind(diags, "raw-fixed"), 1);

  // A covering stall makes the same loop clean (loop length 7 >= 6).
  KernelBuilder ok("loop_ok");
  ok.label("top");
  ok.fadd(Reg{8}, Reg{8}, Reg{5}).stall(6);
  ok.bra("top").stall(1);
  ok.exit();
  EXPECT_EQ(sass::count_errors(find_hazards(ok.finalize(), test_model())), 0);
}

TEST(Hazard, BuiltinKernelsAnalyzeErrorFree) {
  // The detector must agree with the timed simulator that the shipped
  // schedules are race-free, using the simulator's own latency table.
  struct Target {
    std::string name;
    sass::Program prog;
  };
  const std::vector<Target> targets = {
      {"hgemm_optimized",
       core::hgemm_kernel(core::HgemmConfig::optimized(), {256, 256, 64})},
      {"hgemm_cublas_like",
       core::hgemm_kernel(core::HgemmConfig::cublas_like(), {128, 128, 128})},
      {"wmma_naive", core::wmma_naive_kernel({16, 128, 16})},
  };
  for (const auto& t : targets) {
    const auto diags = find_hazards(t.prog);
    EXPECT_EQ(sass::count_errors(diags), 0) << t.name;
    for (const auto& d : diags) {
      if (d.severity == sass::DiagSeverity::kError) {
        ADD_FAILURE() << t.name << ": " << sass::format(d);
      }
    }
  }
}

}  // namespace
}  // namespace tc::check
