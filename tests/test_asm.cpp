// Text assembler tests: hand-written kernels, error reporting, and full
// disassemble -> assemble round trips of the real HGEMM/microbenchmark
// kernels.
#include <gtest/gtest.h>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "core/hgemm.hpp"
#include "core/kernel_gen.hpp"
#include "driver/device.hpp"
#include "kernels/micro.hpp"
#include "sass/asm_parser.hpp"
#include "sched/fuzz.hpp"
#include "sched/schedule.hpp"

namespace tc {
namespace {

TEST(Asm, HandWrittenKernelRuns) {
  // out[tid] = tid * 5 + param[1], written as text.
  const char* src = R"(
    .kernel smoke
    .threads 64
    S2R R0, SR_TID.X ; {S:13}
    MOV R1, c[0x0][0] ; {S:1}
    MOV R2, c[0x0][1] ; {S:13}
    IMAD R3, R0, 0x5, R2 ; {S:6}
    SHF.L R4, R0, 0x2 ; {S:6}
    IADD3 R4, R4, R1, RZ ; {S:6}
    STG.32 [R4], R3 ; {S:1}
    EXIT
  )";
  const auto prog = sass::assemble(src);
  EXPECT_EQ(prog.name, "smoke");
  EXPECT_EQ(prog.cta_threads, 64u);
  EXPECT_EQ(prog.num_param_words, 2u);

  driver::Device dev(device::rtx2070());
  auto out = dev.alloc<std::uint32_t>(64);
  sim::Launch launch;
  launch.program = &prog;
  launch.params = {out.addr, 100};
  dev.launch(launch);
  std::vector<std::uint32_t> host(64);
  dev.download(std::span<std::uint32_t>(host), out);
  for (std::uint32_t t = 0; t < 64; ++t) EXPECT_EQ(host[t], t * 5 + 100);
}

TEST(Asm, LabelsAndGuardedBranches) {
  const char* src = R"(
    .kernel looped
    MOV R0, 0x0 ; {S:1}
    MOV R1, 0xa ; {S:6}
    top:
    IADD3 R0, R0, 0x3, RZ ; {S:6}
    IADD3 R1, R1, -0x1, RZ ; {S:6}
    ISETP.GT P0, R1, 0 ; {S:6}
    @P0 BRA top ; {S:1}
    MOV R2, c[0x0][0] ; {S:13}
    STG.32 [R2], R0 ; {S:1}
    EXIT
  )";
  const auto prog = sass::assemble(src);
  driver::Device dev(device::rtx2070());
  auto out = dev.alloc<std::uint32_t>(32);
  sim::Launch launch;
  launch.program = &prog;
  launch.params = {out.addr};
  dev.launch(launch);
  std::vector<std::uint32_t> host(32);
  dev.download(std::span<std::uint32_t>(host), out);
  EXPECT_EQ(host[0], 30u);  // 10 iterations of +3
}

TEST(Asm, ErrorsCarryLineNumbers) {
  try {
    sass::assemble(".kernel bad\nNOP\nFROB R1, R2\nEXIT\n");
    FAIL() << "expected a parse error";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("line 3"), std::string::npos);
    EXPECT_NE(std::string(e.what()).find("FROB"), std::string::npos);
  }
}

TEST(Asm, RejectsBadOperands) {
  EXPECT_THROW(sass::assemble("LDG.32 R1, R2\nEXIT\n"), Error);       // not a memref
  EXPECT_THROW(sass::assemble("LDG.48 R1, [R2]\nEXIT\n"), Error);     // bad width
  EXPECT_THROW(sass::assemble("BRA nowhere\nEXIT\n"), Error);         // missing label
  EXPECT_THROW(sass::assemble("MOV R1 ; {S:99}\nEXIT\n"), Error);     // bad stall
  EXPECT_THROW(sass::assemble("ISETP.GT P7, R1, 0\nEXIT\n"), Error);  // PT not writable
}

// try_assemble's structured negative paths: each malformed input must produce
// a sass::Diag whose consumer_pc is the 1-based *source line* of the offense,
// so tools can anchor the finding without scraping exception text.
struct AsmDiagCase {
  const char* label;
  const char* source;
  int line;                   // expected Diag::consumer_pc
  const char* msg_substring;  // expected fragment of Diag::message
};

class AsmDiagTest : public ::testing::TestWithParam<AsmDiagCase> {};

TEST_P(AsmDiagTest, MalformedSourceYieldsAnchoredDiag) {
  const AsmDiagCase& c = GetParam();
  sass::Diag diag;
  const auto prog = sass::try_assemble(c.source, &diag);
  ASSERT_FALSE(prog.has_value()) << c.label;
  EXPECT_EQ(diag.kind, "asm-parse") << c.label;
  EXPECT_EQ(diag.severity, sass::DiagSeverity::kError) << c.label;
  EXPECT_EQ(diag.consumer_pc, c.line) << c.label;
  EXPECT_NE(diag.message.find(c.msg_substring), std::string::npos)
      << c.label << ": message was '" << diag.message << "'";
}

INSTANTIATE_TEST_SUITE_P(
    NegativePaths, AsmDiagTest,
    ::testing::Values(
        // Malformed control words.
        AsmDiagCase{"stall_range", "NOP\nMOV R1, R2 ; {S:99}\nEXIT\n", 2, "bad stall"},
        AsmDiagCase{"ctrl_token", "MOV R1, R2 ; {Q:1}\nNOP\nEXIT\n", 1, "unknown control"},
        AsmDiagCase{"wait_digits", "NOP\nNOP\nMOV R1, R2 ; {W:07}\nEXIT\n", 3, "bad wait mask"},
        // Out-of-range barrier indices (kNumBarriers == 6).
        AsmDiagCase{"write_barrier", "NOP\nLDG.128 R4, [R2] ; {WB6}\nEXIT\n", 2,
                    "bad write barrier"},
        AsmDiagCase{"read_barrier", "NOP\nNOP\nSTS.128 [R2], R4 ; {RB9}\nEXIT\n", 3,
                    "bad read barrier"},
        // Unknown opcodes and opcode-shaped mistakes.
        AsmDiagCase{"unknown_opcode", ".kernel k\nNOP\nFROB R1, R2\nEXIT\n", 3,
                    "unknown opcode 'FROB'"},
        AsmDiagCase{"unknown_mma", "HMMA.1684.F16 R0, R2, R4, R0\nEXIT\n", 1,
                    "unknown MMA variant"},
        AsmDiagCase{"unknown_directive", ".kernel k\n.regs 40\nNOP\nEXIT\n", 2,
                    "unknown directive"},
        // Directives take exactly one well-formed value.
        AsmDiagCase{"smem_word", ".kernel k\n.smem abc\nEXIT\n", 2, "bad .smem value 'abc'"},
        AsmDiagCase{"smem_suffix", ".smem 12abc\nEXIT\n", 1, "bad .smem value '12abc'"},
        AsmDiagCase{"threads_word", "NOP\n.threads abc\nEXIT\n", 2,
                    "bad .threads value 'abc'"},
        AsmDiagCase{"threads_junk", ".threads 64 junk\nEXIT\n", 1,
                    ".threads takes exactly one value"},
        AsmDiagCase{"smem_bare", ".kernel k\n.smem\nEXIT\n", 2, ".smem takes exactly one value"},
        AsmDiagCase{"kernel_bare", ".kernel\nEXIT\n", 1, ".kernel takes exactly one value"},
        AsmDiagCase{"kernel_two_names", ".kernel a b\nEXIT\n", 1,
                    ".kernel takes exactly one value"}),
    [](const auto& info) { return info.param.label; });

TEST(Asm, TryAssembleReportsValidateFailuresWithoutALine) {
  // Parses fine but trips the ISA validator (barrier waited on, never
  // signalled): the diag must be tagged asm-validate with no source anchor.
  sass::Diag diag;
  const auto prog = sass::try_assemble("NOP ; {W:3}\nEXIT\n", &diag);
  ASSERT_FALSE(prog.has_value());
  EXPECT_EQ(diag.kind, "asm-validate");
  EXPECT_EQ(diag.consumer_pc, -1);
}

TEST(Asm, TryAssembleSucceedsOnGoodSourceAndMatchesAssemble) {
  const std::string src = ".kernel ok\n.threads 64\nMOV R1, 0x7\nEXIT\n";
  sass::Diag diag;
  const auto prog = sass::try_assemble(src, &diag);
  ASSERT_TRUE(prog.has_value());
  EXPECT_EQ(prog->name, "ok");
  EXPECT_EQ(prog->code.size(), sass::assemble(src).code.size());
  EXPECT_EQ(diag.kind, "");  // untouched on success
}

void expect_same_program(const sass::Program& a, const sass::Program& b) {
  ASSERT_EQ(a.code.size(), b.code.size());
  EXPECT_EQ(a.name, b.name);
  EXPECT_EQ(a.cta_threads, b.cta_threads);
  EXPECT_EQ(a.smem_bytes, b.smem_bytes);
  EXPECT_EQ(a.num_regs, b.num_regs);
  EXPECT_EQ(a.num_param_words, b.num_param_words);
  for (std::size_t pc = 0; pc < a.code.size(); ++pc) {
    const auto& x = a.code[pc];
    const auto& y = b.code[pc];
    EXPECT_EQ(x.to_string(), y.to_string()) << "pc " << pc;
    EXPECT_EQ(x.op, y.op) << "pc " << pc;
    EXPECT_EQ(x.target, y.target) << "pc " << pc;
    EXPECT_EQ(x.ctrl.stall, y.ctrl.stall) << "pc " << pc;
    EXPECT_EQ(x.ctrl.wait_mask, y.ctrl.wait_mask) << "pc " << pc;
    EXPECT_EQ(x.ctrl.write_barrier, y.ctrl.write_barrier) << "pc " << pc;
    EXPECT_EQ(x.ctrl.read_barrier, y.ctrl.read_barrier) << "pc " << pc;
    EXPECT_EQ(x.ctrl.yield, y.ctrl.yield) << "pc " << pc;
    EXPECT_EQ(x.ctrl.reuse, y.ctrl.reuse) << "pc " << pc;
  }
}

class AsmRoundTrip : public ::testing::TestWithParam<const char*> {};

TEST_P(AsmRoundTrip, DisassembleAssembleIsIdentity) {
  sass::Program original;
  const std::string which = GetParam();
  if (which == "hgemm_optimized") {
    original = core::hgemm_kernel(core::HgemmConfig::optimized(), {256, 256, 128});
  } else if (which == "hgemm_cublas") {
    original = core::hgemm_kernel(core::HgemmConfig::cublas_like(), {128, 128, 128});
  } else if (which == "hgemm_axpby") {
    original = core::hgemm_kernel(core::HgemmConfig::optimized(), {256, 256, 64},
                                  core::Epilogue{2.0f, -0.5f});
  } else if (which == "hgemm_split_k") {
    auto cfg = core::HgemmConfig::optimized();
    cfg.split_k = 2;
    original = core::hgemm_kernel(cfg, {256, 256, 256});
  } else if (which == "wmma_naive") {
    original = core::wmma_naive_kernel({64, 128, 64});
  } else if (which == "micro_hmma") {
    original = kernels::hmma_cpi_kernel(128, 10);
  } else if (which == "micro_lds") {
    original = kernels::smem_cpi_kernel(sass::Opcode::kLds, sass::MemWidth::k128, 32, 10);
  } else {
    FAIL() << "unknown kernel " << which;
  }

  expect_same_program(original, sass::assemble(original.disassemble()));
}

INSTANTIATE_TEST_SUITE_P(Kernels, AsmRoundTrip,
                         ::testing::Values("hgemm_optimized", "hgemm_cublas", "hgemm_axpby",
                                           "hgemm_split_k", "wmma_naive", "micro_hmma",
                                           "micro_lds"),
                         [](const auto& info) { return std::string(info.param); });

TEST(AsmRoundTripScheduled, ControlWordsSurviveOnFuzzCorpus) {
  // Scheduler output exercises the whole control-word surface — stalls 1-15,
  // NOP padding, multi-bit wait masks, both barrier kinds, hoisted loop
  // waits, reuse flags. Every one of them must survive disasm -> assemble
  // bit-exactly across a varied scheduled corpus.
  for (std::uint64_t seed = 900; seed < 925; ++seed) {
    const auto fuzz_case = sched::generate_virtual_case(seed);
    const auto scheduled = sched::schedule(fuzz_case.prog);
    expect_same_program(scheduled, sass::assemble(scheduled.disassemble()));
    if (::testing::Test::HasFailure()) FAIL() << "round trip broke at seed " << seed;
  }
}

TEST(Asm, AssembledHgemmComputesCorrectly) {
  // Round-trip the optimized kernel through text, then run the *assembled*
  // program functionally and compare against the reference.
  const GemmShape shape{256, 256, 64};
  const auto original = core::hgemm_kernel(core::HgemmConfig::optimized(), shape);
  const auto prog = sass::assemble(original.disassemble());

  Rng rng(55);
  HalfMatrix a(shape.m, shape.k), bt(shape.n, shape.k);
  a.randomize(rng, -0.5f, 0.5f);
  bt.randomize(rng, -0.5f, 0.5f);

  driver::Device dev(device::rtx2070());
  auto da = dev.alloc<half>(a.size());
  auto db = dev.alloc<half>(bt.size());
  auto dc = dev.alloc<half>(shape.m * shape.n);
  dev.upload(da, std::span<const half>(a.data(), a.size()));
  dev.upload(db, std::span<const half>(bt.data(), bt.size()));
  sim::Launch launch;
  launch.program = &prog;
  launch.params = {da.addr, db.addr, dc.addr};
  dev.launch(launch);

  HalfMatrix c(shape.m, shape.n);
  dev.download(std::span<half>(c.data(), c.size()), dc);
  EXPECT_EQ(core::mismatch_count(c, core::gemm_ref_tc(a, bt)), 0u);
}

}  // namespace
}  // namespace tc
