// Differential-fuzzer tests (src/check/fuzz.*): the generator must produce
// valid hazard-free programs, the runner must detect seeded executor-visible
// races, the shrinker must preserve divergence, and the fixed-seed smoke run
// (labelled fuzz_smoke in CTest) must show zero divergence between the
// functional and timed executors. The same programs, some with protections
// stripped, also hold the timed engine's event skip to stepping every cycle.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "check/fuzz.hpp"
#include "check/hazard.hpp"
#include "common/rng.hpp"
#include "device/spec.hpp"
#include "mem/global_mem.hpp"
#include "prof/profiler.hpp"
#include "sass/builder.hpp"
#include "sass/validator.hpp"
#include "sim/probe.hpp"
#include "sim/timed_sm.hpp"
#include "support/timed_results.hpp"

namespace tc::check {
namespace {

using sass::KernelBuilder;
using sass::MemWidth;
using sass::Reg;

TEST(Fuzz, GenerationIsDeterministic) {
  const FuzzOptions opts;
  const FuzzCase a = generate_case(42, opts);
  const FuzzCase b = generate_case(42, opts);
  ASSERT_EQ(a.prog.code.size(), b.prog.code.size());
  EXPECT_EQ(a.prog.disassemble(), b.prog.disassemble());
  EXPECT_EQ(a.in_data, b.in_data);
  const FuzzCase c = generate_case(43, opts);
  EXPECT_NE(a.prog.disassemble(), c.prog.disassemble());
}

TEST(Fuzz, GeneratedProgramsAreHazardFree) {
  const FuzzOptions opts;
  for (std::uint64_t seed = 100; seed < 140; ++seed) {
    const FuzzCase c = generate_case(seed, opts);
    const auto diags = find_hazards(c.prog);
    EXPECT_EQ(sass::count_errors(diags), 0)
        << "seed " << seed << ":\n" << c.prog.disassemble();
  }
}

/// A hand-seeded race: the consumer never waits on the load's write barrier,
/// so the timed engine reads the stale (zero) register while the functional
/// engine sees the loaded bytes. This proves the probe/diff plumbing detects
/// real divergence end to end.
FuzzCase seeded_race_case() {
  KernelBuilder b("seeded_race");
  b.mov_param(Reg{2}, 0).stall(12);
  b.ldg(MemWidth::k32, Reg{8}, Reg{2}).write_bar(0).stall(1);
  b.iadd3(Reg{9}, Reg{8}, Reg{8}).stall(6);  // no wait: races on silicon too
  b.exit().stall(1);
  FuzzCase c;
  c.seed = 0;
  c.prog = b.finalize();
  c.in_bytes = 32;
  c.out_bytes = 32;
  c.in_data.assign(32, 0xAB);
  return c;
}

TEST(Fuzz, RunCaseDetectsSeededDivergence) {
  const FuzzOptions opts;
  const FuzzCase racy = seeded_race_case();
  // The static detector flags it...
  EXPECT_GE(sass::count_errors(find_hazards(racy.prog)), 1);
  // ...and the differential run observes it: R9 is 2x the loaded word in the
  // functional engine but 0 in the timed engine.
  const auto div = run_case(racy, opts);
  ASSERT_TRUE(div.has_value());
  EXPECT_NE(div->find("R9"), std::string::npos) << *div;
}

TEST(Fuzz, RunCaseAcceptsTheProtectedVariant) {
  KernelBuilder b("seeded_race_fixed");
  b.mov_param(Reg{2}, 0).stall(12);
  b.ldg(MemWidth::k32, Reg{8}, Reg{2}).write_bar(0).stall(1);
  b.iadd3(Reg{9}, Reg{8}, Reg{8}).wait_on(0).stall(6);
  b.exit().stall(1);
  FuzzCase c;
  c.prog = b.finalize();
  c.in_bytes = 32;
  c.out_bytes = 32;
  c.in_data.assign(32, 0xAB);
  EXPECT_FALSE(run_case(c, FuzzOptions{}).has_value());
}

TEST(Fuzz, ShrinkPreservesDivergence) {
  const FuzzOptions opts;
  const FuzzCase racy = seeded_race_case();
  const FuzzCase small = shrink_case(racy, opts);
  EXPECT_LE(small.prog.code.size(), racy.prog.code.size());
  EXPECT_TRUE(run_case(small, opts).has_value());
  // EXIT must survive shrinking.
  EXPECT_EQ(small.prog.code.back().op, sass::Opcode::kExit);
}

TEST(FuzzSmoke, FixedSeedProgramsNoDivergence) {
  // The acceptance run: 1500 deterministic programs through both executors.
  // Any failure prints the shrunken repro.
  const FuzzReport rep = run_fuzz(/*base_seed=*/1, /*count=*/1500);
  EXPECT_EQ(rep.programs, 1500);
  EXPECT_EQ(rep.divergences, 0);
  for (const auto& f : rep.failures) {
    ADD_FAILURE() << "seed " << f.seed << " [" << f.phase << "] (shrunk "
                  << f.original_size << " -> " << f.shrunk_size << "):\n"
                  << f.detail << "\n" << f.program;
  }
}

TEST(Fuzz, NumericOperandsChangeInputsDeterministically) {
  // The numerics operand class must actually replace the uniform input
  // bytes, and must stay reproducible seed-for-seed.
  FuzzOptions numeric;
  numeric.numeric_operands = true;
  const FuzzCase plain = generate_case(7, FuzzOptions{});
  const FuzzCase special = generate_case(7, numeric);
  const FuzzCase special2 = generate_case(7, numeric);
  EXPECT_EQ(special.in_data, special2.in_data);
  EXPECT_EQ(special.prog.disassemble(), special2.prog.disassemble());
  EXPECT_NE(plain.in_data, special.in_data);
}

TEST(Fuzz, NumericOperandsHitTheEdgeCaseClasses) {
  // Across a handful of seeds the operand class must produce halves from
  // each headline bucket: subnormals, NaNs, infinities, and signed zeros.
  FuzzOptions numeric;
  numeric.numeric_operands = true;
  int subnormal = 0, nan = 0, inf = 0, neg_zero = 0;
  for (std::uint64_t seed = 500; seed < 520; ++seed) {
    const FuzzCase c = generate_case(seed, numeric);
    for (std::size_t i = 0; i + 1 < c.in_data.size(); i += 2) {
      const auto bits = static_cast<std::uint16_t>(c.in_data[i] |
                                                   (c.in_data[i + 1] << 8));
      const std::uint16_t mag = bits & 0x7FFF;
      if (mag != 0 && mag < 0x0400) ++subnormal;
      if (mag > 0x7C00) ++nan;
      if (mag == 0x7C00) ++inf;
      if (bits == 0x8000) ++neg_zero;
    }
  }
  EXPECT_GT(subnormal, 0);
  EXPECT_GT(nan, 0);
  EXPECT_GT(inf, 0);
  EXPECT_GT(neg_zero, 0);
}

/// Functional-vs-timed differential sweep with numerics operands in the
/// given HMMA mode; both executors run the same mode, so any divergence is
/// an executor inconsistency in that mode's math path.
void run_numeric_mode_sweep(numerics::NumericsMode mode, std::uint64_t base_seed) {
  FuzzOptions opts;
  opts.numeric_operands = true;
  opts.numerics = mode;
  const FuzzReport rep = run_fuzz(base_seed, /*count=*/1500, opts);
  EXPECT_EQ(rep.programs, 1500);
  EXPECT_EQ(rep.divergences, 0);
  for (const auto& f : rep.failures) {
    ADD_FAILURE() << "seed " << f.seed << " [" << f.phase << "] (shrunk "
                  << f.original_size << " -> " << f.shrunk_size << "):\n"
                  << f.detail << "\n" << f.program;
  }
}

TEST(FuzzSmoke, NumericOperandsIdealizedSweep) {
  run_numeric_mode_sweep(numerics::NumericsMode::kIdealized, /*base_seed=*/20001);
}

TEST(FuzzSmoke, NumericOperandsBitAccurateSweep) {
  run_numeric_mode_sweep(numerics::NumericsMode::kBitAccurate, /*base_seed=*/30001);
}

/// Everything one timed run of a fuzz case leaves behind, including how it
/// ended: an exception's message (without its source position) and the cycle.
struct TimedOutcome {
  std::string error;
  std::uint64_t now = 0;
  prof::CounterSet counters;
  prof::Profiler profiler;
  sim::StateProbe probe;
  std::vector<std::uint8_t> out;
};

/// Runs `c` on one SM with a per-SM bandwidth share and a forced L2 hit
/// rate, either stepping every cycle or catching up with skip_to().
void run_timed(const FuzzCase& c, bool skip, TimedOutcome& o) {
  mem::GlobalMemory gmem;
  const std::uint32_t in = gmem.alloc(c.in_bytes);
  const std::uint32_t out = gmem.alloc(c.out_bytes);
  gmem.write(in, std::span(c.in_data));
  sim::Launch launch;
  launch.program = &c.prog;
  launch.params = {in, out};
  o.probe.set_num_regs(c.prog.num_regs);
  sim::TimedConfig cfg;
  cfg.spec = device::rtx2070();
  cfg.dram_bytes_per_cycle = cfg.spec.dram_bytes_per_cycle_per_sm();
  cfg.l2_bytes_per_cycle = cfg.spec.l2_bytes_per_cycle_per_sm();
  cfg.forced_l2_hit_rate = 0.3;
  cfg.max_cycles = 200'000;
  cfg.profiler = &o.profiler;
  cfg.probe = &o.probe;
  sim::TimedSm sm(cfg, gmem);
  sim::CtaSource source(launch);
  try {
    sm.begin(launch, source, 1);
    if (skip) {
      do {
        sm.skip_to(sm.idle_until());
      } while (sm.step());
    } else {
      while (sm.step()) {
      }
    }
    o.counters = sm.finish();
  } catch (const Error& e) {
    const std::string what = e.what();
    o.error = what.substr(what.find(": ") + 2);
  }
  o.now = sm.now();
  o.out.resize(c.out_bytes);
  gmem.read(out, std::span(o.out));
}

TEST(FuzzSmoke, EventSkipMatchesSteppingEveryCycle) {
  // Random control flow, predication, barriers and memory mixes under event
  // skip. Half the cases keep the generator's protections; the other half
  // lose some at random (a third of stall counts cut to 1-3 cycles, a fifth
  // of scoreboard waits dropped), so register values hang on exactly when
  // each writeback lands, and some runs end in an exception. Skipping must
  // reproduce all of it: registers, memory, counters, attribution, and where and
  // how a run failed.
  int failed_runs = 0;
  for (std::uint64_t seed = 1; seed <= 400; ++seed) {
    for (int variant = 0; variant < 4; ++variant) {
      SCOPED_TRACE("seed " + std::to_string(seed) + ", variant " + std::to_string(variant));
      FuzzOptions opts;
      opts.numeric_operands = (variant & 1) != 0;
      FuzzCase c = generate_case(seed, opts);
      if (variant >= 2) {
        Rng rng(seed * 4 + static_cast<std::uint64_t>(variant));
        for (auto& inst : c.prog.code) {
          if (rng.next_below(3) == 0) {
            inst.ctrl.stall = static_cast<std::uint8_t>(1 + rng.next_below(3));
          }
          if (rng.next_below(5) == 0) inst.ctrl.wait_mask = 0;
        }
      }
      TimedOutcome step;
      TimedOutcome skip;
      run_timed(c, false, step);
      run_timed(c, true, skip);
      ASSERT_EQ(step.error, skip.error);
      ASSERT_EQ(step.now, skip.now);
      failed_runs += step.error.empty() ? 0 : 1;
      testsupport::expect_same_counters(step.counters, skip.counters);
      testsupport::expect_same_attribution(step.profiler, skip.profiler);
      EXPECT_EQ(sim::StateProbe::diff(step.probe, skip.probe, 2, "step", "skip"), "");
      EXPECT_TRUE(step.out == skip.out) << "output buffer differs";
      if (HasFailure()) return;
    }
  }
  EXPECT_GT(failed_runs, 0);  // the stripped variants do reach the error paths
}

}  // namespace
}  // namespace tc::check
