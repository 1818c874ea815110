// JIT throughput for the functional executor: interpreter vs compiled
// threaded code, on two workloads.
//
//  * alu_dispatch: a synthetic loop-heavy integer/float ALU kernel with no
//    MMA. Interpreter cost here is pure dispatch — per-lane guard checks, a
//    switch per instruction, a virtual sink call per register write — which
//    is exactly what the JIT's pre-bound operand rows and computed-goto
//    dispatch eliminate. This workload carries the PR's >= 10x acceptance
//    gate (tests/test_golden.cpp asserts it on the summary).
//  * hgemm_functional: the optimized HGEMM kernel run functionally. Most of
//    its time is in sim::exec_mma, which both engines share, so the speedup
//    is structurally smaller; it is reported to keep the claim honest on
//    real kernels.
//
// Series "static" is fully deterministic (instruction counts, block/pass
// statistics, bitwise-match flags) and is golden-pinned per device spec in
// tests/golden/jit_throughput_<device>.json. Series "timing" carries
// wall-clock rates and the measured speedups; it is written to --json
// output but NOT golden-compared (wall clock is not reproducible), except
// for the >= 10x inequality on alu_dispatch.
//
// Usage: jit_throughput [--device rtx2070|t4] [--json path] [--json-static path]
//
// --json-static writes a document containing ONLY the deterministic series,
// which is what the golden fixtures are regenerated from:
//
//   build/bench/jit_throughput --device rtx2070 \
//       --json-static tests/golden/jit_throughput_rtx2070.json
//   build/bench/jit_throughput --device t4 \
//       --json-static tests/golden/jit_throughput_t4.json
#include <chrono>
#include <cstdint>
#include <iostream>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "common/table.hpp"
#include "core/config.hpp"
#include "core/kernel_gen.hpp"
#include "device/spec.hpp"
#include "jit/jit.hpp"
#include "mem/global_mem.hpp"
#include "sass/builder.hpp"
#include "sim/engine.hpp"
#include "sim/functional.hpp"
#include "sim/probe.hpp"

namespace tc::bench {
namespace {

/// The dispatch-bound workload: an unrolled integer/float ALU body inside a
/// counted loop, one store at the end so nothing is trivially dead. No MMA,
/// no shared memory — every cycle of interpreter time is dispatch overhead
/// the JIT can remove.
sass::Program alu_dispatch_kernel(int iterations) {
  using sass::CmpOp;
  using sass::MemWidth;
  using sass::Pred;
  using sass::Reg;
  sass::KernelBuilder b("alu_dispatch");
  b.threads(256);
  b.mov_param(Reg{2}, 0);                 // out pointer
  b.s2r(Reg{3}, sass::SpecialReg::kTidX);
  b.shl(Reg{4}, Reg{3}, 2);
  b.iadd3(Reg{5}, Reg{2}, Reg{4});        // per-thread slot
  b.mov_imm(Reg{6}, 0);                   // loop counter
  b.mov_imm(Reg{10}, 0x12345678);
  b.label("top");
  // Pure integer ALU + SEL: dispatch overhead (guard checks, per-inst
  // switch, per-write sink calls) is the whole interpreter cost here, which
  // is the quantity the JIT's pre-bound rows eliminate. Float/half lanes
  // share one compiled body between engines (sim/lane_ops.cpp) so they
  // dilute the ratio; the hgemm_functional workload covers them instead.
  b.iadd3(Reg{11}, Reg{10}, Reg{3});
  b.imad(Reg{12}, Reg{11}, Reg{10}, Reg{3});
  b.lxor(Reg{13}, Reg{12}, Reg{11});
  b.shl(Reg{14}, Reg{13}, 3);
  b.shr(Reg{15}, Reg{12}, 5);
  b.lor(Reg{16}, Reg{14}, Reg{15});
  b.land(Reg{17}, Reg{16}, Reg{13});
  b.iadd3(Reg{18}, Reg{17}, Reg{11});
  b.imad(Reg{19}, Reg{18}, Reg{16}, Reg{12});
  b.lxor(Reg{20}, Reg{19}, Reg{18});
  b.iadd3(Reg{21}, Reg{20}, Reg{14});
  b.shl(Reg{22}, Reg{21}, 1);
  b.lor(Reg{23}, Reg{22}, Reg{19});
  b.land(Reg{24}, Reg{23}, Reg{21});
  b.iadd3(Reg{25}, Reg{24}, Reg{22});
  b.sel(Reg{26}, Pred{0}, Reg{25}, Reg{24});
  b.lxor(Reg{27}, Reg{26}, Reg{25});
  b.iadd3(Reg{28}, Reg{27}, Reg{26});
  b.imad(Reg{29}, Reg{28}, Reg{27}, Reg{11});
  b.imad(Reg{10}, Reg{29}, Reg{23}, Reg{24});
  b.iadd_imm(Reg{6}, Reg{6}, 1);
  b.isetp_imm(Pred{0}, CmpOp::kLt, Reg{6}, iterations);
  b.bra("top").pred(Pred{0});
  b.stg(MemWidth::k32, Reg{5}, Reg{10});
  b.exit();
  return b.finalize();
}

struct EngineRun {
  sim::FunctionalStats stats;
  double seconds = 0.0;
};

/// Runs `launch` once with the given engine on a fresh copy of memory,
/// capturing the probe when provided. host_threads=1 keeps the timing
/// comparable and the probe capture deterministic.
EngineRun run_engine(const sass::Program& prog, mem::GlobalMemory& gmem,
                     sim::Launch launch, sim::ExecEngine engine,
                     sim::StateProbe* probe) {
  launch.program = &prog;
  launch.engine = engine;
  sim::FunctionalExecutor fx(gmem, /*host_threads=*/1);
  fx.set_probe(probe);
  const auto t0 = std::chrono::steady_clock::now();
  EngineRun r;
  r.stats = fx.run(launch);
  r.seconds = std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
  return r;
}

struct WorkloadResult {
  std::string name;
  jit::JitStats jstats;
  std::uint64_t instructions = 0;
  std::uint64_t hmma = 0;
  bool bitwise_match = false;
  double mips_interpret = 0.0;
  double mips_jit = 0.0;
  double speedup = 0.0;
};

WorkloadResult run_workload(const std::string& name, const sass::Program& prog,
                            std::uint32_t grid_x, std::uint32_t grid_y,
                            std::uint64_t out_bytes) {
  WorkloadResult w;
  w.name = name;
  w.jstats = jit::compile(prog).stats;

  sim::Launch launch;
  launch.grid_x = grid_x;
  launch.grid_y = grid_y;

  mem::GlobalMemory gmem_i, gmem_j;
  sim::Launch launch_i = launch, launch_j = launch;
  launch_i.params = {gmem_i.alloc(out_bytes)};
  launch_j.params = {gmem_j.alloc(out_bytes)};

  sim::StateProbe probe_i, probe_j;
  probe_i.set_num_regs(prog.num_regs);
  probe_j.set_num_regs(prog.num_regs);

  const EngineRun ri =
      run_engine(prog, gmem_i, launch_i, sim::ExecEngine::kInterpret, &probe_i);
  const EngineRun rj = run_engine(prog, gmem_j, launch_j, sim::ExecEngine::kJit, &probe_j);

  w.instructions = ri.stats.instructions;
  w.hmma = ri.stats.hmma_count;
  w.bitwise_match = ri.stats.instructions == rj.stats.instructions &&
                    ri.stats.hmma_count == rj.stats.hmma_count &&
                    sim::StateProbe::diff(probe_i, probe_j, 1, "interpret", "jit").empty();
  w.mips_interpret = static_cast<double>(ri.stats.instructions) / ri.seconds / 1e6;
  w.mips_jit = static_cast<double>(rj.stats.instructions) / rj.seconds / 1e6;
  w.speedup = ri.seconds / rj.seconds;
  return w;
}

int run(int argc, char** argv) {
  const Flags flags = parse_flags(argc, argv, {device_flag(), Flag::path("--json-static")});
  const auto spec = device::spec_by_name(flags.text("--device"));
  // Grid spans the device once: the static series (instruction totals) then
  // differs per spec, so each fixture actually pins something device-shaped.
  const auto grid = static_cast<std::uint32_t>(spec.num_sms);

  std::vector<WorkloadResult> results;
  {
    const sass::Program prog = alu_dispatch_kernel(/*iterations=*/4000);
    results.push_back(run_workload("alu_dispatch", prog, grid, 1, 256 * 4));
  }
  {
    const core::HgemmConfig cfg = core::HgemmConfig::optimized();
    const GemmShape shape{static_cast<std::size_t>(cfg.bm),
                          static_cast<std::size_t>(cfg.bn), 512};
    // The HGEMM kernel loads A/B and stores C through params 0..2; one
    // arena covers all three (contents are irrelevant to throughput, and
    // never-written memory reads as zeros).
    sass::Program prog = core::hgemm_kernel(cfg, shape);
    WorkloadResult w;
    w.name = "hgemm_functional";
    w.jstats = jit::compile(prog).stats;
    const std::uint64_t a_bytes = shape.m * shape.k * 2;
    const std::uint64_t b_bytes = shape.n * shape.k * 2;
    const std::uint64_t c_bytes = shape.m * shape.n * 2;
    mem::GlobalMemory gmem_i, gmem_j;
    sim::Launch launch_i, launch_j;
    launch_i.params = {gmem_i.alloc(a_bytes), gmem_i.alloc(b_bytes), gmem_i.alloc(c_bytes)};
    launch_j.params = {gmem_j.alloc(a_bytes), gmem_j.alloc(b_bytes), gmem_j.alloc(c_bytes)};
    sim::StateProbe probe_i, probe_j;
    probe_i.set_num_regs(prog.num_regs);
    probe_j.set_num_regs(prog.num_regs);
    const EngineRun ri =
        run_engine(prog, gmem_i, launch_i, sim::ExecEngine::kInterpret, &probe_i);
    const EngineRun rj = run_engine(prog, gmem_j, launch_j, sim::ExecEngine::kJit, &probe_j);
    w.instructions = ri.stats.instructions;
    w.hmma = ri.stats.hmma_count;
    w.bitwise_match = ri.stats.instructions == rj.stats.instructions &&
                      ri.stats.hmma_count == rj.stats.hmma_count &&
                      sim::StateProbe::diff(probe_i, probe_j, 1, "interpret", "jit").empty();
    w.mips_interpret = static_cast<double>(ri.stats.instructions) / ri.seconds / 1e6;
    w.mips_jit = static_cast<double>(rj.stats.instructions) / rj.seconds / 1e6;
    w.speedup = ri.seconds / rj.seconds;
    results.push_back(w);
  }

  const auto fill_static = [&](BenchJson& json) {
    json.begin_series("static",
                      {"sass_instructions", "ir_instructions", "emitted_ops", "blocks",
                       "forwarded", "folded", "removed", "executed", "hmma",
                       "bitwise_match"});
    for (const auto& w : results) {
      json.row({static_cast<double>(w.jstats.sass_instructions),
                static_cast<double>(w.jstats.ir_instructions),
                static_cast<double>(w.jstats.emitted_ops),
                static_cast<double>(w.jstats.blocks),
                static_cast<double>(w.jstats.passes.forwarded),
                static_cast<double>(w.jstats.passes.folded),
                static_cast<double>(w.jstats.passes.removed),
                static_cast<double>(w.instructions), static_cast<double>(w.hmma),
                w.bitwise_match ? 1.0 : 0.0});
    }
  };

  BenchJson json("jit_throughput", spec.name);
  fill_static(json);
  json.begin_series("timing", {"mips_interpret", "mips_jit", "speedup"});
  for (const auto& w : results) {
    json.row({w.mips_interpret, w.mips_jit, w.speedup});
    json.summary("speedup_" + w.name, w.speedup);
  }

  TablePrinter table({"workload", "instructions", "emitted_ops", "mips_interp", "mips_jit",
                      "speedup", "bitwise"});
  for (const auto& w : results) {
    table.add_row({w.name, std::to_string(w.instructions),
                   std::to_string(w.jstats.emitted_ops), fmt_fixed(w.mips_interpret, 1),
                   fmt_fixed(w.mips_jit, 1), fmt_fixed(w.speedup, 2),
                   w.bitwise_match ? "yes" : "NO"});
  }
  std::cout << "== jit_throughput (" << spec.name << ") ==\n";
  table.print(std::cout);
  std::cout << "\n";

  if (const std::string& path = flags.text("--json"); !path.empty()) json.write_file(path);
  if (const std::string& path = flags.text("--json-static"); !path.empty()) {
    BenchJson fixture("jit_throughput", spec.name);
    fill_static(fixture);
    fixture.write_file(path);
  }
  for (const auto& w : results) {
    if (!w.bitwise_match) {
      std::cerr << w.name << ": JIT diverged from the interpreter\n";
      return 1;
    }
  }
  return 0;
}

}  // namespace
}  // namespace tc::bench

int main(int argc, char** argv) { return tc::bench::run(argc, argv); }
