// tcgemm_cli — command-line front end for the library. The commands, the
// flags each one takes and their defaults are the table in commands() below;
// tcgemm_cli with no command prints the usage text made from it. Every
// command takes --json PATH for a tc-cli-v1 document, written once the
// command has finished. Two output flags that name one file are refused
// before the command runs.
#include <algorithm>
#include <climits>
#include <cstring>
#include <filesystem>
#include <iomanip>
#include <iostream>
#include <limits>
#include <optional>
#include <sstream>
#include <string>

#include "check/fuzz.hpp"
#include "check/hazard.hpp"
#include "common/flags.hpp"
#include "common/json.hpp"
#include "common/rng.hpp"
#include "common/table.hpp"
#include "common/write_file.hpp"
#include "core/hgemm.hpp"
#include "core/kernel_gen.hpp"
#include "core/profile.hpp"
#include "core/reference.hpp"
#include "driver/device.hpp"
#include "model/validate.hpp"
#include "numerics/curves.hpp"
#include "numerics/numerics.hpp"
#include "op/op.hpp"
#include "prof/trace.hpp"
#include "sass/validator.hpp"
#include "sched/schedule.hpp"
#include "serve/serve.hpp"
#include "serve/traffic.hpp"
#include "sim/engine.hpp"
#include "sim/pipes.hpp"
#include "tune/cache.hpp"
#include "tune/tune.hpp"

using namespace tc;

namespace {

struct Command {
  const char* name;
  const char* what;  // one line of usage text
  std::vector<Flag> flags;
};

/// Every command with the flags it takes, their ranges or choices and its
/// defaults. A command rejects every flag outside its own list.
const std::vector<Command>& commands() {
  static const std::vector<Command> table = [] {
    const auto dim = [](const char* name, const char* def, std::uint64_t lo = 1) {
      return Flag::integer(name, lo, std::uint64_t{1} << 20, def);
    };
    const auto count = [](const char* name, const char* def, std::uint64_t lo) {
      return Flag::integer(name, lo, INT_MAX, def);
    };
    const Flag m = dim("--m", "512"), n = dim("--n", "512"), k = dim("--k", "256");
    const Flag spec = Flag::choice("--device", device::kSpecNames);
    const Flag baseline = Flag::toggle("--baseline"), check = Flag::toggle("--check");
    const Flag seed = Flag::integer("--seed", 0, std::numeric_limits<std::uint64_t>::max(), "1");
    const Flag mode = Flag::choice("--numerics", {"idealized", "bitaccurate"});
    const Flag json = Flag::path("--json");
    const Flag budget = count("--budget", "24", 1);
    // tune starts one OS thread per evaluated candidate, up to --threads.
    const Flag threads = Flag::integer("--threads", 1, 64, "1");
    const Flag top = count("--top", "10", 0), cache = Flag::path("--cache");
    return std::vector<Command>{
        {"run", "run the kernel functionally; --check compares C with the reference",
         {m, n, k, spec, check, baseline, Flag::choice("--engine", {"interpret", "jit"}), mode,
          json}},
        {"perf", "full-device time and TFLOPS; --profile adds steady-state counters",
         {m, n, k, spec, baseline, Flag::choice("--engine", {"model", "device"}),
          Flag::toggle("--profile"), top, Flag::path("--trace-out"), json}},
        {"lint", "static schedule checks, latency-table slack included",
         {m, n, k, baseline, json}},
        {"schedule", "minimal vs full scheduler on the real kernel, single-CTA timed",
         {m, n, k, baseline, Flag::toggle("--wmma"), spec, json}},
        {"disasm", "the generated SASS, in the form sass::assemble reads",
         {m, n, k, baseline, json}},
        {"check", "scoreboard hazard scan of every built-in kernel (docs/checking.md)",
         {m, n, k, json}},
        {"fuzz", "differential fuzz of two executors (docs/checking.md)",
         {count("--programs", "200", 0), seed, mode, Flag::toggle("--numeric-operands"),
          Flag::choice("--engine", {"timed", "jit"}), json}},
        {"numerics", "error-vs-k curves of the HMMA semantics (docs/numerics.md)",
         {dim("--m", "64"), dim("--n", "64"), dim("--k", "1024", 64), seed, json}},
        {"tune", "model-guided autotuner over the legal configs (docs/tuning.md)",
         {dim("--m", "256"), dim("--n", "256"), dim("--k", "64"), spec, budget,
          count("--explore", "", 0), seed, threads, Flag::choice("--engine", {"device", "model"}),
          top, cache, json}},
        {"serve", "seeded multi-tenant traffic through the GEMM server (docs/serving.md)",
         {count("--requests", "120", 0), count("--tenants", "2", 1), count("--workers", "2", 1),
          spec, cache, seed, budget, threads, json}},
        {"op", "lower, run and check a batched/split-K/epilogue GemmOp (docs/ops.md)",
         {m, n, k, count("--batch", "1", 1),
          Flag::choice("--split-k", {"1", "2", "4", "8", "16", "32", "64"}),
          Flag::real("--alpha", "1"), Flag::real("--beta", "0"), Flag::toggle("--bias"),
          Flag::choice("--act", {"none", "relu", "gelu"}), spec, check, baseline, mode, seed,
          json}},
    };
  }();
  return table;
}

/// Whether two output paths name one file: each is made absolute and then
/// resolved as write_file resolves it, so "./x.json" and "x.json" do.
bool same_file(const std::string& x, const std::string& y) {
  namespace fs = std::filesystem;
  std::error_code ex, ey;
  const fs::path px = fs::weakly_canonical(fs::absolute(x, ex), ex);
  const fs::path py = fs::weakly_canonical(fs::absolute(y, ey), ey);
  return !ex && !ey && px == py;
}

int usage() {
  std::cout << "usage: tcgemm_cli <command> [flags]\n"
               "Each flag shows its default, or its choices with the default first.\n";
  for (const Command& c : commands()) {
    std::cout << "  " << std::left << std::setw(10) << c.name << c.what << "\n"
              << flags_usage(c.flags, 12);
  }
  return 2;
}

void json_profile_fields(JsonWriter& j, const prof::Profiler& p, const prof::CounterSet& c,
                         int top_n) {
  j.key("profile");
  j.begin_object();
  j.field("cycles", c.cycles);
  j.field("instructions", c.instructions);
  j.key("pipes");
  j.begin_object();
  for (const int pipe : {prof::kPipeTensor, prof::kPipeFma, prof::kPipeAlu, prof::kPipeMio}) {
    j.key(prof::pipe_name(pipe));
    j.begin_object();
    j.field("issued", c.pipe_issue[static_cast<std::size_t>(pipe)]);
    j.field("busy_cycles", c.busy_cycles(pipe));
    j.field("utilization", c.utilization(pipe, p.partitions()));
    j.end_object();
  }
  j.end_object();
  j.field("l2_port_utilization", c.l2_port_utilization());
  j.field("bw_debt_stall_cycles", c.mio_bw_stall);
  j.field("smem_bank_replays", c.smem_beats - c.smem_phases);
  j.field("mshr_highwater", c.mshr_highwater);
  j.field("mio_queue_highwater", c.mio_queue_highwater);
  j.field("ldg_count", c.ldg_count);
  j.field("sts_count", c.sts_count);
  j.field("lds_count", c.lds_count);
  j.field("stg_count", c.stg_count);
  j.key("hot_pcs");
  j.begin_array();
  for (const auto& h : p.hot_pcs(top_n)) {
    j.begin_object();
    j.field("pc", h.pc);
    j.field("instruction", h.text);
    j.field("issued", h.issued);
    j.field("stall_cycles", h.stall_cycles);
    j.field("top_reason", prof::stall_reason_name(h.dominant));
    j.end_object();
  }
  j.end_array();
  j.end_object();
}

/// Runs `command`, printing its report and adding its payload to `json`;
/// returns the exit code.
int run_command(const std::string& command, const Flags& flags, core::HgemmConfig cfg,
                JsonWriter& json) {
  const auto gemm_shape = [&] {
    return GemmShape{flags.number("--m"), flags.number("--n"), flags.number("--k")};
  };

  if (command == "run") {
    const GemmShape s = gemm_shape();
    cfg.engine = sim::parse_exec_engine(flags.text("--engine"));
    Rng rng(1);
    HalfMatrix a(s.m, s.k), bt(s.n, s.k);
    a.randomize(rng, -0.5f, 0.5f);
    bt.randomize(rng, -0.5f, 0.5f);
    driver::Device dev(device::spec_by_name(flags.text("--device")));
    const HalfMatrix c = core::run_hgemm(dev, a, bt, cfg);
    std::cout << "ran " << cfg.name() << " on " << dev.spec().name << " (numerics="
              << numerics::numerics_mode_name(cfg.numerics)
              << ", engine=" << sim::exec_engine_name(cfg.engine) << "): C is " << c.rows()
              << " x " << c.cols() << ", C[0][0] = " << c.at(0, 0) << "\n";
    json.field("engine", sim::exec_engine_name(cfg.engine));
    int rc = 0;
    if (flags.given("--check")) {
      // The bit-exact reference must follow the launched semantics.
      const HalfMatrix ref = cfg.numerics == numerics::NumericsMode::kBitAccurate
                                 ? numerics::gemm_bitacc_f16(a, bt)
                                 : core::gemm_ref_tc(a, bt);
      const auto mismatches = core::mismatch_count(c, ref);
      std::cout << "bit-exact mismatches vs reference: " << mismatches << "\n";
      json.field("numerics", numerics::numerics_mode_name(cfg.numerics));
      json.field("mismatches", static_cast<std::uint64_t>(mismatches));
      rc = mismatches == 0 ? 0 : 1;
    }
    return rc;
  }

  if (command == "perf" && flags.text("--engine") == "device") {
    // Cycle-level multi-SM simulation of the whole grid (shared L2/DRAM,
    // dynamic CTA dispatch). Cost scales with m*n*k — intended for the
    // small shapes the cross-validation harness uses, not W = 16384.
    const device::DeviceSpec spec = device::spec_by_name(flags.text("--device"));
    const GemmShape shape = cfg.contract_shape(gemm_shape());
    model::ValidateKernelInput kin;
    kin.make_kernel = [&](const GemmShape& s) { return core::hgemm_kernel(cfg, s); };
    kin.name = cfg.name();
    kin.bm = cfg.bm;
    kin.bn = cfg.bn;
    kin.bk = cfg.bk;
    kin.ctas_per_sm = core::surrogate_ctas_per_sm(spec, cfg);
    kin.order = cfg.launch_order;
    kin.swizzle_max_grid_x = cfg.swizzle_max_grid_x;
    const model::WaveValidation v = model::validate_wave(spec, kin, shape);
    const double seconds = spec.cycles_to_seconds(static_cast<double>(v.device_cycles));
    const double tflops = shape.flops() / seconds / 1e12;
    std::cout << cfg.name() << " on " << spec.name << " for " << shape.m << " x " << shape.n
              << " x " << shape.k << " (engine=device):\n"
              << "  " << tflops << " TFLOPS, " << seconds * 1e3 << " ms, "
              << v.device_cycles << " device cycles over " << v.sms_used << " SMs\n"
              << v.report();
    json.key("device_perf");
    json.begin_object();
    json.field("engine", "device");
    json.field("tflops", tflops);
    json.field("ms", seconds * 1e3);
    json.field("device_cycles", v.device_cycles);
    json.field("model_cycles", v.model_cycles);
    json.field("rel_error", v.rel_error);
    json.field("model_l2_hit_rate", v.model_l2_hit_rate);
    json.field("device_l2_hit_rate", v.device_l2_hit_rate);
    json.field("tail_imbalance", v.tail_imbalance);
    json.field("sms_used", static_cast<std::uint64_t>(v.sms_used));
    json.field("ctas_per_sm", static_cast<std::uint64_t>(kin.ctas_per_sm));
    json.end_object();
    return 0;
  }

  if (command == "perf") {
    const device::DeviceSpec spec = device::spec_by_name(flags.text("--device"));
    const GemmShape s = gemm_shape();
    core::PerfEstimator est(spec, cfg);
    const auto p = est.estimate(s);
    std::cout << cfg.name() << " on " << est.spec().name << " for " << s.m << " x " << s.n
              << " x " << s.k << ":\n"
              << "  " << p.tflops << " TFLOPS, " << p.seconds * 1e3 << " ms, " << p.waves
              << " waves, L2 hit " << p.l2_hit_rate << ", " << p.cycles_per_iter
              << " cycles/iteration\n";
    json.key("perf");
    json.begin_object();
    json.field("tflops", p.tflops);
    json.field("ms", p.seconds * 1e3);
    json.field("waves", p.waves);
    json.field("l2_hit_rate", p.l2_hit_rate);
    json.field("dram_efficiency", p.dram_efficiency);
    json.field("cycles_per_iter", p.cycles_per_iter);
    json.field("ctas_per_sm", p.ctas_per_sm);
    json.end_object();

    if (flags.given("--profile")) {
      const std::string& trace_out = flags.text("--trace-out");
      const int top = flags.number<int>("--top");
      std::optional<prof::TraceWriter> trace;
      if (!trace_out.empty()) trace.emplace();
      const core::HgemmProfile hp =
          core::profile_hgemm(spec, cfg, s, trace ? &*trace : nullptr);
      std::cout << "\nsteady-state profile (" << hp.iterations << " main-loop iterations, "
                << hp.ctas_per_sm << " CTAs/SM, L2 hit "
                << fmt_fixed(hp.l2_hit_rate, 2) << "):\n";
      hp.profiler.print_report(std::cout, hp.counters, top);
      if (trace) {
        trace->write_file(trace_out);
        std::cout << "trace written to " << trace_out
                  << " (load in chrome://tracing or https://ui.perfetto.dev)\n";
      }
      json_profile_fields(json, hp.profiler, hp.counters, top);
    }
    return 0;
  }

  if (command == "lint") {
    const GemmShape shape = cfg.contract_shape(gemm_shape());
    const sass::Program prog = core::hgemm_kernel(cfg, shape);
    sass::validate(prog);
    const auto base = sass::lint(prog);
    const auto slack = sass::lint(prog, &sim::fixed_latency);
    std::cout << cfg.name() << " (" << prog.code.size() << " instructions): " << base.size()
              << " schedule warnings, " << slack.size() << " slack findings\n";
    for (const auto& w : base) std::cout << "  [schedule] " << w << "\n";
    for (const auto& w : slack) std::cout << "  [slack] " << w << "\n";
    json.key("schedule_warnings");
    json.begin_array();
    for (const auto& w : base) json.value(w);
    json.end_array();
    json.key("slack_findings");
    json.begin_array();
    for (const auto& w : slack) json.value(w);
    json.end_array();
    return 0;
  }

  if (command == "schedule") {
    // The scheduler's own before/after story on the real kernel: the
    // minimal mode only inserts stalls/barriers into the semantic order,
    // the full mode also hoists independent work into stall shadows.
    const device::DeviceSpec spec = device::spec_by_name(flags.text("--device"));
    const bool wmma = flags.given("--wmma");
    const GemmShape shape = wmma ? GemmShape{16, 128, 64} : cfg.contract_shape(gemm_shape());
    const std::string kernel_name = wmma ? "wmma_naive" : cfg.name();
    const sass::Program virt = wmma ? core::wmma_naive_kernel_virtual(shape)
                                    : core::hgemm_kernel_virtual(cfg, shape);

    sched::ScheduleOptions minimal_opts;
    minimal_opts.reorder = false;
    sched::ScheduleStats minimal_stats;
    sched::ScheduleStats full_stats;
    const sass::Program minimal = sched::schedule(virt, minimal_opts, minimal_stats);
    const sass::Program full = sched::schedule(virt, sched::ScheduleOptions{}, full_stats);

    // Single-CTA timed cycles for each mode (grid (1,1), fixed seed).
    const auto timed_cycles = [&](const sass::Program& prog) {
      driver::Device dev(spec);
      Rng rng(7);
      HalfMatrix a(shape.m, shape.k), bt(shape.n, shape.k);
      a.randomize(rng, -0.5f, 0.5f);
      bt.randomize(rng, -0.5f, 0.5f);
      auto da = dev.alloc<half>(a.size());
      auto db = dev.alloc<half>(bt.size());
      auto dc = dev.alloc<half>(shape.m * shape.n);
      dev.upload(da, std::span<const half>(a.data(), a.size()));
      dev.upload(db, std::span<const half>(bt.data(), bt.size()));
      sim::Launch launch;
      launch.program = &prog;
      launch.params = {da.addr, db.addr, dc.addr};
      const sim::CtaCoord cta{0, 0};
      return dev.run_timed(launch, std::span(&cta, 1), dev.timing_whole_device()).cycles;
    };
    const std::uint64_t minimal_cycles = timed_cycles(minimal);
    const std::uint64_t full_cycles = timed_cycles(full);
    const auto slack = sass::lint(full, &sim::fixed_latency);

    const auto print_stats = [](const char* mode, const sched::ScheduleStats& s,
                                std::uint64_t cycles) {
      std::cout << "  " << mode << ": " << s.instructions << " instructions (" << s.nops_inserted
                << " NOPs), " << s.reordered << " reordered, " << s.barriers_used
                << " barriers, " << s.waits_placed << " waits (" << s.waits_elided
                << " elided, " << s.waits_dropped << " dropped, " << s.waits_hoisted
                << " hoisted), " << s.reuse_flags << " reuse flags, "
                << s.static_issue_cycles << " static issue cycles -> " << cycles
                << " timed cycles\n";
    };
    std::cout << kernel_name << " on " << spec.name << " for " << shape.m << " x " << shape.n
              << " x " << shape.k << " (single CTA):\n";
    print_stats("minimal (no reorder)", minimal_stats, minimal_cycles);
    print_stats("full                ", full_stats, full_cycles);
    std::cout << "  stall slack: " << slack.size()
              << " findings from sass::lint over the shipped schedule\n";
    for (const auto& w : slack) std::cout << "    [slack] " << w << "\n";

    const auto stats_fields = [&](const char* key, const sched::ScheduleStats& s,
                                  std::uint64_t cycles) {
      json.key(key);
      json.begin_object();
      json.field("instructions", static_cast<std::uint64_t>(s.instructions));
      json.field("nops_inserted", static_cast<std::uint64_t>(s.nops_inserted));
      json.field("reordered", static_cast<std::uint64_t>(s.reordered));
      json.field("barriers_used", static_cast<std::uint64_t>(s.barriers_used));
      json.field("waits_placed", static_cast<std::uint64_t>(s.waits_placed));
      json.field("waits_elided", static_cast<std::uint64_t>(s.waits_elided));
      json.field("waits_dropped", static_cast<std::uint64_t>(s.waits_dropped));
      json.field("waits_hoisted", static_cast<std::uint64_t>(s.waits_hoisted));
      json.field("reuse_flags", static_cast<std::uint64_t>(s.reuse_flags));
      json.field("static_issue_cycles", static_cast<std::uint64_t>(s.static_issue_cycles));
      json.field("timed_cycles", cycles);
      json.end_object();
    };
    json.field("kernel", kernel_name);
    stats_fields("minimal", minimal_stats, minimal_cycles);
    stats_fields("full", full_stats, full_cycles);
    json.key("slack_findings");
    json.begin_array();
    for (const auto& w : slack) json.value(w);
    json.end_array();
    return 0;
  }

  if (command == "disasm") {
    const sass::Program prog = core::hgemm_kernel(cfg, cfg.contract_shape(gemm_shape()));
    std::cout << prog.disassemble();
    json.field("instructions", static_cast<std::uint64_t>(prog.code.size()));
    return 0;
  }

  if (command == "check") {
    // Every built-in kernel at its padded contract shape.
    const auto round_up = [](std::size_t v, std::size_t to) {
      return std::max(to, (v + to - 1) / to * to);
    };
    struct Target {
      std::string name;
      sass::Program prog;
    };
    const GemmShape s = gemm_shape();
    const GemmShape wmma_shape{round_up(s.m, 16), round_up(s.n, 128), round_up(s.k, 16)};
    const auto optimized = core::HgemmConfig::optimized();
    const auto cublas = core::HgemmConfig::cublas_like();
    std::vector<Target> targets;
    targets.push_back(
        {"hgemm_optimized", core::hgemm_kernel(optimized, optimized.contract_shape(s))});
    targets.push_back(
        {"hgemm_cublas_like", core::hgemm_kernel(cublas, cublas.contract_shape(s))});
    targets.push_back({"wmma_naive", core::wmma_naive_kernel(wmma_shape)});

    int total_errors = 0;
    json.key("kernels");
    json.begin_array();
    for (const auto& t : targets) {
      const auto diags = check::find_hazards(t.prog);
      const int errors = sass::count_errors(diags);
      const int warnings = static_cast<int>(diags.size()) - errors;
      total_errors += errors;
      std::cout << t.name << " (" << t.prog.code.size() << " instructions): " << errors
                << " errors, " << warnings << " warnings\n";
      for (const auto& d : diags) std::cout << "  " << sass::format(d) << "\n";
      json.begin_object();
      json.field("kernel", t.name);
      json.field("instructions", static_cast<std::uint64_t>(t.prog.code.size()));
      json.field("errors", static_cast<std::uint64_t>(errors));
      json.field("warnings", static_cast<std::uint64_t>(warnings));
      json.key("diagnostics");
      json.begin_array();
      for (const auto& d : diags) json.value(sass::format(d));
      json.end_array();
      json.end_object();
    }
    json.end_array();
    return total_errors == 0 ? 0 : 1;
  }

  if (command == "fuzz") {
    const std::uint64_t seed = flags.number("--seed");
    check::FuzzOptions fopts;
    fopts.numerics = cfg.numerics;
    fopts.numeric_operands = flags.given("--numeric-operands");
    const bool jit_fuzz = flags.text("--engine") == "jit";
    fopts.compare = jit_fuzz ? check::FuzzCompare::kJitVsInterpreter
                             : check::FuzzCompare::kFunctionalVsTimed;
    const check::FuzzReport rep = check::run_fuzz(seed, flags.number<int>("--programs"), fopts);
    std::cout << "fuzzed " << rep.programs << " programs (seed " << seed
              << ", numerics=" << numerics::numerics_mode_name(fopts.numerics)
              << (fopts.numeric_operands ? ", numeric operands" : "")
              << ", engines=" << (jit_fuzz ? "jit-vs-interpreter" : "functional-vs-timed")
              << "): " << rep.divergences << " divergences, " << rep.failures.size()
              << " failures\n";
    for (const auto& f : rep.failures) {
      std::cout << "\nseed " << f.seed << " [" << f.phase << "] shrunk "
                << f.original_size << " -> " << f.shrunk_size << " instructions\n"
                << f.detail << "\n"
                << f.program;
    }
    json.field("engines", jit_fuzz ? "jit-vs-interpreter" : "functional-vs-timed");
    json.field("programs", static_cast<std::uint64_t>(rep.programs));
    json.field("divergences", static_cast<std::uint64_t>(rep.divergences));
    json.key("failures");
    json.begin_array();
    for (const auto& f : rep.failures) {
      json.begin_object();
      json.field("seed", f.seed);
      json.field("phase", f.phase);
      json.field("detail", f.detail);
      json.field("original_size", static_cast<std::uint64_t>(f.original_size));
      json.field("shrunk_size", static_cast<std::uint64_t>(f.shrunk_size));
      json.field("program", f.program);
      json.end_object();
    }
    json.end_array();
    return rep.ok() ? 0 : 1;
  }

  if (command == "tune") {
    const device::DeviceSpec spec = device::spec_by_name(flags.text("--device"));
    const GemmShape s = gemm_shape();
    const std::string& cache_path = flags.text("--cache");
    const tune::CacheKey ckey = tune::cache_key(spec, s);
    tune::TuneCache cache;
    if (!cache_path.empty()) {
      tune::CacheLoadStats cstats;
      cache = tune::TuneCache::load(cache_path, &cstats);
      for (const auto& d : cstats.diagnostics) {
        std::cout << "cache: rejected entry — " << d << "\n";
      }
      if (const tune::CacheEntry* hit = cache.find(ckey)) {
        // Warm path: the persisted winner is served bit-for-bit; no search.
        std::cout << "cache hit for " << ckey.str() << " (bucket of " << s.m << " x " << s.n
                  << " x " << s.k << "): " << tune::candidate_name(hit->cfg)
                  << " at " << hit->sim_cycles << " simulated cycles (engine "
                  << hit->engine << ", budget " << hit->budget << ", seed " << hit->seed
                  << ")\n";
        json.key("tune");
        json.begin_object();
        json.field("engine", "cache");
        json.key("cache");
        json.begin_object();
        json.field("hit", true);
        json.field("key", ckey.str());
        json.field("bucket_m", static_cast<std::uint64_t>(ckey.m));
        json.field("bucket_n", static_cast<std::uint64_t>(ckey.n));
        json.field("bucket_k", static_cast<std::uint64_t>(ckey.k));
        json.end_object();
        json.key("best");
        json.begin_object();
        json.field("config", tune::candidate_name(hit->cfg));
        json.field("sim_cycles", hit->sim_cycles);
        json.end_object();
        json.end_object();
        return 0;
      }
      std::cout << "cache miss for " << ckey.str() << ": tuning at the bucket shape\n";
    }
    tune::TuneOptions opt;
    // With a cache, tune at the bucket's canonical shape so the stored
    // winner serves every shape that falls in the bucket.
    opt.shape = cache_path.empty() ? s : tune::bucket_shape(ckey);
    opt.budget = flags.number<int>("--budget");
    if (flags.given("--explore")) opt.explore = flags.number<int>("--explore");
    opt.seed = flags.number("--seed");
    opt.threads = flags.number<int>("--threads");
    // Timed-device is the tuner's default engine (the acceptance metric);
    // --engine model switches to the wave pipeline for paper-scale shapes.
    opt.engine = flags.text("--engine") == "model" ? tune::Engine::kWaveModel
                                               : tune::Engine::kTimedDevice;
    const tune::TuneResult r = tune::tune(spec, opt);
    const tune::Candidate& best = r.best();

    std::cout << "tuned " << spec.name << " @ " << s.m << " x " << s.n << " x " << s.k
              << " (engine=" << tune::engine_name(opt.engine) << ", seed "
              << opt.seed << "): " << r.prune.raw << " raw -> " << r.prune.legal
              << " legal -> " << r.prune.evaluated << " evaluated\n"
              << "pruned: " << r.prune.tiling << " tiling, " << r.prune.generator
              << " generator, " << r.prune.registers << " registers, " << r.prune.resources
              << " resources, " << r.prune.launch_order << " launch_order\n";
    TablePrinter t({"config", "regs", "CTAs/SM", "model rank", "model cycles", "sim cycles",
                    "TFLOPS"});
    const int top = flags.number<int>("--top");
    int shown = 0;
    for (const auto& c : r.ranked) {
      if (!c.evaluated || shown++ >= top) continue;
      t.add_row({c.name + (c.explored ? " *" : ""), std::to_string(c.regs),
                 std::to_string(c.occ.ctas_per_sm), std::to_string(c.model_rank),
                 fmt_fixed(c.model.cycles, 0), std::to_string(c.sim_cycles),
                 fmt_fixed(c.tflops, 2)});
    }
    t.print(std::cout);
    std::cout << "(* = seeded exploration pick)\n"
              << "best: " << best.name << " at " << best.sim_cycles << " simulated cycles ("
              << fmt_fixed(best.tflops, 2) << " TFLOPS, " << best.occ.ctas_per_sm
              << " CTAs/SM, model rank " << best.model_rank << ")\n"
              << "model-vs-simulated rank inversion rate: "
              << fmt_fixed(tune::rank_inversion_rate(r), 3) << "\n";

    if (!cache_path.empty()) {
      tune::CacheEntry e;
      e.key = ckey;
      e.cfg = best.cfg;
      e.sim_cycles = best.sim_cycles;
      e.budget = opt.budget;
      e.seed = opt.seed;
      e.engine = tune::engine_name(opt.engine);
      cache.insert(std::move(e));
      cache.save(cache_path);
      std::cout << "cache: stored winner for " << ckey.str() << " in " << cache_path << "\n";
    }

    json.key("tune");
    json.begin_object();
    json.field("engine", tune::engine_name(opt.engine));
    if (!cache_path.empty()) {
      json.key("cache");
      json.begin_object();
      json.field("hit", false);
      json.field("stored", true);
      json.field("key", ckey.str());
      json.field("bucket_m", static_cast<std::uint64_t>(ckey.m));
      json.field("bucket_n", static_cast<std::uint64_t>(ckey.n));
      json.field("bucket_k", static_cast<std::uint64_t>(ckey.k));
      json.end_object();
    }
    json.field("budget", static_cast<std::uint64_t>(opt.budget));
    json.field("seed", opt.seed);
    json.field("inversion_rate", tune::rank_inversion_rate(r));
    json.key("prune");
    json.begin_object();
    json.field("raw", static_cast<std::uint64_t>(r.prune.raw));
    json.field("tiling", static_cast<std::uint64_t>(r.prune.tiling));
    json.field("generator", static_cast<std::uint64_t>(r.prune.generator));
    json.field("registers", static_cast<std::uint64_t>(r.prune.registers));
    json.field("resources", static_cast<std::uint64_t>(r.prune.resources));
    json.field("launch_order", static_cast<std::uint64_t>(r.prune.launch_order));
    json.field("legal", static_cast<std::uint64_t>(r.prune.legal));
    json.field("evaluated", static_cast<std::uint64_t>(r.prune.evaluated));
    json.end_object();
    const auto candidate_fields = [&](const tune::Candidate& c) {
      json.begin_object();
      json.field("config", c.name);
      json.field("regs", static_cast<std::uint64_t>(c.regs));
      json.field("ctas_per_sm", static_cast<std::uint64_t>(c.occ.ctas_per_sm));
      json.field("limiter", device::limiter_name(c.occ.limiter));
      json.field("model_rank", static_cast<std::uint64_t>(c.model_rank));
      json.field("model_cycles", c.model.cycles);
      json.field("sim_cycles", c.sim_cycles);
      json.field("tflops", c.tflops);
      json.field("sms_used", static_cast<std::uint64_t>(c.sms_used));
      json.field("explored", c.explored);
      json.field("hazard_diags", static_cast<std::uint64_t>(c.hazard_diags));
      json.end_object();
    };
    json.key("best");
    candidate_fields(best);
    json.key("candidates");
    json.begin_array();
    for (const auto& c : r.ranked) {
      if (c.evaluated) candidate_fields(c);
    }
    json.end_array();
    json.end_object();
    return 0;
  }

  if (command == "numerics") {
    // Error-vs-shape curves: m x n fixed, k doubling from 64 up to --k,
    // fresh seeded inputs per point, all three semantics against the
    // double-precision oracle. Reproduces the related-work observation
    // that FP16 accumulation degrades with k while FP32 stays flat.
    numerics::CurveOptions copts;
    copts.m = flags.number("--m");
    copts.n = flags.number("--n");
    copts.seed = flags.number("--seed");
    copts.ks.clear();
    const std::uint64_t k_max = flags.number("--k");
    for (std::size_t kk = 64; kk <= k_max; kk *= 2) copts.ks.push_back(kk);
    const std::vector<numerics::ErrorPoint> points = numerics::error_curves(copts);

    const auto sci = [](double v) {
      char buf[32];
      std::snprintf(buf, sizeof(buf), "%.3e", v);
      return std::string(buf);
    };
    std::cout << "numerics error curves at " << copts.m << " x " << copts.n
              << " (seed " << copts.seed << ", values in [" << copts.lo << ", "
              << copts.hi << "]), max/mean relative error vs double oracle:\n";
    TablePrinter t({"k", "idealized f16 max", "bitacc f16 max", "bitacc f32 max",
                    "bitacc f16 mean", "bitacc f32 mean"});
    for (const auto& p : points) {
      t.add_row({std::to_string(p.k), sci(p.idealized_f16.max_rel),
                 sci(p.bitacc_f16.max_rel), sci(p.bitacc_f32.max_rel),
                 sci(p.bitacc_f16.mean_rel), sci(p.bitacc_f32.mean_rel)});
    }
    t.print(std::cout);

    json.key("numerics");
    json.begin_object();
    json.field("seed", copts.seed);
    json.key("modes");
    json.begin_array();
    json.value(numerics::numerics_mode_name(numerics::NumericsMode::kIdealized));
    json.value(numerics::numerics_mode_name(numerics::NumericsMode::kBitAccurate));
    json.end_array();
    json.key("points");
    json.begin_array();
    for (const auto& p : points) {
      json.begin_object();
      json.field("k", static_cast<std::uint64_t>(p.k));
      json.field("idealized_f16_max_rel", p.idealized_f16.max_rel);
      json.field("idealized_f16_mean_rel", p.idealized_f16.mean_rel);
      json.field("bitacc_f16_max_rel", p.bitacc_f16.max_rel);
      json.field("bitacc_f16_mean_rel", p.bitacc_f16.mean_rel);
      json.field("bitacc_f32_max_rel", p.bitacc_f32.max_rel);
      json.field("bitacc_f32_mean_rel", p.bitacc_f32.mean_rel);
      json.end_object();
    }
    json.end_array();
    json.end_object();
    return 0;
  }

  if (command == "op") {
    const GemmShape s = gemm_shape();
    const double alpha = flags.number<double>("--alpha");
    const double beta = flags.number<double>("--beta");
    const std::string& act = flags.text("--act");
    op::GemmOp gemm;
    gemm.shape = s;
    gemm.batch.count = flags.number<int>("--batch");
    gemm.split_k = std::stoi(flags.text("--split-k"));
    gemm.epilogue.alpha = static_cast<float>(alpha);
    gemm.epilogue.beta = static_cast<float>(beta);
    gemm.epilogue.bias = flags.given("--bias");
    gemm.epilogue.act = act == "relu"   ? core::Activation::kRelu
                        : act == "gelu" ? core::Activation::kGelu
                                        : core::Activation::kNone;
    const op::OpPlan plan = op::lower(gemm, cfg);

    const auto batch = static_cast<std::size_t>(gemm.batch.count);
    Rng rng(flags.number("--seed"));
    std::vector<half> a(batch * s.m * s.k);
    std::vector<half> bt(batch * s.n * s.k);
    std::vector<half> c_in(batch * s.m * s.n);
    std::vector<half> bias(s.n);
    for (auto& v : a) v = rng.next_half(-0.5f, 0.5f);
    for (auto& v : bt) v = rng.next_half(-0.5f, 0.5f);
    for (auto& v : c_in) v = rng.next_half(-0.5f, 0.5f);
    for (auto& v : bias) v = rng.next_half(-0.5f, 0.5f);
    op::OpInputs in{a, bt, c_in, bias};

    driver::Device dev(device::spec_by_name(flags.text("--device")));
    const std::vector<half> out = op::run_gemm_op(dev, gemm, in, cfg);

    const auto role_name = [](op::LaunchRole r) {
      return r == op::LaunchRole::kMain ? "main" : "reduce";
    };
    std::cout << "op on " << dev.spec().name << ": " << gemm.batch.count << " x (" << s.m
              << " x " << s.n << " x " << s.k << "), split_k " << gemm.split_k
              << ", epilogue alpha " << alpha << " beta " << beta
              << (gemm.epilogue.bias ? " +bias" : "") << " act " << act << " -> "
              << plan.launches.size() << " launch(es), "
              << (plan.fused ? "fused epilogue" : "separate reduce/epilogue pass")
              << ", workspace " << plan.workspace_elems << " halves\n";
    for (const auto& l : plan.launches) {
      std::cout << "  [" << role_name(l.role) << "] " << l.program.name << " grid ("
                << l.grid_x << ", " << l.grid_y << ", " << l.grid_z << "), "
                << l.program.code.size() << " instructions\n";
    }

    int rc = 0;
    std::size_t mismatches = 0;
    if (flags.given("--check")) {
      const std::vector<half> ref = op::gemm_op_ref(gemm, in, cfg, cfg.numerics);
      for (std::size_t i = 0; i < out.size(); ++i) {
        mismatches += out[i].bits() != ref[i].bits() ? 1 : 0;
      }
      std::cout << "bit-exact mismatches vs op reference: " << mismatches << "\n";
      rc = mismatches == 0 ? 0 : 1;
    }

    json.key("op");
    json.begin_object();
    json.field("batch", static_cast<std::uint64_t>(gemm.batch.count));
    json.field("split_k", static_cast<std::uint64_t>(gemm.split_k));
    json.field("alpha", alpha);
    json.field("beta", beta);
    json.field("bias", gemm.epilogue.bias);
    json.field("act", act);
    json.field("fused", plan.fused);
    json.field("workspace_elems", static_cast<std::uint64_t>(plan.workspace_elems));
    json.key("launches");
    json.begin_array();
    for (const auto& l : plan.launches) {
      json.begin_object();
      json.field("role", role_name(l.role));
      json.field("kernel", l.program.name);
      json.field("grid_x", static_cast<std::uint64_t>(l.grid_x));
      json.field("grid_y", static_cast<std::uint64_t>(l.grid_y));
      json.field("grid_z", static_cast<std::uint64_t>(l.grid_z));
      json.field("instructions", static_cast<std::uint64_t>(l.program.code.size()));
      json.end_object();
    }
    json.end_array();
    if (flags.given("--check")) {
      json.field("numerics", numerics::numerics_mode_name(cfg.numerics));
      json.field("mismatches", static_cast<std::uint64_t>(mismatches));
    }
    json.end_object();
    return rc;
  }

  if (command == "serve") {
    const device::DeviceSpec spec = device::spec_by_name(flags.text("--device"));
    serve::ServerOptions sopt;
    sopt.spec = spec;
    sopt.workers = flags.number<int>("--workers");
    sopt.threads = flags.number<int>("--threads");
    sopt.tune_budget = flags.number<int>("--budget");
    sopt.cache_path = flags.text("--cache");

    serve::TrafficOptions topt;
    topt.requests = flags.number<int>("--requests");
    topt.tenants = flags.number<int>("--tenants");
    topt.seed = flags.number("--seed");
    const std::vector<serve::Request> traffic = serve::llm_traffic(topt);

    serve::Server server(sopt);
    for (const auto& d : server.load_stats().diagnostics) {
      std::cout << "cache: rejected entry — " << d << "\n";
    }
    const serve::Metrics m = server.run(traffic);
    const auto& c = m.counters;

    std::cout << "served " << c.completed << "/" << c.requests << " requests (" << c.shed
              << " shed) on " << spec.name << " with " << sopt.workers
              << " workers (seed " << topt.seed << ")\n"
              << "  batches: " << c.batches << " (" << fmt_fixed(
                     c.batches > 0 ? static_cast<double>(c.batched_requests) /
                                         static_cast<double>(c.batches)
                                   : 0.0, 2)
              << " requests/pass), cache hit rate " << fmt_fixed(m.cache_hit_rate, 3)
              << " (" << c.cache_hits << "/" << c.cache_lookups << "), " << c.tune_evals
              << " tune evals, " << c.hazard_diags << " hazard diags\n"
              << "  latency: p50 " << fmt_fixed(m.p50_cycles, 0) << " cycles ("
              << fmt_fixed(m.p50_ms, 3) << " ms), p99 " << fmt_fixed(m.p99_cycles, 0)
              << " cycles (" << fmt_fixed(m.p99_ms, 3) << " ms)\n"
              << "  throughput: " << fmt_fixed(m.qps, 1) << " QPS, worker utilization "
              << fmt_fixed(m.worker_utilization, 3) << " over "
              << m.makespan_cycles << " cycles\n";
    TablePrinter t({"tenant", "weight", "accepted", "shed", "completed", "share",
                    "p50 cycles", "p99 cycles"});
    for (const auto& ts : m.tenants) {
      t.add_row({std::to_string(ts.tenant), std::to_string(ts.weight),
                 std::to_string(ts.accepted), std::to_string(ts.shed),
                 std::to_string(ts.completed), fmt_fixed(ts.share, 3),
                 fmt_fixed(ts.p50_cycles, 0), fmt_fixed(ts.p99_cycles, 0)});
    }
    t.print(std::cout);
    if (!sopt.cache_path.empty()) {
      std::cout << "cache: " << server.cache().size() << " entries in " << sopt.cache_path
                << "\n";
    }

    json.key("serve");
    serve::write_metrics_json(json, m);
    return 0;
  }

  TC_ASSERT(false, "unhandled command " + command);
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const auto& cmds = commands();
    const auto it = std::find_if(cmds.begin(), cmds.end(), [&](const Command& c) {
      return argc >= 2 && std::strcmp(c.name, argv[1]) == 0;
    });
    if (it == cmds.end()) return usage();
    const std::string command = it->name;
    const Flags flags(command, it->flags, argc, argv, 2);
    if (command == "perf") {
      // --top and --trace-out need --profile, which the device engine does
      // not take.
      for (const std::string flag : {"--profile", "--top", "--trace-out"}) {
        if (!flags.given(flag)) continue;
        if (flags.text("--engine") == "device") {
          throw Error("perf --engine device does not take " + flag);
        }
        if (!flags.given("--profile")) throw Error("perf " + flag + " needs --profile");
      }
    }
    // Two outputs written to one file would replace each other.
    const std::vector<std::string> outputs = {"--json", "--trace-out", "--cache"};
    for (std::size_t x = 0; x < outputs.size(); ++x) {
      for (std::size_t y = x + 1; y < outputs.size(); ++y) {
        if (flags.given(outputs[x]) && flags.given(outputs[y]) &&
            same_file(flags.text(outputs[x]), flags.text(outputs[y]))) {
          throw Error(outputs[x] + " " + flags.text(outputs[x]) + " and " + outputs[y] + " " +
                      flags.text(outputs[y]) + " name one file");
        }
      }
    }
    auto cfg = flags.given("--baseline") ? core::HgemmConfig::cublas_like()
                                         : core::HgemmConfig::optimized();
    if (flags.given("--numerics")) {  // its choices are the names parse_numerics_mode reads
      (void)numerics::parse_numerics_mode(flags.text("--numerics"), cfg.numerics);
    }

    // The tc-cli-v1 document is built in memory and written once the command
    // returns, whatever its exit code; an error leaves --json as it was.
    std::ostringstream doc;
    JsonWriter json(doc);
    json.begin_object();
    json.field("schema", "tc-cli-v1");
    json.field("command", command);
    json.field("config", cfg.name());
    // A command without --device or a shape reports the values those flags
    // default to elsewhere, so every document has the same header.
    json.field("device", flags.takes("--device") ? flags.text("--device") : "rtx2070");
    json.field("m", flags.takes("--m") ? flags.number("--m") : 512);
    json.field("n", flags.takes("--n") ? flags.number("--n") : 512);
    json.field("k", flags.takes("--k") ? flags.number("--k") : 256);
    const int rc = run_command(command, flags, cfg, json);
    json.end_object();
    doc << "\n";
    if (const std::string& path = flags.text("--json"); !path.empty()) {
      write_file(path, doc.str());
      std::cout << "json written to " << path << "\n";
    }
    return rc;
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
}
