// tcgemm_cli — command-line front end for the library.
//
//   tcgemm_cli run  --m 512 --n 512 --k 256 [--device rtx2070] [--check]
//                   [--engine interpret|jit]
//   tcgemm_cli perf --m 8192 --n 8192 --k 8192 [--device t4] [--baseline]
//                   [--profile] [--top N] [--trace-out trace.json]
//   tcgemm_cli lint [--m M --n N --k K] [--baseline]
//   tcgemm_cli schedule [--m M --n N --k K] [--baseline] [--wmma] [--device rtx2070]
//   tcgemm_cli disasm [--baseline]
//   tcgemm_cli check [--m M --n N --k K]
//   tcgemm_cli fuzz [--programs N] [--seed S] [--numerics idealized|bitaccurate]
//                   [--numeric-operands] [--engine timed|jit]
//   tcgemm_cli numerics [--m M --n N] [--k KMAX] [--seed S]
//   tcgemm_cli tune [--m M --n N --k K] [--device rtx2070|t4] [--budget N]
//                   [--explore N] [--seed S] [--threads N] [--engine device|model]
//                   [--cache winners.json]
//   tcgemm_cli serve [--requests N] [--tenants N] [--workers N] [--device rtx2070|t4]
//                    [--cache winners.json] [--seed S] [--budget N] [--threads N]
//   tcgemm_cli op    [--m M --n N --k K] [--batch B] [--split-k S] [--alpha A]
//                    [--beta B] [--bias] [--act none|relu|gelu] [--check]
//
// `run` executes the kernel functionally on the simulator (optionally
// validating against the bit-exact reference); `perf` prints the estimated
// full-device time/TFLOPS and, with --profile, hardware-style counters for
// the steady-state portion (pipe utilization, stall attribution, optional
// Chrome-trace timeline for chrome://tracing / Perfetto); `lint` runs the
// static schedule checks including the latency-table slack analysis;
// `schedule` compares the automatic scheduler's minimal (no-reorder) and
// full pipelines on the real kernel: pass statistics, single-CTA timed
// cycles for each mode, and the stall-slack lint of the shipped schedule;
// `disasm` dumps the generated SASS; `check` runs the scoreboard hazard
// detector (src/check) over every built-in kernel and fails on any error;
// `fuzz` differentially fuzzes the two executors (see docs/checking.md);
// `numerics` sweeps error-vs-k curves comparing idealized, bit-accurate
// FP16-accumulate and bit-accurate FP32-accumulate HMMA semantics against a
// double-precision oracle (see docs/numerics.md);
// `op` lowers a GemmOp (batched / split-K / fused-epilogue GEMM) to its
// kernel-launch plan, executes it on the simulator and optionally checks the
// output bitwise against the op-level host reference (see docs/ops.md);
// `tune` runs the model-guided autotuner over the legal config space and
// prints the ranked candidates (see docs/tuning.md); with --cache it answers
// from / appends to the persistent shape-bucketed tuning cache; `serve`
// replays seeded multi-tenant GEMM traffic through the serving layer
// (tc::serve) against the same cache (see docs/serving.md).
// All commands accept --json <path> for machine-readable output.
#include <charconv>
#include <climits>
#include <cstring>
#include <fstream>
#include <iostream>
#include <limits>
#include <optional>
#include <sstream>
#include <string>
#include <type_traits>

#include "check/fuzz.hpp"
#include "check/hazard.hpp"
#include "common/json.hpp"
#include "common/rng.hpp"
#include "common/table.hpp"
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

struct Args {
  std::string command;
  std::size_t m = 512, n = 512, k = 256;
  std::string device = "rtx2070";
  bool check = false;
  bool baseline = false;
  bool wmma = false;
  bool profile = false;
  int top = 10;
  bool top_set = false;          // --top given explicitly
  int programs = 200;
  std::uint64_t seed = 1;
  std::string trace_out;
  std::string json;
  /// Meaning is per command — perf/tune: "model" (WavePerf) or "device"
  /// (TimedDevice); run: "interpret" or "jit" (functional engine); fuzz:
  /// "timed" (functional-vs-timed) or "jit" (jit-vs-interpreter).
  std::string engine = "model";
  bool shape_set = false;        // any of --m/--n/--k given
  bool mn_set = false;           // --m or --n given explicitly
  bool k_set = false;            // --k given explicitly
  bool engine_set = false;
  int budget = 24;   // tune: timed evaluations
  int explore = -1;  // tune: seeded off-rank picks (-1 = budget/4)
  int threads = 1;   // tune: host evaluation threads
  std::string cache;  // tune/serve: persistent tuning-cache file
  int requests = 120; // serve: traffic size
  int tenants = 2;    // serve: traffic tenants
  int workers = 2;    // serve: simulated device workers
  /// HMMA semantics for run/fuzz (--numerics idealized|bitaccurate).
  numerics::NumericsMode numerics = numerics::NumericsMode::kIdealized;
  bool numeric_operands = false;  // fuzz: numerics operand class
  int batch = 1;        // op: strided-batch count
  int split_k = 1;      // op: split-K factor
  double alpha = 1.0;   // op: epilogue alpha
  double beta = 0.0;    // op: epilogue beta
  bool bias = false;    // op: per-column bias row
  std::string act = "none";  // op: activation (none|relu|gelu)
};

/// Largest --m/--n/--k accepted.
constexpr std::uint64_t kMaxDim = std::uint64_t{1} << 20;

/// The value of numeric flag `flag`: all of `text` as a T in [lo, hi].
/// Integer flags are sizes and counts, so they take decimal digits only (no
/// sign); real flags take any finite decimal number. The error names the
/// flag and the value.
template <typename T>
T parse_number(const std::string& flag, const std::string& text,
               T lo = std::numeric_limits<T>::lowest(), T hi = std::numeric_limits<T>::max()) {
  static_assert(std::is_same_v<T, std::uint64_t> || std::is_same_v<T, double>);
  T v{};
  const char* end = text.data() + text.size();
  const auto [stop, ec] = std::from_chars(text.data(), end, v);
  if (text.empty() || ec != std::errc{} || stop != end || !(v >= lo && v <= hi)) {
    std::ostringstream want;
    if constexpr (std::is_integral_v<T>) {
      want << "an integer in [" << lo << ", " << hi << "]";
    } else {
      want << "a finite number";
    }
    throw Error(flag + " takes " + want.str() + ", got '" + text + "'");
  }
  return v;
}

Args parse(int argc, char** argv) {
  Args a;
  if (argc < 2) return a;
  a.command = argv[1];
  for (int i = 2; i < argc; ++i) {
    const std::string flag = argv[i];
    auto value = [&]() -> std::string {
      TC_CHECK(i + 1 < argc, "flag " + flag + " needs a value");
      return argv[++i];
    };
    const auto dim = [&] { return parse_number<std::uint64_t>(flag, value(), 1, kMaxDim); };
    const auto count = [&](std::uint64_t lo) {
      return static_cast<int>(parse_number<std::uint64_t>(flag, value(), lo, INT_MAX));
    };
    if (flag == "--m") {
      a.m = dim();
      a.shape_set = true;
      a.mn_set = true;
    } else if (flag == "--n") {
      a.n = dim();
      a.shape_set = true;
      a.mn_set = true;
    } else if (flag == "--k") {
      a.k = dim();
      a.shape_set = true;
      a.k_set = true;
    } else if (flag == "--device") {
      a.device = value();
    } else if (flag == "--check") {
      a.check = true;
    } else if (flag == "--baseline") {
      a.baseline = true;
    } else if (flag == "--wmma") {
      a.wmma = true;
    } else if (flag == "--profile") {
      a.profile = true;
    } else if (flag == "--top") {
      a.top = count(0);
      a.top_set = true;
    } else if (flag == "--programs") {
      a.programs = count(0);
    } else if (flag == "--seed") {
      a.seed = parse_number<std::uint64_t>(flag, value());
    } else if (flag == "--trace-out") {
      a.trace_out = value();
    } else if (flag == "--json") {
      a.json = value();
    } else if (flag == "--engine") {
      a.engine = value();
      a.engine_set = true;
      // Command-specific values are checked at the command; here only gate
      // the union so typos fail at parse time.
      TC_CHECK(a.engine == "model" || a.engine == "device" || a.engine == "interpret" ||
                   a.engine == "jit" || a.engine == "timed",
               "--engine must be one of model|device|interpret|jit|timed");
    } else if (flag == "--budget") {
      a.budget = count(1);
    } else if (flag == "--explore") {
      a.explore = count(0);
    } else if (flag == "--threads") {
      a.threads = count(1);
    } else if (flag == "--cache") {
      a.cache = value();
    } else if (flag == "--requests") {
      a.requests = count(0);
    } else if (flag == "--tenants") {
      a.tenants = count(1);
    } else if (flag == "--workers") {
      a.workers = count(1);
    } else if (flag == "--numerics") {
      const std::string v = value();
      TC_CHECK(numerics::parse_numerics_mode(v, a.numerics),
               "--numerics must be 'idealized' or 'bitaccurate'");
    } else if (flag == "--numeric-operands") {
      a.numeric_operands = true;
    } else if (flag == "--batch") {
      a.batch = count(1);
    } else if (flag == "--split-k") {
      a.split_k = count(1);
    } else if (flag == "--alpha") {
      a.alpha = parse_number<double>(flag, value());
    } else if (flag == "--beta") {
      a.beta = parse_number<double>(flag, value());
    } else if (flag == "--bias") {
      a.bias = true;
    } else if (flag == "--act") {
      a.act = value();
      TC_CHECK(a.act == "none" || a.act == "relu" || a.act == "gelu",
               "--act must be 'none', 'relu' or 'gelu'");
    } else {
      throw Error("unknown flag " + flag);
    }
  }
  if (a.command == "numerics") {
    // Small m/n keep the sweep fast; the interesting axis is k.
    if (!a.mn_set) {
      a.m = 64;
      a.n = 64;
    }
    if (!a.k_set) a.k = 1024;
  }
  if (a.command == "tune" && !a.shape_set) {
    // tune defaults to the shape the recorded single-CTA baselines use, so
    // `tcgemm_cli tune` is directly comparable to the hand-derived 16090.
    a.m = 256;
    a.n = 256;
    a.k = 64;
  }
  return a;
}

bool known_command(const std::string& command) {
  for (const char* c : {"run", "perf", "lint", "schedule", "disasm", "check", "fuzz", "numerics",
                        "tune", "serve", "op"}) {
    if (command == c) return true;
  }
  return false;
}

int usage() {
  std::cout
      << "usage:\n"
         "  tcgemm_cli run    --m M --n N --k K [--device rtx2070|t4] [--check] [--baseline]\n"
         "                    [--engine interpret|jit]\n"
         "  tcgemm_cli perf   --m M --n N --k K [--device rtx2070|t4] [--baseline]\n"
         "                    [--engine model|device] [--profile] [--top N]\n"
         "                    [--trace-out trace.json]\n"
         "  tcgemm_cli lint   [--m M --n N --k K] [--baseline]\n"
         "  tcgemm_cli schedule [--m M --n N --k K] [--baseline] [--wmma]\n"
         "                    [--device rtx2070|t4]\n"
         "  tcgemm_cli disasm [--m M --n N --k K] [--baseline]\n"
         "  tcgemm_cli check  [--m M --n N --k K]\n"
         "  tcgemm_cli fuzz   [--programs N] [--seed S] [--numerics idealized|bitaccurate]\n"
         "                    [--numeric-operands] [--engine timed|jit]\n"
         "  tcgemm_cli numerics [--m M --n N] [--k KMAX] [--seed S]\n"
         "  tcgemm_cli tune   [--m M --n N --k K] [--device rtx2070|t4] [--budget N]\n"
         "                    [--explore N] [--seed S] [--threads N] [--engine device|model]\n"
         "                    [--top N] [--cache winners.json]\n"
         "  tcgemm_cli serve  [--requests N] [--tenants N] [--workers N]\n"
         "                    [--device rtx2070|t4] [--cache winners.json] [--seed S]\n"
         "                    [--budget N] [--threads N]\n"
         "  tcgemm_cli op     [--m M --n N --k K] [--batch B] [--split-k S]\n"
         "                    [--alpha A] [--beta B] [--bias] [--act none|relu|gelu]\n"
         "                    [--device rtx2070|t4] [--check] [--baseline]\n"
         "                    [--numerics idealized|bitaccurate]\n"
         "common: --json <path> writes machine-readable results;\n"
         "        run accepts --numerics idealized|bitaccurate (HMMA math semantics)\n";
  return 2;
}

/// The padded kernel-contract shape for disasm/lint.
GemmShape contract_shape(const Args& args, const core::HgemmConfig& cfg) {
  return cfg.contract_shape({args.m, args.n, args.k});
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

}  // namespace

int main(int argc, char** argv) {
  try {
    const Args args = parse(argc, argv);
    if (!known_command(args.command)) return usage();
    auto cfg =
        args.baseline ? core::HgemmConfig::cublas_like() : core::HgemmConfig::optimized();
    cfg.numerics = args.numerics;

    std::ofstream json_os;
    std::optional<JsonWriter> json;
    if (!args.json.empty()) {
      json_os.open(args.json);
      TC_CHECK(json_os.good(), "cannot open " + args.json + " for writing");
      json.emplace(json_os);
      json->begin_object();
      json->field("schema", "tc-cli-v1");
      json->field("command", args.command);
      json->field("config", cfg.name());
      json->field("device", args.device);
      json->field("m", static_cast<std::uint64_t>(args.m));
      json->field("n", static_cast<std::uint64_t>(args.n));
      json->field("k", static_cast<std::uint64_t>(args.k));
    }
    const auto finish_json = [&] {
      if (json) {
        json->end_object();
        json_os << "\n";
        std::cout << "json written to " << args.json << "\n";
      }
    };

    if (args.command == "run") {
      if (args.engine_set) {
        TC_CHECK(args.engine == "interpret" || args.engine == "jit",
                 "run --engine must be 'interpret' or 'jit'");
        cfg.engine = sim::parse_exec_engine(args.engine);
      }
      Rng rng(1);
      HalfMatrix a(args.m, args.k), bt(args.n, args.k);
      a.randomize(rng, -0.5f, 0.5f);
      bt.randomize(rng, -0.5f, 0.5f);
      driver::Device dev(device::spec_by_name(args.device));
      const HalfMatrix c = core::run_hgemm(dev, a, bt, cfg);
      std::cout << "ran " << cfg.name() << " on " << dev.spec().name << " (numerics="
                << numerics::numerics_mode_name(cfg.numerics)
                << ", engine=" << sim::exec_engine_name(cfg.engine) << "): C is " << c.rows()
                << " x " << c.cols() << ", C[0][0] = " << c.at(0, 0) << "\n";
      if (json) json->field("engine", sim::exec_engine_name(cfg.engine));
      int rc = 0;
      if (args.check) {
        // The bit-exact reference must follow the launched semantics.
        const HalfMatrix ref = cfg.numerics == numerics::NumericsMode::kBitAccurate
                                   ? numerics::gemm_bitacc_f16(a, bt)
                                   : core::gemm_ref_tc(a, bt);
        const auto mismatches = core::mismatch_count(c, ref);
        std::cout << "bit-exact mismatches vs reference: " << mismatches << "\n";
        if (json) {
          json->field("numerics", numerics::numerics_mode_name(cfg.numerics));
          json->field("mismatches", static_cast<std::uint64_t>(mismatches));
        }
        rc = mismatches == 0 ? 0 : 1;
      }
      finish_json();
      return rc;
    }

    if (args.command == "perf") {
      if (args.engine_set) {
        TC_CHECK(args.engine == "model" || args.engine == "device",
                 "perf --engine must be 'model' or 'device'");
      }
      // A flag perf cannot apply is an error, never silently ignored.
      if (args.engine == "device") {
        TC_CHECK(!args.profile, "perf --engine device does not support --profile");
        TC_CHECK(args.trace_out.empty(), "perf --engine device does not support --trace-out");
        TC_CHECK(!args.top_set, "perf --engine device does not support --top");
      } else if (!args.profile) {
        TC_CHECK(args.trace_out.empty(), "perf --trace-out needs --profile");
        TC_CHECK(!args.top_set, "perf --top needs --profile");
      }
    }
    if (args.command == "perf" && args.engine == "device") {
      // Cycle-level multi-SM simulation of the whole grid (shared L2/DRAM,
      // dynamic CTA dispatch). Cost scales with m*n*k — intended for the
      // small shapes the cross-validation harness uses, not W = 16384.
      const device::DeviceSpec spec = device::spec_by_name(args.device);
      const GemmShape shape = contract_shape(args, cfg);
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
      const double seconds =
          spec.cycles_to_seconds(static_cast<double>(v.device_cycles));
      const double tflops = shape.flops() / seconds / 1e12;
      std::cout << cfg.name() << " on " << spec.name << " for " << shape.m << " x " << shape.n
                << " x " << shape.k << " (engine=device):\n"
                << "  " << tflops << " TFLOPS, " << seconds * 1e3 << " ms, "
                << v.device_cycles << " device cycles over " << v.sms_used << " SMs\n"
                << v.report();
      if (json) {
        json->key("device_perf");
        json->begin_object();
        json->field("engine", "device");
        json->field("tflops", tflops);
        json->field("ms", seconds * 1e3);
        json->field("device_cycles", v.device_cycles);
        json->field("model_cycles", v.model_cycles);
        json->field("rel_error", v.rel_error);
        json->field("model_l2_hit_rate", v.model_l2_hit_rate);
        json->field("device_l2_hit_rate", v.device_l2_hit_rate);
        json->field("tail_imbalance", v.tail_imbalance);
        json->field("sms_used", static_cast<std::uint64_t>(v.sms_used));
        json->field("ctas_per_sm", static_cast<std::uint64_t>(kin.ctas_per_sm));
        json->end_object();
      }
      finish_json();
      return 0;
    }

    if (args.command == "perf") {
      const device::DeviceSpec spec = device::spec_by_name(args.device);
      core::PerfEstimator est(spec, cfg);
      const auto p = est.estimate({args.m, args.n, args.k});
      std::cout << cfg.name() << " on " << est.spec().name << " for " << args.m << " x "
                << args.n << " x " << args.k << ":\n"
                << "  " << p.tflops << " TFLOPS, " << p.seconds * 1e3 << " ms, " << p.waves
                << " waves, L2 hit " << p.l2_hit_rate << ", " << p.cycles_per_iter
                << " cycles/iteration\n";
      if (json) {
        json->key("perf");
        json->begin_object();
        json->field("tflops", p.tflops);
        json->field("ms", p.seconds * 1e3);
        json->field("waves", p.waves);
        json->field("l2_hit_rate", p.l2_hit_rate);
        json->field("dram_efficiency", p.dram_efficiency);
        json->field("cycles_per_iter", p.cycles_per_iter);
        json->field("ctas_per_sm", p.ctas_per_sm);
        json->end_object();
      }

      if (args.profile) {
        std::optional<prof::TraceWriter> trace;
        if (!args.trace_out.empty()) trace.emplace();
        const core::HgemmProfile hp = core::profile_hgemm(
            spec, cfg, {args.m, args.n, args.k}, trace ? &*trace : nullptr);
        std::cout << "\nsteady-state profile (" << hp.iterations << " main-loop iterations, "
                  << hp.ctas_per_sm << " CTAs/SM, L2 hit "
                  << fmt_fixed(hp.l2_hit_rate, 2) << "):\n";
        hp.profiler.print_report(std::cout, hp.counters, args.top);
        if (trace) {
          trace->write_file(args.trace_out);
          std::cout << "trace written to " << args.trace_out
                    << " (load in chrome://tracing or https://ui.perfetto.dev)\n";
        }
        if (json) json_profile_fields(*json, hp.profiler, hp.counters, args.top);
      }
      finish_json();
      return 0;
    }

    if (args.command == "lint") {
      const GemmShape shape = contract_shape(args, cfg);
      const sass::Program prog = core::hgemm_kernel(cfg, shape);
      sass::validate(prog);
      const auto base = sass::lint(prog);
      const auto slack = sass::lint(prog, &sim::fixed_latency);
      std::cout << cfg.name() << " (" << prog.code.size() << " instructions): " << base.size()
                << " schedule warnings, " << slack.size() << " slack findings\n";
      for (const auto& w : base) std::cout << "  [schedule] " << w << "\n";
      for (const auto& w : slack) std::cout << "  [slack] " << w << "\n";
      if (json) {
        json->key("schedule_warnings");
        json->begin_array();
        for (const auto& w : base) json->value(w);
        json->end_array();
        json->key("slack_findings");
        json->begin_array();
        for (const auto& w : slack) json->value(w);
        json->end_array();
      }
      finish_json();
      return 0;
    }

    if (args.command == "schedule") {
      // The scheduler's own before/after story on the real kernel: the
      // minimal mode only inserts stalls/barriers into the semantic order,
      // the full mode also hoists independent work into stall shadows.
      const device::DeviceSpec spec = device::spec_by_name(args.device);
      const GemmShape shape = args.wmma
                                  ? GemmShape{16, 128, 64}
                                  : contract_shape(args, cfg);
      const std::string kernel_name = args.wmma ? "wmma_naive" : cfg.name();
      const sass::Program virt = args.wmma ? core::wmma_naive_kernel_virtual(shape)
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

      if (json) {
        const auto stats_fields = [&](const char* key, const sched::ScheduleStats& s,
                                      std::uint64_t cycles) {
          json->key(key);
          json->begin_object();
          json->field("instructions", static_cast<std::uint64_t>(s.instructions));
          json->field("nops_inserted", static_cast<std::uint64_t>(s.nops_inserted));
          json->field("reordered", static_cast<std::uint64_t>(s.reordered));
          json->field("barriers_used", static_cast<std::uint64_t>(s.barriers_used));
          json->field("waits_placed", static_cast<std::uint64_t>(s.waits_placed));
          json->field("waits_elided", static_cast<std::uint64_t>(s.waits_elided));
          json->field("waits_dropped", static_cast<std::uint64_t>(s.waits_dropped));
          json->field("waits_hoisted", static_cast<std::uint64_t>(s.waits_hoisted));
          json->field("reuse_flags", static_cast<std::uint64_t>(s.reuse_flags));
          json->field("static_issue_cycles",
                      static_cast<std::uint64_t>(s.static_issue_cycles));
          json->field("timed_cycles", cycles);
          json->end_object();
        };
        json->field("kernel", kernel_name);
        stats_fields("minimal", minimal_stats, minimal_cycles);
        stats_fields("full", full_stats, full_cycles);
        json->key("slack_findings");
        json->begin_array();
        for (const auto& w : slack) json->value(w);
        json->end_array();
      }
      finish_json();
      return 0;
    }

    if (args.command == "disasm") {
      const sass::Program prog = core::hgemm_kernel(cfg, contract_shape(args, cfg));
      std::cout << prog.disassemble();
      if (json) json->field("instructions", static_cast<std::uint64_t>(prog.code.size()));
      finish_json();
      return 0;
    }

    if (args.command == "check") {
      // Every built-in kernel at its padded contract shape.
      const auto round_up = [](std::size_t v, std::size_t to) {
        return std::max(to, (v + to - 1) / to * to);
      };
      struct Target {
        std::string name;
        sass::Program prog;
      };
      const GemmShape wmma_shape{round_up(args.m, 16), round_up(args.n, 128),
                                 round_up(args.k, 16)};
      std::vector<Target> targets;
      targets.push_back({"hgemm_optimized",
                         core::hgemm_kernel(core::HgemmConfig::optimized(),
                                            contract_shape(args, core::HgemmConfig::optimized()))});
      targets.push_back({"hgemm_cublas_like",
                         core::hgemm_kernel(core::HgemmConfig::cublas_like(),
                                            contract_shape(args, core::HgemmConfig::cublas_like()))});
      targets.push_back({"wmma_naive", core::wmma_naive_kernel(wmma_shape)});

      int total_errors = 0;
      if (json) {
        json->key("kernels");
        json->begin_array();
      }
      for (const auto& t : targets) {
        const auto diags = check::find_hazards(t.prog);
        const int errors = sass::count_errors(diags);
        const int warnings = static_cast<int>(diags.size()) - errors;
        total_errors += errors;
        std::cout << t.name << " (" << t.prog.code.size() << " instructions): " << errors
                  << " errors, " << warnings << " warnings\n";
        for (const auto& d : diags) std::cout << "  " << sass::format(d) << "\n";
        if (json) {
          json->begin_object();
          json->field("kernel", t.name);
          json->field("instructions", static_cast<std::uint64_t>(t.prog.code.size()));
          json->field("errors", static_cast<std::uint64_t>(errors));
          json->field("warnings", static_cast<std::uint64_t>(warnings));
          json->key("diagnostics");
          json->begin_array();
          for (const auto& d : diags) json->value(sass::format(d));
          json->end_array();
          json->end_object();
        }
      }
      if (json) json->end_array();
      finish_json();
      return total_errors == 0 ? 0 : 1;
    }

    if (args.command == "fuzz") {
      if (args.engine_set) {
        TC_CHECK(args.engine == "timed" || args.engine == "jit",
                 "fuzz --engine must be 'timed' or 'jit'");
      }
      check::FuzzOptions fopts;
      fopts.numerics = args.numerics;
      fopts.numeric_operands = args.numeric_operands;
      const bool jit_fuzz = args.engine_set && args.engine == "jit";
      fopts.compare = jit_fuzz ? check::FuzzCompare::kJitVsInterpreter
                               : check::FuzzCompare::kFunctionalVsTimed;
      const check::FuzzReport rep = check::run_fuzz(args.seed, args.programs, fopts);
      std::cout << "fuzzed " << rep.programs << " programs (seed " << args.seed
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
      if (json) {
        json->field("engines", jit_fuzz ? "jit-vs-interpreter" : "functional-vs-timed");
        json->field("programs", static_cast<std::uint64_t>(rep.programs));
        json->field("divergences", static_cast<std::uint64_t>(rep.divergences));
        json->key("failures");
        json->begin_array();
        for (const auto& f : rep.failures) {
          json->begin_object();
          json->field("seed", f.seed);
          json->field("phase", f.phase);
          json->field("detail", f.detail);
          json->field("original_size", static_cast<std::uint64_t>(f.original_size));
          json->field("shrunk_size", static_cast<std::uint64_t>(f.shrunk_size));
          json->field("program", f.program);
          json->end_object();
        }
        json->end_array();
      }
      finish_json();
      return rep.ok() ? 0 : 1;
    }

    if (args.command == "tune") {
      if (args.engine_set) {
        TC_CHECK(args.engine == "model" || args.engine == "device",
                 "tune --engine must be 'model' or 'device'");
      }
      // A flag tune cannot apply is an error, never silently ignored.
      TC_CHECK(!args.profile, "tune does not support --profile");
      TC_CHECK(args.trace_out.empty(), "tune does not support --trace-out");
      TC_CHECK(!args.check, "tune does not support --check");
      const device::DeviceSpec spec = device::spec_by_name(args.device);
      const tune::CacheKey ckey = tune::cache_key(spec, {args.m, args.n, args.k});
      tune::TuneCache cache;
      if (!args.cache.empty()) {
        tune::CacheLoadStats cstats;
        cache = tune::TuneCache::load(args.cache, &cstats);
        for (const auto& d : cstats.diagnostics) {
          std::cout << "cache: rejected entry — " << d << "\n";
        }
        if (const tune::CacheEntry* hit = cache.find(ckey)) {
          // Warm path: the persisted winner is served bit-for-bit; no search.
          std::cout << "cache hit for " << ckey.str() << " (bucket of " << args.m << " x "
                    << args.n << " x " << args.k << "): " << tune::candidate_name(hit->cfg)
                    << " at " << hit->sim_cycles << " simulated cycles (engine "
                    << hit->engine << ", budget " << hit->budget << ", seed " << hit->seed
                    << ")\n";
          if (json) {
            json->key("tune");
            json->begin_object();
            json->field("engine", "cache");
            json->key("cache");
            json->begin_object();
            json->field("hit", true);
            json->field("key", ckey.str());
            json->field("bucket_m", static_cast<std::uint64_t>(ckey.m));
            json->field("bucket_n", static_cast<std::uint64_t>(ckey.n));
            json->field("bucket_k", static_cast<std::uint64_t>(ckey.k));
            json->end_object();
            json->key("best");
            json->begin_object();
            json->field("config", tune::candidate_name(hit->cfg));
            json->field("sim_cycles", hit->sim_cycles);
            json->end_object();
            json->end_object();
          }
          finish_json();
          return 0;
        }
        std::cout << "cache miss for " << ckey.str() << ": tuning at the bucket shape\n";
      }
      tune::TuneOptions opt;
      // With a cache, tune at the bucket's canonical shape so the stored
      // winner serves every shape that falls in the bucket.
      opt.shape = args.cache.empty() ? GemmShape{args.m, args.n, args.k}
                                     : tune::bucket_shape(ckey);
      opt.budget = args.budget;
      opt.explore = args.explore;
      opt.seed = args.seed;
      opt.threads = args.threads;
      // Timed-device is the tuner's default engine (the acceptance metric);
      // --engine model switches to the wave pipeline for paper-scale shapes.
      opt.engine = args.engine_set && args.engine == "model" ? tune::Engine::kWaveModel
                                                            : tune::Engine::kTimedDevice;
      const tune::TuneResult r = tune::tune(spec, opt);
      const tune::Candidate& best = r.best();

      std::cout << "tuned " << spec.name << " @ " << args.m << " x " << args.n << " x "
                << args.k << " (engine=" << tune::engine_name(opt.engine) << ", seed "
                << opt.seed << "): " << r.prune.raw << " raw -> " << r.prune.legal
                << " legal -> " << r.prune.evaluated << " evaluated\n"
                << "pruned: " << r.prune.tiling << " tiling, " << r.prune.generator
                << " generator, " << r.prune.registers << " registers, " << r.prune.resources
                << " resources, " << r.prune.launch_order << " launch_order\n";
      TablePrinter t({"config", "regs", "CTAs/SM", "model rank", "model cycles", "sim cycles",
                      "TFLOPS"});
      int shown = 0;
      for (const auto& c : r.ranked) {
        if (!c.evaluated || shown++ >= args.top) continue;
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

      if (!args.cache.empty()) {
        tune::CacheEntry e;
        e.key = ckey;
        e.cfg = best.cfg;
        e.sim_cycles = best.sim_cycles;
        e.budget = opt.budget;
        e.seed = opt.seed;
        e.engine = tune::engine_name(opt.engine);
        cache.insert(std::move(e));
        cache.save(args.cache);
        std::cout << "cache: stored winner for " << ckey.str() << " in " << args.cache << "\n";
      }

      if (json) {
        json->key("tune");
        json->begin_object();
        json->field("engine", tune::engine_name(opt.engine));
        if (!args.cache.empty()) {
          json->key("cache");
          json->begin_object();
          json->field("hit", false);
          json->field("stored", true);
          json->field("key", ckey.str());
          json->field("bucket_m", static_cast<std::uint64_t>(ckey.m));
          json->field("bucket_n", static_cast<std::uint64_t>(ckey.n));
          json->field("bucket_k", static_cast<std::uint64_t>(ckey.k));
          json->end_object();
        }
        json->field("budget", static_cast<std::uint64_t>(opt.budget));
        json->field("seed", opt.seed);
        json->field("inversion_rate", tune::rank_inversion_rate(r));
        json->key("prune");
        json->begin_object();
        json->field("raw", static_cast<std::uint64_t>(r.prune.raw));
        json->field("tiling", static_cast<std::uint64_t>(r.prune.tiling));
        json->field("generator", static_cast<std::uint64_t>(r.prune.generator));
        json->field("registers", static_cast<std::uint64_t>(r.prune.registers));
        json->field("resources", static_cast<std::uint64_t>(r.prune.resources));
        json->field("launch_order", static_cast<std::uint64_t>(r.prune.launch_order));
        json->field("legal", static_cast<std::uint64_t>(r.prune.legal));
        json->field("evaluated", static_cast<std::uint64_t>(r.prune.evaluated));
        json->end_object();
        const auto candidate_fields = [&](const tune::Candidate& c) {
          json->begin_object();
          json->field("config", c.name);
          json->field("regs", static_cast<std::uint64_t>(c.regs));
          json->field("ctas_per_sm", static_cast<std::uint64_t>(c.occ.ctas_per_sm));
          json->field("limiter", device::limiter_name(c.occ.limiter));
          json->field("model_rank", static_cast<std::uint64_t>(c.model_rank));
          json->field("model_cycles", c.model.cycles);
          json->field("sim_cycles", c.sim_cycles);
          json->field("tflops", c.tflops);
          json->field("sms_used", static_cast<std::uint64_t>(c.sms_used));
          json->field("explored", c.explored);
          json->field("hazard_diags", static_cast<std::uint64_t>(c.hazard_diags));
          json->end_object();
        };
        json->key("best");
        candidate_fields(best);
        json->key("candidates");
        json->begin_array();
        for (const auto& c : r.ranked) {
          if (c.evaluated) candidate_fields(c);
        }
        json->end_array();
        json->end_object();
      }
      finish_json();
      return 0;
    }

    if (args.command == "numerics") {
      // Error-vs-shape curves: m x n fixed, k doubling from 64 up to --k,
      // fresh seeded inputs per point, all three semantics against the
      // double-precision oracle. Reproduces the related-work observation
      // that FP16 accumulation degrades with k while FP32 stays flat.
      numerics::CurveOptions copts;
      copts.m = args.m;
      copts.n = args.n;
      copts.seed = args.seed;
      copts.ks.clear();
      for (std::size_t kk = 64; kk <= args.k; kk *= 2) copts.ks.push_back(kk);
      TC_CHECK(!copts.ks.empty(), "numerics needs --k >= 64");
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

      if (json) {
        json->key("numerics");
        json->begin_object();
        json->field("seed", copts.seed);
        json->key("modes");
        json->begin_array();
        json->value(numerics::numerics_mode_name(numerics::NumericsMode::kIdealized));
        json->value(numerics::numerics_mode_name(numerics::NumericsMode::kBitAccurate));
        json->end_array();
        json->key("points");
        json->begin_array();
        for (const auto& p : points) {
          json->begin_object();
          json->field("k", static_cast<std::uint64_t>(p.k));
          json->field("idealized_f16_max_rel", p.idealized_f16.max_rel);
          json->field("idealized_f16_mean_rel", p.idealized_f16.mean_rel);
          json->field("bitacc_f16_max_rel", p.bitacc_f16.max_rel);
          json->field("bitacc_f16_mean_rel", p.bitacc_f16.mean_rel);
          json->field("bitacc_f32_max_rel", p.bitacc_f32.max_rel);
          json->field("bitacc_f32_mean_rel", p.bitacc_f32.mean_rel);
          json->end_object();
        }
        json->end_array();
        json->end_object();
      }
      finish_json();
      return 0;
    }

    if (args.command == "op") {
      op::GemmOp gemm;
      gemm.shape = {args.m, args.n, args.k};
      gemm.batch.count = args.batch;
      gemm.split_k = args.split_k;
      gemm.epilogue.alpha = static_cast<float>(args.alpha);
      gemm.epilogue.beta = static_cast<float>(args.beta);
      gemm.epilogue.bias = args.bias;
      gemm.epilogue.act = args.act == "relu"   ? core::Activation::kRelu
                          : args.act == "gelu" ? core::Activation::kGelu
                                               : core::Activation::kNone;
      const op::OpPlan plan = op::lower(gemm, cfg);

      const auto batch = static_cast<std::size_t>(args.batch);
      Rng rng(args.seed);
      std::vector<half> a(batch * args.m * args.k);
      std::vector<half> bt(batch * args.n * args.k);
      std::vector<half> c_in(batch * args.m * args.n);
      std::vector<half> bias(args.n);
      for (auto& v : a) v = rng.next_half(-0.5f, 0.5f);
      for (auto& v : bt) v = rng.next_half(-0.5f, 0.5f);
      for (auto& v : c_in) v = rng.next_half(-0.5f, 0.5f);
      for (auto& v : bias) v = rng.next_half(-0.5f, 0.5f);
      op::OpInputs in{a, bt, c_in, bias};

      driver::Device dev(device::spec_by_name(args.device));
      const std::vector<half> out = op::run_gemm_op(dev, gemm, in, cfg);

      const auto role_name = [](op::LaunchRole r) {
        return r == op::LaunchRole::kMain ? "main" : "reduce";
      };
      std::cout << "op on " << dev.spec().name << ": " << args.batch << " x (" << args.m
                << " x " << args.n << " x " << args.k << "), split_k " << args.split_k
                << ", epilogue alpha " << args.alpha << " beta " << args.beta
                << (args.bias ? " +bias" : "") << " act " << args.act << " -> "
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
      if (args.check) {
        const std::vector<half> ref = op::gemm_op_ref(gemm, in, cfg, cfg.numerics);
        for (std::size_t i = 0; i < out.size(); ++i) {
          mismatches += out[i].bits() != ref[i].bits() ? 1 : 0;
        }
        std::cout << "bit-exact mismatches vs op reference: " << mismatches << "\n";
        rc = mismatches == 0 ? 0 : 1;
      }

      if (json) {
        json->key("op");
        json->begin_object();
        json->field("batch", static_cast<std::uint64_t>(args.batch));
        json->field("split_k", static_cast<std::uint64_t>(args.split_k));
        json->field("alpha", args.alpha);
        json->field("beta", args.beta);
        json->field("bias", args.bias);
        json->field("act", args.act);
        json->field("fused", plan.fused);
        json->field("workspace_elems", static_cast<std::uint64_t>(plan.workspace_elems));
        json->key("launches");
        json->begin_array();
        for (const auto& l : plan.launches) {
          json->begin_object();
          json->field("role", role_name(l.role));
          json->field("kernel", l.program.name);
          json->field("grid_x", static_cast<std::uint64_t>(l.grid_x));
          json->field("grid_y", static_cast<std::uint64_t>(l.grid_y));
          json->field("grid_z", static_cast<std::uint64_t>(l.grid_z));
          json->field("instructions", static_cast<std::uint64_t>(l.program.code.size()));
          json->end_object();
        }
        json->end_array();
        if (args.check) {
          json->field("numerics", numerics::numerics_mode_name(cfg.numerics));
          json->field("mismatches", static_cast<std::uint64_t>(mismatches));
        }
        json->end_object();
      }
      finish_json();
      return rc;
    }

    if (args.command == "serve") {
      // A flag serve cannot apply is an error, never silently ignored.
      // Passes always cost on the timed device, so it has no --engine.
      TC_CHECK(!args.engine_set, "serve does not support --engine");
      TC_CHECK(!args.profile, "serve does not support --profile");
      TC_CHECK(args.trace_out.empty(), "serve does not support --trace-out");
      TC_CHECK(!args.top_set, "serve does not support --top");
      TC_CHECK(!args.check, "serve does not support --check");
      const device::DeviceSpec spec = device::spec_by_name(args.device);
      serve::ServerOptions sopt;
      sopt.spec = spec;
      sopt.workers = args.workers;
      sopt.threads = args.threads;
      sopt.tune_budget = args.budget;
      sopt.cache_path = args.cache;

      serve::TrafficOptions topt;
      topt.requests = args.requests;
      topt.tenants = args.tenants;
      topt.seed = args.seed;
      const std::vector<serve::Request> traffic = serve::llm_traffic(topt);

      serve::Server server(sopt);
      for (const auto& d : server.load_stats().diagnostics) {
        std::cout << "cache: rejected entry — " << d << "\n";
      }
      const serve::Metrics m = server.run(traffic);
      const auto& c = m.counters;

      std::cout << "served " << c.completed << "/" << c.requests << " requests (" << c.shed
                << " shed) on " << spec.name << " with " << args.workers
                << " workers (seed " << args.seed << ")\n"
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
      if (!args.cache.empty()) {
        std::cout << "cache: " << server.cache().size() << " entries in " << args.cache << "\n";
      }

      if (json) {
        json->key("serve");
        serve::write_metrics_json(*json, m);
      }
      finish_json();
      return 0;
    }

    TC_ASSERT(false, "unhandled command " + args.command);
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
}
