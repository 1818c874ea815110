// Host-performance benchmark: how fast the simulator and its tool chain run
// on the host, with the simulated results of the same runs checked beside
// them. One process runs one workload, closed-loop with one client: each
// operation starts when the previous one returns, and a pass is a fixed list
// of operations repeated until --seconds is spent. Every layer runs on one
// host thread, so the numbers describe the program, not the scheduler.
//
//   host_perf --workload <name> --seed <n> [--seconds <s>] [--trace 0|1]
//             [--smoke] [--json <out.json>] [--trace-out <trace.json>]
//   host_perf --summarize <BENCHMARK.json> <result.json>...
//
// The last line of standard output is the result object
// {"correct", "attempted", "failed", "metrics"}: the end-to-end metrics of
// BENCHMARK.json with --trace 0, its per-layer metrics with --trace 1.
// --json writes the same object plus the run's deterministic results.
// Exit status: 0 when every operation passed its check, 1 when one failed,
// 2 on bad arguments. See README.md for the workloads and metric glossary.
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <fstream>
#include <functional>
#include <iostream>
#include <map>
#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "check/hazard.hpp"
#include "common/error.hpp"
#include "common/json.hpp"
#include "common/json_parse.hpp"
#include "common/matrix.hpp"
#include "common/rng.hpp"
#include "core/config.hpp"
#include "core/hgemm.hpp"
#include "core/kernel_gen.hpp"
#include "core/profile.hpp"
#include "core/reference.hpp"
#include "device/occupancy.hpp"
#include "device/spec.hpp"
#include "driver/device.hpp"
#include "jit/jit.hpp"
#include "model/l2_reuse.hpp"
#include "model/wave_perf.hpp"
#include "numerics/curves.hpp"
#include "op/op.hpp"
#include "prof/trace.hpp"
#include "sass/diag.hpp"
#include "sass/validator.hpp"
#include "sched/schedule.hpp"
#include "serve/serve.hpp"
#include "serve/traffic.hpp"
#include "sim/functional.hpp"
#include "spans.hpp"
#include "tune/space.hpp"
#include "tune/tune.hpp"

namespace tc::host_perf {
namespace {

struct MetricDef {
  const char* name;
  const char* unit;
};

// Must match BENCHMARK.json (the smoke test checks both lists).
constexpr MetricDef kEndToEnd[] = {
    {"setup_s", "s"},
    {"wall_s", "s"},
    {"peak_rss_mb", "MB"},
};

constexpr MetricDef kPerLayer[] = {
    {"sim_sm_cycles_per_s", "cycles/s"},
    {"points_per_s", "estimates/s"},
    {"warp_inst_per_s", "warp-inst/s"},
    {"tune.evals_per_s", "evals/s"},
    {"serve.cold_rps", "req/s"},
    {"serve.warm_rps", "req/s"},
    {"sim.timed_device.tensor.sm_cycles_per_s", "cycles/s"},
    {"sim.timed_device.memory.sm_cycles_per_s", "cycles/s"},
    {"sim.timed_device.fullmath.sm_cycles_per_s", "cycles/s"},
    {"op.time_gemm_op.cycles_per_s", "cycles/s"},
    {"op.lower.inst_per_s", "inst/s"},
    {"sim.functional.interpret_idealized.warp_inst_per_s", "warp-inst/s"},
    {"sim.functional.interpret_bitaccurate.warp_inst_per_s", "warp-inst/s"},
    {"sim.functional.jit_idealized.warp_inst_per_s", "warp-inst/s"},
    {"sim.functional.jit_bitaccurate.warp_inst_per_s", "warp-inst/s"},
    {"sim.functional.wmma_naive.warp_inst_per_s", "warp-inst/s"},
    {"sim.functional.warp_insts", "count"},
    {"sim.functional.hmma", "count"},
    {"numerics.ref_idealized.mac_per_s", "MAC/s"},
    {"numerics.ref_bitacc.mac_per_s", "MAC/s"},
    {"jit.compile.inst_per_s", "inst/s"},
    {"jit.emitted_ops", "count"},
    {"core.kernel_gen.inst_per_s", "inst/s"},
    {"sched.schedule.inst_per_s", "inst/s"},
    {"sass.validate.inst_per_s", "inst/s"},
    {"check.find_hazards.inst_per_s", "inst/s"},
    {"core.estimate_calls", "count"},
    {"tune.enumerate.configs_per_s", "configs/s"},
    {"tune.legal_configs", "count"},
    {"tune.evals", "count"},
    {"tune.best_cycles", "cycles"},
    {"tune.rank_inversion", "ratio"},
    {"tuned_tflops", "TFLOPS"},
    {"serve.sim_passes_warm", "count"},
    {"serve.tune_evals_warm", "count"},
    {"serve.cache_hit_rate_warm", "ratio"},
    {"serve.shed", "count"},
    {"serve.worker_util", "ratio"},
    {"serve.p99_cycles", "cycles"},
    {"sim_cycles", "cycles"},
    {"paper_tflops_err", "ratio"},
    {"sim.timed_device.tensor_util", "ratio"},
    {"sim.timed_device.l2_hit_rate", "ratio"},
    {"sim.timed_device.dram_bytes", "bytes"},
    {"sim.timed_device.mio_bw_stall", "cycles"},
    {"sim.timed_device.smem_conflict", "ratio"},
    {"sim.timed_device.tail_imbalance", "ratio"},
    {"model.wave_rel_err", "ratio"},
    {"bench.trace_overhead_frac", "ratio"},
    {"bench.spans", "count"},
};

using Metrics = std::map<std::string, double>;

double median(std::vector<double> v) {
  TC_CHECK(!v.empty(), "median of no samples");
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Bookkeeping shared by the workloads: spans, per-layer work counters,
/// operation outcomes and deterministic results.
class Bench {
 public:
  Bench(std::uint64_t run_seed, bool smoke_run) : seed(run_seed), smoke(smoke_run) {}

  const std::uint64_t seed;
  const bool smoke;
  Spans spans;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  /// Work done inside traced phases, keyed by counter; divided by the span
  /// time of the layer that did it to give per-layer rates.
  std::map<std::string, double> work;
  /// Simulated results and counts that must repeat exactly: the first value
  /// recorded for a key is kept and a later pass that differs fails.
  std::map<std::string, double> det;

  void count(const std::string& key, double v) {
    if (spans.enabled()) work[key] += v;
  }

  void stable(const std::string& key, double v) {
    const auto [it, inserted] = det.emplace(key, v);
    TC_CHECK(inserted || it->second == v, key + " changed between passes: " +
                                              std::to_string(it->second) + " then " +
                                              std::to_string(v));
  }

  [[nodiscard]] double det_or0(const std::string& key) const {
    const auto it = det.find(key);
    return it == det.end() ? 0.0 : it->second;
  }

  /// Work counter over the span time of `layer` (inside `op` when given).
  [[nodiscard]] double rate(const std::string& key, std::string_view layer,
                            std::string_view op = {}) const {
    const double t = spans.total(layer, op);
    const auto it = work.find(key);
    return t > 0.0 && it != work.end() ? it->second / t : 0.0;
  }

  /// Runs one checked operation. A failed check or any exception counts it
  /// failed; the run goes on with the next operation.
  void op(const std::string& name, const std::function<void()>& fn) {
    ++attempted;
    try {
      spans.span(name, fn);
    } catch (const std::exception& e) {
      ++failed;
      std::cerr << "FAILED " << name << ": " << e.what() << "\n";
    }
  }
};

/// Builds a kernel the way kernel_gen does (generate, then schedule) and
/// gates it through the validator and the hazard scan, one span per layer.
sass::Program build_gated(Bench& b, const std::function<sass::Program()>& generate) {
  const sass::Program virt = b.spans.span("core.kernel_gen", generate);
  sass::Program prog = b.spans.span("sched.schedule", [&] { return sched::schedule(virt); });
  b.spans.span("sass.validate", [&] { sass::validate(prog); });
  const auto diags = b.spans.span("check.find_hazards", [&] { return check::find_hazards(prog); });
  TC_CHECK(sass::count_errors(diags) == 0,
           prog.name + ": " + std::to_string(sass::count_errors(diags)) + " hazard errors");
  const auto insts = static_cast<double>(prog.code.size());
  b.count("core.kernel_gen.insts", static_cast<double>(virt.code.size()));
  b.count("sched.schedule.insts", insts);
  b.count("sass.validate.insts", insts);
  b.count("check.find_hazards.insts", insts);
  return prog;
}

void compile_layer_metrics(const Bench& b, Metrics& m) {
  m["core.kernel_gen.inst_per_s"] = b.rate("core.kernel_gen.insts", "core.kernel_gen");
  m["sched.schedule.inst_per_s"] = b.rate("sched.schedule.insts", "sched.schedule");
  m["sass.validate.inst_per_s"] = b.rate("sass.validate.insts", "sass.validate");
  m["check.find_hazards.inst_per_s"] = b.rate("check.find_hazards.insts", "check.find_hazards");
  m["numerics.ref_idealized.mac_per_s"] = b.rate("ref_idealized.macs", "core.gemm_ref_tc");
  m["numerics.ref_bitacc.mac_per_s"] = b.rate("ref_bitacc.macs", "numerics.gemm_bitacc_f16");
}

HalfMatrix random_matrix(Rng& rng, std::size_t rows, std::size_t cols) {
  HalfMatrix x(rows, cols);
  x.randomize(rng, -1.0f, 1.0f);
  return x;
}

/// The device name as the CLI spells it ("rtx2070", "t4").
std::string tag_of(const device::DeviceSpec& spec) {
  std::string t = spec.name;
  std::transform(t.begin(), t.end(), t.begin(),
                 [](unsigned char c) { return static_cast<char>(std::tolower(c)); });
  return t;
}

double macs(const GemmShape& s) {
  return static_cast<double>(s.m) * static_cast<double>(s.n) * static_cast<double>(s.k);
}

/// Downloads C (m x n at `dc`), compares it bitwise with `ref`, and records
/// its FNV-1a hash so the deterministic results cover outputs, not only
/// counts.
void check_output(Bench& b, driver::Device& dev, driver::DevPtr<half> dc, const HalfMatrix& ref,
                  const std::string& op) {
  HalfMatrix c(ref.rows(), ref.cols());
  dev.download(std::span<half>(c.data(), c.size()), dc);
  const std::size_t bad = core::mismatch_count(c, ref);
  TC_CHECK(bad == 0, op + ": " + std::to_string(bad) + " elements differ from the reference");
  std::uint32_t h = 2166136261u;
  const auto* bytes = reinterpret_cast<const unsigned char*>(c.data());
  for (std::size_t i = 0; i < c.size_bytes(); ++i) h = (h ^ bytes[i]) * 16777619u;
  b.stable(op + ".output_hash", static_cast<double>(h));
}

class Workload {
 public:
  virtual ~Workload() = default;
  /// Kernel build, inputs and reference outputs; may run several times.
  virtual void setup(Bench& b) = 0;
  /// One pass: the workload's fixed list of checked operations.
  virtual void pass(Bench& b) = 0;
  /// Per-layer metrics from the traced phases and the deterministic results.
  virtual void layer_metrics(Bench& b, Metrics& m) = 0;
};

// ---------------------------------------------------------------------------
// device_grid: full-grid TimedDevice runs, the cycle-level engine where
// tier-1 time goes. The tensor-bound run idles in pipe-busy windows; the
// memory-bound run waits on the live sector cache and DRAM.

/// The 1024x1024x256 optimized run on rtx2070 at the model-pinned L2 rate:
/// `perf --engine device` reports this device cycle count.
constexpr std::uint64_t kPinnedTensorCycles = 43'855;

/// Main-loop iteration counts of the two steady-state surrogate runs
/// PerfEstimator and model::validate_wave difference.
constexpr int kSurrogateIters1 = 6;
constexpr int kSurrogateIters2 = 14;

struct GridRun {
  std::string op;
  device::DeviceSpec spec;
  core::HgemmConfig cfg;
  GemmShape shape;
  sass::Program prog;
  sim::TimedDeviceConfig dc;
};

class DeviceGrid final : public Workload {
 public:
  void setup(Bench& b) override {
    const bool s = b.smoke;
    tensor_ = make_run(b, "device_grid.tensor", device::rtx2070(), core::HgemmConfig::optimized(),
                       s ? GemmShape{512, 512, 64} : GemmShape{1024, 1024, 256}, true, false);
    memory_ = make_run(b, "device_grid.memory", device::t4(), core::HgemmConfig::cublas_like(),
                       s ? GemmShape{256, 256, 128} : GemmShape{1024, 1024, 256}, false, false);
    fullmath_ = make_run(b, "device_grid.fullmath", device::rtx2070(),
                         core::HgemmConfig::optimized(),
                         s ? GemmShape{256, 256, 64} : GemmShape{256, 256, 256}, false, true);
    b.op("device_grid.inputs", [&] {
      Rng rng(b.seed);
      const GemmShape& fs = fullmath_.shape;
      a_ = random_matrix(rng, fs.m, fs.k);
      bt_ = random_matrix(rng, fs.n, fs.k);
      ref_ = b.spans.span("core.gemm_ref_tc", [&] { return core::gemm_ref_tc(a_, bt_); });
      b.count("ref_idealized.macs", macs(fs));
    });
    splitk_ = op::GemmOp{};
    splitk_.shape = s ? GemmShape{256, 256, 512} : GemmShape{256, 256, 1024};
    splitk_.batch.count = 2;
    splitk_.split_k = s ? 2 : 4;
  }

  void pass(Bench& b) override {
    b.op(tensor_.op, [&] {
      const sim::DeviceResult dr = run(b, tensor_);
      if (!b.smoke) {
        TC_CHECK(dr.device_cycles == kPinnedTensorCycles,
                 "pinned tensor run took " + std::to_string(dr.device_cycles) + " cycles, not " +
                     std::to_string(kPinnedTensorCycles));
      }
      const int partitions = tensor_.spec.processing_blocks_per_sm;
      b.stable("device_grid.tensor.tensor_util",
               static_cast<double>(dr.total.tensor_busy) /
                   (static_cast<double>(dr.device_cycles) * dr.sms_used * partitions));
      b.stable("device_grid.tensor.smem_conflict", dr.total.smem_conflict_factor());
    });
    b.op(memory_.op, [&] {
      const sim::DeviceResult dr = run(b, memory_);
      std::uint64_t min_cycles = dr.device_cycles;
      for (const auto& sm : dr.per_sm) min_cycles = std::min(min_cycles, sm.cycles);
      b.stable("device_grid.memory.l2_hit_rate", dr.l2_hit_rate);
      b.stable("device_grid.memory.dram_bytes", dr.total.dram_bytes);
      b.stable("device_grid.memory.mio_bw_stall", static_cast<double>(dr.total.mio_bw_stall));
      b.stable("device_grid.memory.tail_imbalance",
               1.0 - static_cast<double>(min_cycles) / static_cast<double>(dr.device_cycles));
    });
    b.op("device_grid.splitk", [&] {
      const op::OpPlan plan = b.spans.span(
          "op.lower", [&] { return op::lower(splitk_, core::HgemmConfig::optimized()); });
      double insts = 0.0;
      for (const auto& l : plan.launches) insts += static_cast<double>(l.program.code.size());
      b.count("op.lower.insts", insts);
      const op::OpTiming t =
          b.spans.span("op.time_gemm_op", [&] { return op::time_gemm_op(device::t4(), plan); });
      TC_CHECK(t.launch_cycles.size() == 2, "split-K plan should launch main + reduce");
      b.count("op.time_gemm_op.cycles", static_cast<double>(t.device_cycles));
      b.stable("device_grid.splitk.device_cycles", static_cast<double>(t.device_cycles));
    });
    b.op(fullmath_.op, [&] { run(b, fullmath_, &a_, &bt_, &ref_); });
  }

  void layer_metrics(Bench& b, Metrics& m) override {
    double cycles = 0.0;
    double time = 0.0;
    for (const GridRun* g : {&tensor_, &memory_, &fullmath_}) {
      const std::string tag = g->op.substr(g->op.find('.') + 1);
      m["sim.timed_device." + tag + ".sm_cycles_per_s"] =
          b.rate(g->op + ".sm_cycles", "sim.timed_device.run", g->op);
      cycles += b.work[g->op + ".sm_cycles"];
      time += b.spans.total("sim.timed_device.run", g->op);
    }
    m["sim_sm_cycles_per_s"] = time > 0.0 ? cycles / time : 0.0;
    m["op.time_gemm_op.cycles_per_s"] = b.rate("op.time_gemm_op.cycles", "op.time_gemm_op");
    m["op.lower.inst_per_s"] = b.rate("op.lower.insts", "op.lower");
    m["sim_cycles"] = b.det_or0("device_grid.tensor.device_cycles") +
                      b.det_or0("device_grid.memory.device_cycles") +
                      b.det_or0("device_grid.splitk.device_cycles") +
                      b.det_or0("device_grid.fullmath.device_cycles");
    m["sim.timed_device.tensor_util"] = b.det_or0("device_grid.tensor.tensor_util");
    m["sim.timed_device.smem_conflict"] = b.det_or0("device_grid.tensor.smem_conflict");
    m["sim.timed_device.l2_hit_rate"] = b.det_or0("device_grid.memory.l2_hit_rate");
    m["sim.timed_device.dram_bytes"] = b.det_or0("device_grid.memory.dram_bytes");
    m["sim.timed_device.mio_bw_stall"] = b.det_or0("device_grid.memory.mio_bw_stall");
    m["sim.timed_device.tail_imbalance"] = b.det_or0("device_grid.memory.tail_imbalance");
    m["model.wave_rel_err"] = b.spans.span("model.wave", [&] { return wave_rel_err(b); });
  }

 private:
  static double sm_cycles(const sim::DeviceResult& dr) {
    double c = 0.0;
    for (const auto& sm : dr.per_sm) c += static_cast<double>(sm.cycles);
    return c;
  }

  /// The model's L2 hit rate for a grid: the closed form that
  /// `perf --engine device` pins the shared L2 to.
  static model::L2ReuseInput reuse_input(const GridRun& g) {
    model::L2ReuseInput in;
    in.bm = g.cfg.bm;
    in.bn = g.cfg.bn;
    in.bk = g.cfg.bk;
    in.grid_x = g.shape.n / static_cast<std::size_t>(g.cfg.bn);
    in.grid_y = g.shape.m / static_cast<std::size_t>(g.cfg.bm);
    in.wave_ctas = g.spec.num_sms * g.dc.ctas_per_sm;
    in.order = g.cfg.launch_order;
    in.swizzle_max_grid_x = g.cfg.swizzle_max_grid_x;
    in.supertile_width = g.cfg.supertile_width;
    in.k_iters = std::ceil(static_cast<double>(g.shape.k) / g.cfg.bk);
    in.l2_capacity = g.spec.l2_size_bytes;
    return in;
  }

  static GridRun make_run(Bench& b, const std::string& op, const device::DeviceSpec& spec,
                          const core::HgemmConfig& cfg, const GemmShape& shape, bool pin_l2,
                          bool full_math) {
    GridRun g{op, spec, cfg, shape, {}, {}};
    b.op(op + ".build", [&] {
      g.prog = build_gated(b, [&] { return core::hgemm_kernel_virtual(cfg, shape); });
      g.dc.spec = spec;
      g.dc.threads = 1;
      g.dc.ctas_per_sm = device::occupancy(spec, g.prog).ctas_per_sm;
      g.dc.skip_mma_math = !full_math;
      if (pin_l2) {
        g.dc.forced_l2_hit_rate = b.spans.span("model.l2_reuse", [&] {
          return model::l2_reuse(reuse_input(g)).ldg_l2_hit_rate;
        });
      }
    });
    return g;
  }

  /// One full-grid run on a fresh device. With inputs, C is downloaded and
  /// compared bitwise with the reference.
  sim::DeviceResult run(Bench& b, const GridRun& g, const HalfMatrix* a = nullptr,
                        const HalfMatrix* bt = nullptr, const HalfMatrix* ref = nullptr) {
    const GemmShape& s = g.shape;
    driver::Device dev(g.spec);
    const auto da = dev.alloc<half>(s.m * s.k);
    const auto db = dev.alloc<half>(s.n * s.k);
    const auto dc = dev.alloc<half>(s.m * s.n);
    if (a != nullptr) {
      dev.upload(da, std::span<const half>(a->data(), a->size()));
      dev.upload(db, std::span<const half>(bt->data(), bt->size()));
    }
    sim::Launch launch;
    launch.program = &g.prog;
    launch.grid_x = static_cast<std::uint32_t>(s.n / static_cast<std::size_t>(g.cfg.bn));
    launch.grid_y = static_cast<std::uint32_t>(s.m / static_cast<std::size_t>(g.cfg.bm));
    launch.params = {da.addr, db.addr, dc.addr};
    launch.launch_order = g.cfg.launch_order;
    launch.supertile_width = g.cfg.supertile_width;
    const sim::DeviceResult dr =
        b.spans.span("sim.timed_device.run", [&] { return dev.run_timed_device(launch, g.dc); });
    TC_CHECK(dr.ctas_run == launch.num_ctas(),
             g.op + " ran " + std::to_string(dr.ctas_run) + " of " +
                 std::to_string(launch.num_ctas()) + " CTAs");
    b.count(g.op + ".sm_cycles", sm_cycles(dr));
    b.stable(g.op + ".device_cycles", static_cast<double>(dr.device_cycles));
    if (ref != nullptr) check_output(b, dev, dc, *ref, g.op);
    return dr;
  }

  /// (device - model) / device for the pinned tensor run, the model side
  /// composed as PerfEstimator composes it: two steady-state surrogates at
  /// the pinned L2 rate, then the wave composition.
  double wave_rel_err(const Bench& b) const {
    const GridRun& g = tensor_;
    const double device_cycles = b.det_or0(g.op + ".device_cycles");
    if (device_cycles <= 0.0) return 0.0;
    core::SurrogateOptions so;
    so.l2_hit_rate = g.dc.forced_l2_hit_rate;
    so.dram_efficiency = model::dram_row_efficiency(static_cast<double>(g.shape.k) * 2.0);
    const auto cycles_at = [&](int iters) {
      so.iterations = iters;
      return static_cast<double>(
          core::run_steady_surrogate(g.spec, g.cfg, g.dc.ctas_per_sm, so).cycles);
    };
    const double c1 = cycles_at(kSurrogateIters1);
    const double c2 = cycles_at(kSurrogateIters2);
    model::WaveInput wi;
    wi.spec = g.spec;
    wi.shape = g.shape;
    wi.bm = g.cfg.bm;
    wi.bn = g.cfg.bn;
    wi.bk = g.cfg.bk;
    wi.ctas_per_sm = g.dc.ctas_per_sm;
    wi.steady.cycles_per_iter =
        std::max((c2 - c1) / (kSurrogateIters2 - kSurrogateIters1), 1.0);
    wi.steady.overhead_cycles = std::max(c1 - wi.steady.cycles_per_iter * kSurrogateIters1, 0.0);
    return (device_cycles - model::compose(wi).kernel_cycles) / device_cycles;
  }

  GridRun tensor_, memory_, fullmath_;
  HalfMatrix a_, bt_, ref_;
  op::GemmOp splitk_;
};

// ---------------------------------------------------------------------------
// paper_sweep: the Fig. 6 / Fig. 7 square sweeps through fresh
// PerfEstimators, many short single-SM surrogate runs plus l2_reuse and the
// wave model. A change that adds cost to each simulator run shows here even
// when it helps long grids.

/// The paper's plateaus: Fig. 6 (RTX2070) and Fig. 7 (T4), optimized kernel.
constexpr double kPaperPlateauRtx2070 = 60.37;
constexpr double kPaperPlateauT4 = 49.71;

class PaperSweep final : public Workload {
 public:
  void setup(Bench& b) override {
    b.op("paper_sweep.sizes", [&] {
      Rng rng(b.seed);
      sizes_.clear();
      const std::size_t points = b.smoke ? 2 : 3;
      // W near 4096, 8192 and 12288, each lowered by a seeded multiple of 256.
      for (std::size_t i = 0; i < points; ++i) {
        sizes_.push_back(4096 * (i + 1) - 256 * rng.next_below(8));
      }
    });
    curves_.clear();
    for (const auto& spec : {device::rtx2070(), device::t4()}) {
      curves_.push_back({"paper_sweep." + tag_of(spec) + ".optimized", spec,
                         core::HgemmConfig::optimized()});
      curves_.push_back({"paper_sweep." + tag_of(spec) + ".cublas_like", spec,
                         core::HgemmConfig::cublas_like()});
    }
    // The surrogate kernels every estimate simulates, gated up front.
    for (const Curve& c : curves_) {
      b.op(c.name + ".build", [&] {
        const int ctas = b.spans.span("core.surrogate_ctas_per_sm",
                                [&] { return core::surrogate_ctas_per_sm(c.spec, c.cfg); });
        for (const int iters : {kSurrogateIters1, kSurrogateIters2}) {
          const GemmShape s{static_cast<std::size_t>(c.cfg.bm * ctas),
                            static_cast<std::size_t>(c.cfg.bn),
                            static_cast<std::size_t>(c.cfg.bk * iters)};
          build_gated(b, [&] { return core::hgemm_kernel_virtual(c.cfg, s); });
        }
      });
    }
  }

  void pass(Bench& b) override {
    for (const Curve& c : curves_) {
      b.op(c.name, [&] {
        core::PerfEstimator est =
            b.spans.span("core.PerfEstimator", [&] { return core::PerfEstimator(c.spec, c.cfg); });
        const double peak = c.spec.tensor_peak_flops() / 1e12;
        for (std::size_t i = 0; i < sizes_.size(); ++i) {
          const std::size_t w = sizes_[i];
          const core::PerfPoint p =
              b.spans.span("core.estimate", [&] { return est.estimate({w, w, w}); });
          TC_CHECK(p.tflops > 0.0 && p.tflops <= peak,
                   c.name + " at W=" + std::to_string(w) + ": " + std::to_string(p.tflops) +
                       " TFLOPS is outside (0, peak]");
          b.count("core.estimates", 1.0);
          b.stable(c.name + ".tflops." + std::to_string(i), p.tflops);
        }
      });
    }
  }

  void layer_metrics(Bench& b, Metrics& m) override {
    m["points_per_s"] = b.rate("core.estimates", "core.estimate");
    m["core.estimate_calls"] = static_cast<double>(curves_.size() * sizes_.size());
    m["paper_tflops_err"] = 0.5 * (plateau_err(b, "paper_sweep.rtx2070.optimized",
                                               kPaperPlateauRtx2070) +
                                   plateau_err(b, "paper_sweep.t4.optimized", kPaperPlateauT4));
  }

 private:
  struct Curve {
    std::string name;
    device::DeviceSpec spec;
    core::HgemmConfig cfg;
  };

  /// |simulated plateau - paper plateau| / paper, the plateau being the
  /// sweep's best point.
  [[nodiscard]] double plateau_err(const Bench& b, const std::string& curve, double paper) const {
    double best = 0.0;
    for (std::size_t i = 0; i < sizes_.size(); ++i) {
      best = std::max(best, b.det_or0(curve + ".tflops." + std::to_string(i)));
    }
    return std::abs(best - paper) / paper;
  }

  std::vector<std::size_t> sizes_;
  std::vector<Curve> curves_;
};

// ---------------------------------------------------------------------------
// control_plane: the user-facing tune/serve path. Many small TimedDevice
// grids, where the fixed cost of each run and the sched/check gate dominate.

/// Budget-6 winners at 256x256x64 (`tcgemm_cli tune --budget 6`, seed 1):
/// hgemm_64x64x128_w32x32_i5_pad on both specs.
constexpr std::uint64_t kPinnedTuneCyclesRtx2070 = 7090;
constexpr std::uint64_t kPinnedTuneCyclesT4 = 8557;

/// The serving layer's cold-bucket tuning space: narrowed so a cold bucket
/// costs a fraction of a second while the winners stay real tuned kernels
/// (the same space bench/serve_traffic uses).
tune::SearchSpace serve_space() {
  tune::SearchSpace s;
  s.bm = {64, 128};
  s.bn = {64, 128};
  s.bk = {32, 64};
  s.wm = {32, 64};
  s.wn = {32, 64};
  s.layouts = {core::SmemLayout::kPaddedTile};
  s.sts_interleave = {5};
  s.prefetch = {true};
  return s;
}

class ControlPlane final : public Workload {
 public:
  void setup(Bench& b) override {
    b.op("control_plane.traffic", [&] {
      serve::TrafficOptions t;
      t.tenants = 2;
      t.seed = b.seed;
      t.requests = b.smoke ? 24 : 300;
      cold_traffic_ = b.spans.span("serve.llm_traffic", [&] { return serve::llm_traffic(t); });
      t.requests = b.smoke ? 48 : 500;
      warm_traffic_ = b.spans.span("serve.llm_traffic", [&] { return serve::llm_traffic(t); });
      // The warm stream continues the cold one. A request in a bucket the
      // cold run never saw would be tuned, so it is left out: the warm server
      // must answer from the cache alone.
      const auto bucket = [&](const serve::Request& r) {
        return tune::cache_key(server_options().spec, r.shape, r.dtype).str();
      };
      std::set<std::string> tuned;
      for (const serve::Request& r : cold_traffic_) tuned.insert(bucket(r));
      std::erase_if(warm_traffic_,
                    [&](const serve::Request& r) { return !tuned.contains(bucket(r)); });
    });
    // The expected tuner winner, gated: the reference the tune checks name.
    b.op("control_plane.build.winner", [&] {
      core::HgemmConfig w;
      w.bm = 64;
      w.bn = 64;
      w.bk = 128;
      w.wm = 32;
      w.wn = 32;
      build_gated(b, [&] { return core::hgemm_kernel_virtual(w, w.contract_shape(tune_shape())); });
    });
  }

  void pass(Bench& b) override {
    b.op("control_plane.enumerate", [&] {
      double legal = 0.0;
      for (const auto& spec : specs()) {
        // The tuner's static stage: legal space plus one analytic score each.
        const double scored = b.spans.span("tune.enumerate", [&] {
          double sum = 0.0;
          for (const auto& cfg : tune::enumerate(spec, tune::SearchSpace{})) {
            const tune::Legality v = tune::classify(spec, cfg);
            TC_CHECK(v.ok(), "enumerate emitted an illegal config");
            sum += tune::model_score(spec, cfg, v.occ, tune_shape()).cycles;
            legal += 1.0;
          }
          return sum;
        });
        TC_CHECK(std::isfinite(scored) && scored > 0.0, "model scores must be finite");
      }
      b.count("tune.enumerate.configs", legal);
      b.stable("control_plane.legal_configs", legal);
    });
    for (const auto& spec : specs()) {
      const std::string key = "control_plane.tune." + tag_of(spec);
      b.op(key, [&] {
        tune::TuneOptions opt;
        opt.shape = tune_shape();
        opt.budget = b.smoke ? 2 : 6;
        opt.seed = 1;
        opt.threads = 1;
        const tune::TuneResult r = b.spans.span("tune.tune", [&] { return tune::tune(spec, opt); });
        const tune::Candidate& best = r.best();
        TC_CHECK(best.hazard_diags == 0, "tuner winner has hazard diagnostics");
        if (!b.smoke) {
          const std::uint64_t pinned =
              tag_of(spec) == "t4" ? kPinnedTuneCyclesT4 : kPinnedTuneCyclesRtx2070;
          TC_CHECK(best.sim_cycles == pinned, "tuner winner on " + spec.name + " took " +
                                                  std::to_string(best.sim_cycles) +
                                                  " cycles, not " + std::to_string(pinned));
        }
        b.count("tune.evals", static_cast<double>(r.prune.evaluated));
        b.stable(key + ".evals", static_cast<double>(r.prune.evaluated));
        b.stable(key + ".best_cycles", static_cast<double>(best.sim_cycles));
        b.stable(key + ".tflops", best.tflops);
        b.stable(key + ".rank_inversion", tune::rank_inversion_rate(r));
      });
    }
    b.op("control_plane.serve_cold", [&] {
      serve::Server server(server_options());
      const serve::Metrics m = b.spans.span("serve.run", [&] { return server.run(cold_traffic_); });
      check_served(m, cold_traffic_.size());
      TC_CHECK(m.counters.tune_evals > 0, "cold server tuned nothing");
      b.count("serve.cold.requests", static_cast<double>(cold_traffic_.size()));
      b.stable("control_plane.serve_cold.busy_cycles",
               static_cast<double>(m.counters.worker_busy_cycles));
      b.stable("control_plane.serve_cold.shed", static_cast<double>(m.counters.shed));
      cache_ = server.cache();
    });
    b.op("control_plane.serve_warm", [&] {
      serve::Server server(server_options(), cache_);
      const serve::Metrics m = b.spans.span("serve.run", [&] { return server.run(warm_traffic_); });
      check_served(m, warm_traffic_.size());
      TC_CHECK(m.counters.tune_evals == 0, "warm server re-tuned a cached bucket");
      TC_CHECK(m.counters.shed == 0, "warm server shed requests");
      TC_CHECK(m.cache_hit_rate == 1.0, "warm server missed the cache");
      b.count("serve.warm.requests", static_cast<double>(warm_traffic_.size()));
      const std::string key = "control_plane.serve_warm.";
      b.stable(key + "busy_cycles", static_cast<double>(m.counters.worker_busy_cycles));
      b.stable(key + "p99_cycles", m.p99_cycles);
      b.stable(key + "sim_passes", static_cast<double>(m.counters.sim_passes));
      b.stable(key + "tune_evals", static_cast<double>(m.counters.tune_evals));
      b.stable(key + "cache_hit_rate", m.cache_hit_rate);
      b.stable(key + "shed", static_cast<double>(m.counters.shed));
      b.stable(key + "worker_util", m.worker_utilization);
    });
  }

  void layer_metrics(Bench& b, Metrics& m) override {
    const std::string t = "control_plane.tune.";
    const std::string w = "control_plane.serve_warm.";
    m["tune.evals_per_s"] = b.rate("tune.evals", "tune.tune");
    m["tune.enumerate.configs_per_s"] = b.rate("tune.enumerate.configs", "tune.enumerate");
    m["tune.legal_configs"] = b.det_or0("control_plane.legal_configs");
    m["tune.evals"] = b.det_or0(t + "rtx2070.evals") + b.det_or0(t + "t4.evals");
    m["tune.best_cycles"] = b.det_or0(t + "rtx2070.best_cycles") + b.det_or0(t + "t4.best_cycles");
    m["tune.rank_inversion"] =
        0.5 * (b.det_or0(t + "rtx2070.rank_inversion") + b.det_or0(t + "t4.rank_inversion"));
    m["tuned_tflops"] = 0.5 * (b.det_or0(t + "rtx2070.tflops") + b.det_or0(t + "t4.tflops"));
    m["serve.cold_rps"] = b.rate("serve.cold.requests", "serve.run", "control_plane.serve_cold");
    m["serve.warm_rps"] = b.rate("serve.warm.requests", "serve.run", "control_plane.serve_warm");
    m["serve.sim_passes_warm"] = b.det_or0(w + "sim_passes");
    m["serve.tune_evals_warm"] = b.det_or0(w + "tune_evals");
    m["serve.cache_hit_rate_warm"] = b.det_or0(w + "cache_hit_rate");
    m["serve.shed"] = b.det_or0("control_plane.serve_cold.shed") + b.det_or0(w + "shed");
    m["serve.worker_util"] = b.det_or0(w + "worker_util");
    m["serve.p99_cycles"] = b.det_or0(w + "p99_cycles");
    m["sim_cycles"] = m["tune.best_cycles"] +
                      b.det_or0("control_plane.serve_cold.busy_cycles") +
                      b.det_or0(w + "busy_cycles");
  }

 private:
  static std::vector<device::DeviceSpec> specs() { return {device::rtx2070(), device::t4()}; }
  static GemmShape tune_shape() { return {256, 256, 64}; }

  serve::ServerOptions server_options() const {
    serve::ServerOptions o;
    o.spec = device::rtx2070();
    o.threads = 1;
    o.space = serve_space();
    o.tune_budget = 2;
    return o;
  }

  static void check_served(const serve::Metrics& m, std::size_t requests) {
    TC_CHECK(m.counters.requests == requests, "server lost requests");
    TC_CHECK(m.counters.completed + m.counters.shed == requests,
             "completed + shed != offered requests");
    TC_CHECK(m.counters.hazard_diags == 0, "server ran a hazardous kernel");
  }

  std::vector<serve::Request> cold_traffic_;
  std::vector<serve::Request> warm_traffic_;
  tune::TuneCache cache_;
};

// ---------------------------------------------------------------------------
// functional: the timing-free executor on seeded random inputs (all-zero
// inputs would make bit-accurate numerics as cheap as idealized). MMA-bound,
// so exec_mma and the numerics engine dominate; it never touches the timed
// engine.

class Functional final : public Workload {
 public:
  void setup(Bench& b) override {
    shape_ = b.smoke ? GemmShape{256, 256, 64} : GemmShape{256, 512, 256};
    b.op("functional.build.optimized", [&] {
      prog_ = build_gated(
          b, [&] { return core::hgemm_kernel_virtual(core::HgemmConfig::optimized(), shape_); });
    });
    b.op("functional.build.wmma_naive", [&] {
      wmma_ = build_gated(b, [&] { return core::wmma_naive_kernel_virtual(shape_); });
    });
    b.op("functional.inputs", [&] {
      Rng rng(b.seed);
      a_ = random_matrix(rng, shape_.m, shape_.k);
      bt_ = random_matrix(rng, shape_.n, shape_.k);
      ref_idealized_ = b.spans.span("core.gemm_ref_tc", [&] { return core::gemm_ref_tc(a_, bt_); });
      b.count("ref_idealized.macs", macs(shape_));
      ref_bitacc_ = b.spans.span("numerics.gemm_bitacc_f16",
                                 [&] { return numerics::gemm_bitacc_f16(a_, bt_); });
      b.count("ref_bitacc.macs", macs(shape_));
    });
  }

  void pass(Bench& b) override {
    b.op("functional.compile", [&] {
      const jit::JitProgram jp = b.spans.span("jit.compile", [&] { return jit::compile(prog_); });
      b.count("jit.compile.insts", static_cast<double>(prog_.code.size()));
      b.stable("functional.jit.emitted_ops", static_cast<double>(jp.stats.emitted_ops));
    });
    const core::HgemmConfig cfg = core::HgemmConfig::optimized();
    const auto grid_x = static_cast<std::uint32_t>(shape_.n / static_cast<std::size_t>(cfg.bn));
    const auto grid_y = static_cast<std::uint32_t>(shape_.m / static_cast<std::size_t>(cfg.bm));
    for (const auto engine : {sim::ExecEngine::kInterpret, sim::ExecEngine::kJit}) {
      for (const auto mode :
           {numerics::NumericsMode::kIdealized, numerics::NumericsMode::kBitAccurate}) {
        const std::string tag = std::string(sim::exec_engine_name(engine)) + "_" +
                                numerics::numerics_mode_name(mode);
        const HalfMatrix& ref =
            mode == numerics::NumericsMode::kBitAccurate ? ref_bitacc_ : ref_idealized_;
        run(b, tag, prog_, grid_x, grid_y, engine, mode, ref);
      }
    }
    run(b, "wmma_naive", wmma_, static_cast<std::uint32_t>(shape_.n / 128),
        static_cast<std::uint32_t>(shape_.m / 16), sim::ExecEngine::kInterpret,
        numerics::NumericsMode::kIdealized, ref_idealized_);
  }

  void layer_metrics(Bench& b, Metrics& m) override {
    double insts = 0.0;
    double hmma = 0.0;
    double traced_insts = 0.0;
    for (const char* tag : {"interpret_idealized", "interpret_bitaccurate", "jit_idealized",
                            "jit_bitaccurate", "wmma_naive"}) {
      const std::string op = std::string("functional.") + tag;
      m["sim.functional." + std::string(tag) + ".warp_inst_per_s"] =
          b.rate(op + ".warp_insts", "sim.functional.run", op);
      insts += b.det_or0(op + ".warp_insts");
      hmma += b.det_or0(op + ".hmma");
      traced_insts += b.work[op + ".warp_insts"];
    }
    const double run_time = b.spans.total("sim.functional.run");
    m["warp_inst_per_s"] = run_time > 0.0 ? traced_insts / run_time : 0.0;
    m["sim.functional.warp_insts"] = insts;
    m["sim.functional.hmma"] = hmma;
    m["jit.compile.inst_per_s"] = b.rate("jit.compile.insts", "jit.compile");
    m["jit.emitted_ops"] = b.det_or0("functional.jit.emitted_ops");
  }

 private:
  void run(Bench& b, const std::string& tag, const sass::Program& prog, std::uint32_t grid_x,
           std::uint32_t grid_y, sim::ExecEngine engine, numerics::NumericsMode mode,
           const HalfMatrix& ref) {
    const std::string op = "functional." + tag;
    b.op(op, [&] {
      driver::Device dev(device::rtx2070());
      const auto da = dev.alloc<half>(a_.size());
      const auto db = dev.alloc<half>(bt_.size());
      const auto dc = dev.alloc<half>(shape_.m * shape_.n);
      dev.upload(da, std::span<const half>(a_.data(), a_.size()));
      dev.upload(db, std::span<const half>(bt_.data(), bt_.size()));
      sim::Launch launch;
      launch.program = &prog;
      launch.grid_x = grid_x;
      launch.grid_y = grid_y;
      launch.params = {da.addr, db.addr, dc.addr};
      launch.numerics = mode;
      launch.engine = engine;
      const sim::FunctionalStats st = b.spans.span("sim.functional.run", [&] {
        return sim::FunctionalExecutor(dev.gmem(), /*host_threads=*/1).run(launch);
      });
      check_output(b, dev, dc, ref, op);
      b.count(op + ".warp_insts", static_cast<double>(st.instructions));
      b.stable(op + ".warp_insts", static_cast<double>(st.instructions));
      b.stable(op + ".hmma", static_cast<double>(st.hmma_count));
    });
  }

  GemmShape shape_;
  sass::Program prog_, wmma_;
  HalfMatrix a_, bt_, ref_idealized_, ref_bitacc_;
};

// ---------------------------------------------------------------------------

constexpr const char* kWorkloads[] = {"device_grid", "paper_sweep", "control_plane",
                                      "functional"};

std::unique_ptr<Workload> make_workload(const std::string& name) {
  if (name == "device_grid") return std::make_unique<DeviceGrid>();
  if (name == "paper_sweep") return std::make_unique<PaperSweep>();
  if (name == "control_plane") return std::make_unique<ControlPlane>();
  if (name == "functional") return std::make_unique<Functional>();
  return nullptr;
}

int workload_index(const std::string& name) {
  for (int i = 0; i < static_cast<int>(std::size(kWorkloads)); ++i) {
    if (name == kWorkloads[i]) return i;
  }
  return -1;
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB on Linux
}

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 20.0;
  bool trace = false;
  bool smoke = false;
  std::string json_out;
  std::string trace_out;
};

Args parse_args(int argc, char** argv) {
  Args a;
  bool seed_set = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    const auto value = [&]() -> std::string {
      TC_CHECK(i + 1 < argc, flag + " needs a value");
      return argv[++i];
    };
    if (flag == "--workload") {
      a.workload = value();
    } else if (flag == "--seed") {
      const std::string v = value();
      TC_CHECK(!v.empty() && v.size() <= 19 &&
                   v.find_first_not_of("0123456789") == std::string::npos,
               "--seed needs a non-negative integer below 10^19, got '" + v + "'");
      a.seed = std::stoull(v);
      seed_set = true;
    } else if (flag == "--seconds") {
      const std::string v = value();
      std::size_t used = 0;
      try {
        a.seconds = std::stod(v, &used);
      } catch (const std::exception&) {
        used = 0;
      }
      TC_CHECK(used == v.size() && a.seconds > 0.0 && a.seconds <= 3600.0,
               "--seconds needs a number in (0, 3600], got '" + v + "'");
    } else if (flag == "--trace") {
      const std::string v = value();
      TC_CHECK(v == "0" || v == "1", "--trace takes 0 or 1, got '" + v + "'");
      a.trace = v == "1";
    } else if (flag == "--smoke") {
      a.smoke = true;
    } else if (flag == "--json") {
      a.json_out = value();
    } else if (flag == "--trace-out") {
      a.trace_out = value();
    } else {
      TC_CHECK(false, "unknown flag '" + flag + "'");
    }
  }
  TC_CHECK(workload_index(a.workload) >= 0,
           "--workload must be one of device_grid|paper_sweep|control_plane|functional");
  TC_CHECK(seed_set, "--seed is required");
  return a;
}

void write_result(JsonWriter& j, const Bench& b, const Metrics& metrics,
                  const std::vector<MetricDef>& defs) {
  j.field("correct", b.failed == 0);
  j.field("attempted", b.attempted);
  j.field("failed", b.failed);
  j.key("metrics");
  j.begin_object();
  for (const MetricDef& d : defs) {
    j.key(d.name);
    j.begin_object();
    j.field("value", metrics.at(d.name));
    j.field("unit", d.unit);
    j.end_object();
  }
  j.end_object();
}

int run(const Args& args) {
  const std::unique_ptr<Workload> w = make_workload(args.workload);
  Bench b(args.seed, args.smoke);

  // Set-up repeats, at least three times and for about a second, so its
  // median is steady; each repetition replaces the previous one's kernels,
  // inputs and references.
  b.spans.set_enabled(args.trace);
  std::vector<double> setup_times;
  double setup_total = 0.0;
  const auto more_setups = [&] {
    if (args.smoke) return setup_times.empty();
    return setup_times.size() < 3 || (setup_total < 1.0 && setup_times.size() < 50);
  };
  while (b.failed == 0 && more_setups()) {
    const double t0 = b.spans.now();
    b.spans.span("setup", [&] { w->setup(b); });
    setup_times.push_back(b.spans.now() - t0);
    setup_total += setup_times.back();
  }

  // Passes until --seconds is spent. A traced run alternates untraced and
  // traced passes: the traced ones give the per-layer numbers, the ratio of
  // the two medians the tracing overhead.
  std::vector<double> untraced;
  std::vector<double> traced;
  const int min_passes = args.trace ? 2 : (args.smoke ? 1 : 3);
  const double start = b.spans.now();
  // A failed operation already rejects the run, so measuring stops there.
  for (int i = 0; b.failed == 0; ++i) {
    const bool traced_pass = args.trace && i % 2 == 1;
    b.spans.set_enabled(traced_pass);
    const double t0 = b.spans.now();
    b.spans.span("pass", [&] { w->pass(b); });
    (traced_pass ? traced : untraced).push_back(b.spans.now() - t0);

    if (i + 1 < min_passes) continue;
    if (args.smoke) break;
    std::vector<double> all = untraced;
    all.insert(all.end(), traced.begin(), traced.end());
    if (b.spans.now() - start + median(all) > args.seconds) break;
  }
  const std::size_t passes = untraced.size() + traced.size();

  Metrics metrics;
  std::vector<MetricDef> defs;
  if (!args.trace) {
    defs.assign(std::begin(kEndToEnd), std::end(kEndToEnd));
    metrics["setup_s"] = setup_times.empty() ? 0.0 : median(setup_times);
    metrics["wall_s"] = untraced.empty() ? 0.0 : median(untraced);
    metrics["peak_rss_mb"] = peak_rss_mb();
  } else {
    defs.assign(std::begin(kPerLayer), std::end(kPerLayer));
    for (const MetricDef& d : defs) metrics[d.name] = 0.0;
    if (b.failed == 0) {
      b.spans.set_enabled(true);
      w->layer_metrics(b, metrics);
      compile_layer_metrics(b, metrics);
      metrics["bench.trace_overhead_frac"] =
          traced.empty() || untraced.empty() ? 0.0 : median(traced) / median(untraced) - 1.0;
      metrics["bench.spans"] = b.spans.per_top("pass");
    }
  }

  std::cout << "host_perf " << args.workload << " seed=" << args.seed
            << (args.smoke ? " smoke" : "") << (args.trace ? " traced" : "") << ": "
            << setup_times.size() << " set-ups, " << passes << " passes, " << b.attempted
            << " operations, " << b.failed << " failed\n  untraced pass seconds:";
  for (const double t : untraced) std::cout << " " << t;
  std::cout << "\n";
  for (const MetricDef& d : defs) {
    std::cout << "  " << d.name << " = " << metrics[d.name] << " " << d.unit << "\n";
  }
  if (args.trace) {
    std::cout << "self time per span (traced set-ups and passes):\n";
    b.spans.print_self_times(std::cout);
    if (!args.trace_out.empty()) {
      prof::TraceWriter trace;
      const int tid = workload_index(args.workload);
      trace.track(tid, args.workload);
      b.spans.write_trace(trace, tid);
      trace.write_file(args.trace_out);
      std::cout << "trace written to " << args.trace_out << "\n";
    }
  }
  if (!args.json_out.empty()) {
    std::ofstream os(args.json_out);
    TC_CHECK(os.good(), "cannot write " + args.json_out);
    JsonWriter j(os);
    j.begin_object();
    j.field("workload", args.workload);
    j.field("seed", args.seed);
    j.field("smoke", args.smoke);
    j.field("trace", args.trace);
    j.field("passes", static_cast<std::uint64_t>(passes));
    write_result(j, b, metrics, defs);
    j.key("deterministic");
    j.begin_object();
    for (const auto& [k, v] : b.det) j.field(k, v);
    j.end_object();
    j.end_object();
    os << "\n";
  }
  std::ostringstream line;
  JsonWriter j(line);
  j.begin_object();
  write_result(j, b, metrics, defs);
  j.end_object();
  std::cout << line.str() << std::endl;
  return b.failed == 0 ? 0 : 1;
}

// ---------------------------------------------------------------------------
// --summarize: medians and quartiles over repeated runs.

/// Python's statistics.quantiles(v, n=4) (the "exclusive" method), which is
/// how spreads over repeated runs are judged.
std::vector<double> quartiles(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const auto ld = static_cast<long>(v.size());
  const long m = ld + 1;
  std::vector<double> q;
  for (long i = 1; i < 4; ++i) {
    const long j = std::clamp(i * m / 4, 1L, ld - 1);
    const long delta = i * m - j * 4;
    q.push_back((v[static_cast<std::size_t>(j - 1)] * static_cast<double>(4 - delta) +
                 v[static_cast<std::size_t>(j)] * static_cast<double>(delta)) /
                4.0);
  }
  return q;
}

std::string read_file(const std::string& path) {
  std::ifstream is(path);
  TC_CHECK(is.good(), "cannot read " + path);
  std::ostringstream ss;
  ss << is.rdbuf();
  return ss.str();
}

/// FNV-1a over the deterministic results, so two sets of runs compare at a
/// glance.
std::uint64_t digest(const JsonValue& det) {
  std::uint64_t h = 1469598103934665603ull;
  for (const char c : json_dump(det)) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ull;
  }
  return h;
}

int summarize(const std::string& benchmark_json, const std::vector<std::string>& files) {
  const JsonValue spec = json_parse(read_file(benchmark_json));
  std::map<std::string, double> bounds;
  for (const JsonValue& e : spec.at("end_to_end").as_array()) {
    bounds[e.at("name").as_string()] = e.at("bound").as_number();
  }
  struct Series {
    std::string unit;
    std::vector<double> values;
  };
  std::map<std::string, std::map<std::string, Series>> by_workload;
  std::map<std::string, std::vector<std::string>> digests;
  int failed = 0;
  for (const std::string& f : files) {
    const JsonValue r = json_parse(read_file(f));
    const std::string& wl = r.at("workload").as_string();
    failed += r.at("correct").as_bool() ? 0 : 1;
    for (const auto& [name, v] : r.at("metrics").as_object()) {
      Series& s = by_workload[wl][name];
      s.unit = v.at("unit").as_string();
      s.values.push_back(v.at("value").as_number());
    }
    std::ostringstream d;
    d << "seed " << static_cast<std::uint64_t>(r.at("seed").as_number()) << " 0x" << std::hex
      << digest(r.at("deterministic"));
    digests[wl].push_back(d.str());
  }
  int flagged = 0;
  for (const auto& [wl, metrics] : by_workload) {
    std::cout << "== " << wl << " ==\n";
    for (const auto& [name, s] : metrics) {
      std::cout << "  " << name << " [" << s.unit << "] n=" << s.values.size()
                << " median=" << median(s.values);
      if (s.values.size() >= 2) {
        const auto q = quartiles(s.values);
        const double mid = median(s.values);
        const double spread = mid != 0.0 ? (q[2] - q[0]) / std::abs(mid) : 0.0;
        std::cout << " q1=" << q[0] << " q3=" << q[2] << " spread=" << spread;
        if (const auto it = bounds.find(name); it != bounds.end()) {
          std::cout << " bound=" << it->second;
          if (name != "setup_s" && spread > it->second) {
            std::cout << "  SPREAD>BOUND";
            ++flagged;
          }
        }
      }
      std::cout << "\n";
    }
    std::cout << "  deterministic digests:";
    for (const auto& d : digests[wl]) std::cout << " [" << d << "]";
    std::cout << "\n";
  }
  std::cout << files.size() << " runs, " << failed << " with failed operations, " << flagged
            << " metrics over their bound\n";
  return failed == 0 ? 0 : 1;
}

}  // namespace
}  // namespace tc::host_perf

int main(int argc, char** argv) {
  using namespace tc::host_perf;
  if (argc >= 3 && std::string(argv[1]) == "--summarize") {
    try {
      return summarize(argv[2], std::vector<std::string>(argv + 3, argv + argc));
    } catch (const std::exception& e) {
      std::cerr << "host_perf --summarize: " << e.what() << "\n";
      return 2;
    }
  }
  Args args;
  try {
    args = parse_args(argc, argv);
  } catch (const std::exception& e) {
    std::cerr << "host_perf: " << e.what() << "\n"
              << "usage: host_perf --workload device_grid|paper_sweep|control_plane|functional"
                 " --seed N [--seconds S] [--trace 0|1] [--smoke] [--json out.json]"
                 " [--trace-out trace.json]\n"
                 "       host_perf --summarize BENCHMARK.json result.json...\n";
    return 2;
  }
  try {
    return run(args);
  } catch (const std::exception& e) {
    std::cerr << "host_perf: " << e.what() << "\n";
    return 1;
  }
}
