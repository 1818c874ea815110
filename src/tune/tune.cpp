#include "tune/tune.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <exception>
#include <thread>

#include "check/hazard.hpp"
#include "common/error.hpp"
#include "common/rng.hpp"
#include "core/hgemm.hpp"
#include "core/kernel_gen.hpp"
#include "model/blocking.hpp"
#include "model/l2_reuse.hpp"
#include "op/op.hpp"
#include "sass/validator.hpp"

namespace tc::tune {

namespace {

/// Average bank-serialization factor of the naive row-major layout's shared
/// memory accesses (Fig. 5): an 8x8 tile column strides bk*2 bytes, so the
/// 8 rows of a fragment land on the same bank.
constexpr double kNaiveBankConflict = 8.0;

}  // namespace

/// Model-predicted LDG L2 hit rate — the same l2_reuse inputs PerfEstimator
/// and validate_wave use, so pinned-hit-rate evaluation matches them.
double predicted_l2_hit_rate(const device::DeviceSpec& spec, const core::HgemmConfig& cfg,
                             const device::Occupancy& occ, const GemmShape& s) {
  model::L2ReuseInput ri;
  ri.bm = cfg.bm;
  ri.bn = cfg.bn;
  ri.bk = cfg.bk;
  ri.grid_x = s.n / static_cast<std::size_t>(cfg.bn);
  ri.grid_y = s.m / static_cast<std::size_t>(cfg.bm);
  ri.wave_ctas = spec.num_sms * occ.ctas_per_sm;
  ri.order = cfg.launch_order;
  ri.swizzle_max_grid_x = cfg.swizzle_max_grid_x;
  ri.supertile_width = cfg.supertile_width;
  ri.k_iters = std::ceil(static_cast<double>(s.k) / cfg.bk);
  ri.l2_capacity = spec.l2_size_bytes;
  return model::l2_reuse_predict(ri).ldg_l2_hit_rate;
}

namespace {

/// One timed-device evaluation: the candidate lowered to its GemmOp plan and
/// costed by op::time_gemm_op (skip_mma_math, lockstep, model-pinned L2 hit
/// rate on the main pass) over the full grid at the padded contract shape.
/// A split-K candidate's plan adds a reduction launch, charged the
/// inter-launch overhead, so it only wins when the extra parallelism pays for
/// the second kernel.
void eval_timed_device(const device::DeviceSpec& spec, const GemmShape& user_shape,
                       Candidate& c) {
  const GemmShape s = c.cfg.contract_shape(user_shape);
  op::GemmOp gemm;
  gemm.shape = user_shape;
  gemm.split_k = c.cfg.split_k;
  const op::OpPlan plan = op::lower(gemm, c.cfg);
  c.hazard_diags = 0;  // time_gemm_op hard-gates every launch (throws on any)

  // The static space filter must have predicted this program exactly.
  const sass::Program& prog = plan.launches.front().program;
  TC_CHECK(prog.num_regs == c.regs, "predicted register count diverged for " + c.name);
  const device::Occupancy built = device::occupancy(spec, prog);
  TC_CHECK(built.ctas_per_sm == c.occ.ctas_per_sm, "predicted occupancy diverged for " + c.name);

  op::TimedOpOptions topts;
  topts.forced_l2_hit_rate = predicted_l2_hit_rate(spec, c.cfg, c.occ, s);
  const op::OpTiming t = op::time_gemm_op(spec, plan, topts);
  // Launches beyond the first carry the launch overhead; the first one's
  // cost is common to every candidate and cancels in the ranking.
  c.sim_cycles = t.total_extra_overhead(spec.launch_overhead_cycles);
  c.sms_used = t.main_sms_used;
  c.seconds = spec.cycles_to_seconds(static_cast<double>(c.sim_cycles));
  c.tflops = s.flops() / c.seconds / 1e12;
}

/// One wave-model evaluation: PerfEstimator's measured-surrogate pipeline
/// (handles paper-scale shapes). The kernel is still built and hard-gated.
void eval_wave_model(const device::DeviceSpec& spec, const GemmShape& user_shape,
                     Candidate& c) {
  const GemmShape s = c.cfg.contract_shape(user_shape);
  const sass::Program prog = core::hgemm_kernel(c.cfg, s);
  sass::validate(prog);
  const auto diags = check::find_hazards(prog);
  c.hazard_diags = diags.size();
  TC_CHECK(diags.empty(), "tuner built a hazardous kernel: " + c.name);
  TC_CHECK(prog.num_regs == c.regs, "predicted register count diverged for " + c.name);
  const device::Occupancy built = device::occupancy(spec, prog);
  TC_CHECK(built.ctas_per_sm == c.occ.ctas_per_sm, "predicted occupancy diverged for " + c.name);

  // PerfEstimator's surrogate pipeline is single-pass; split-K candidates
  // fall back to the split-aware analytic model score (still hard-gated
  // above).
  if (c.cfg.split_k > 1) {
    c.sim_cycles = static_cast<std::uint64_t>(std::llround(c.model.cycles));
    c.seconds = spec.cycles_to_seconds(c.model.cycles);
    c.tflops = user_shape.flops() / c.seconds / 1e12;
    c.sms_used = spec.num_sms;
    return;
  }

  core::PerfEstimator est(spec, c.cfg);
  const core::PerfPoint p = est.estimate(user_shape);
  const double iters = std::ceil(static_cast<double>(s.k) / c.cfg.bk);
  // Kernel cycles without the fixed host launch overhead, comparable to the
  // timed engine's device_cycles.
  const double kernel_cycles = p.waves * (p.overhead_cycles + iters * p.cycles_per_iter);
  c.sim_cycles = static_cast<std::uint64_t>(std::llround(kernel_cycles));
  c.seconds = p.seconds;
  c.tflops = p.tflops;
  c.sms_used = spec.num_sms;
}

}  // namespace

std::string candidate_name(const core::HgemmConfig& cfg) {
  return cfg.name() + (cfg.prefetch ? "" : "_nopf");
}

const char* engine_name(Engine e) {
  return e == Engine::kTimedDevice ? "timed-device" : "wave-model";
}

ModelScore model_score(const device::DeviceSpec& spec, const core::HgemmConfig& cfg,
                       const device::Occupancy& occ, const GemmShape& shape) {
  const GemmShape s = cfg.contract_shape(shape);
  // Split-K multiplies the grid by the slice count and divides the per-CTA
  // main-loop depth; the reduction pass is added to the total below.
  const double grid = static_cast<double>(s.m / static_cast<std::size_t>(cfg.bm)) *
                      static_cast<double>(s.n / static_cast<std::size_t>(cfg.bn)) *
                      cfg.split_k;
  const double iters = static_cast<double>(cfg.slice_k(s)) / cfg.bk;

  const model::BlockConfig b{cfg.bm, cfg.bn, cfg.bk, cfg.wm, cfg.wn, cfg.wk};
  const model::CpiSet cpi{};

  ModelScore ms;
  ms.tensor_cycles = model::hmma_cycles(b, cpi);
  double lds = model::lds_cycles(b, cpi);
  double ldgsts = model::ldg_sts_cycles(b, cpi);
  const double sts_part =
      static_cast<double>(cfg.bm + cfg.bn) * cfg.bk * 2.0 / (32.0 * 16.0) * cpi.sts128;
  double exposure = model::sts_exposed_cycles(b, cpi, cfg.sts_interleave);
  if (cfg.layout == core::SmemLayout::kNaiveRowMajor) {
    lds *= kNaiveBankConflict;
    ldgsts += sts_part * (kNaiveBankConflict - 1.0);
    exposure *= kNaiveBankConflict;
  }
  ms.memio_cycles = ldgsts + lds;
  ms.l2_hit_rate = predicted_l2_hit_rate(spec, cfg, occ, s);

  // TimedDevice primes SMs depth-first, so a small grid packs onto few SMs.
  const double sms_used =
      std::min<double>(spec.num_sms, std::ceil(grid / occ.ctas_per_sm));
  const double ctas_max = std::ceil(grid / sms_used);  // busiest SM's share
  const double resident = std::min<double>(occ.ctas_per_sm, ctas_max);
  ms.waves = std::ceil(ctas_max / resident);

  // Per-SM steady iteration: `resident` CTAs multiplex the four tensor
  // partitions and the MIO pipe (throughput terms scale), exposure stalls
  // are latency-like and counted once.
  const double blended_lat =
      ms.l2_hit_rate * spec.lat_l2_hit + (1.0 - ms.l2_hit_rate) * spec.lat_dram;
  double iter = std::max(resident * ms.tensor_cycles, resident * ms.memio_cycles) + exposure;
  if (!cfg.prefetch) iter += blended_lat;  // serialized LDG->STS each iteration

  // DRAM demand of the resident set vs the SM's share of sustained bandwidth.
  const double dram_bytes =
      resident * static_cast<double>(cfg.bm + cfg.bn) * cfg.bk * 2.0 * (1.0 - ms.l2_hit_rate);
  const double dram_share = spec.dram_bytes_per_cycle() / sms_used *
                            model::dram_row_efficiency(static_cast<double>(s.k) * 2.0);
  iter = std::max(iter, dram_bytes / dram_share);
  ms.iter_cycles = iter;

  // Wave overhead: first two slabs' fill latency plus the MIO port time of
  // the prologue loads and the C-store epilogue for the resident set.
  const double ldg_bytes = static_cast<double>(cfg.bm + cfg.bn) * cfg.bk * 2.0;
  const double c_bytes = static_cast<double>(cfg.bm) * cfg.bn * 2.0;
  ms.overhead_cycles =
      blended_lat + resident * (2.0 * ldg_bytes + c_bytes) / spec.l2_port_bytes_per_cycle;

  ms.cycles = ms.waves * (ms.overhead_cycles + iters * ms.iter_cycles);
  if (cfg.split_k > 1) {
    // Reduction pass (streaming: split_k partial planes in, one plane out,
    // DRAM-bound) plus one extra kernel launch.
    const double reduce_bytes =
        (cfg.split_k + 1.0) * static_cast<double>(s.m) * static_cast<double>(s.n) * 2.0;
    ms.cycles += reduce_bytes / spec.dram_bytes_per_cycle() +
                 static_cast<double>(spec.launch_overhead_cycles);
  }
  return ms;
}

const Candidate& TuneResult::best() const {
  TC_CHECK(!ranked.empty() && ranked.front().evaluated, "tune() evaluated no candidates");
  return ranked.front();
}

TuneResult tune(const device::DeviceSpec& spec, const TuneOptions& opt) {
  TC_CHECK(opt.budget >= 1, "tune budget must be >= 1");
  TC_CHECK(opt.threads >= 1, "tune threads must be >= 1");

  TuneResult r;
  r.spec = spec;
  r.opt = opt;

  // 1. Enumerate the legal space and attach static predictions.
  const auto configs = enumerate(spec, opt.space, &r.prune);
  TC_CHECK(!configs.empty(), "search space has no legal configurations on " + spec.name);
  std::vector<Candidate> cands;
  cands.reserve(configs.size());
  for (const auto& cfg : configs) {
    Candidate c;
    c.cfg = cfg;
    c.name = candidate_name(cfg);
    const Legality v = classify(spec, cfg);
    c.regs = v.regs;
    c.occ = v.occ;
    c.model = model_score(spec, cfg, v.occ, opt.shape);
    cands.push_back(std::move(c));
  }

  // 2. Model ranking (deterministic tie-breaks).
  std::sort(cands.begin(), cands.end(), [](const Candidate& a, const Candidate& b) {
    if (a.model.cycles != b.model.cycles) return a.model.cycles < b.model.cycles;
    return a.name < b.name;
  });
  for (std::size_t i = 0; i < cands.size(); ++i) cands[i].model_rank = static_cast<int>(i);

  // 3. Pick the evaluation set: the model's top ranks plus seeded
  //    exploration picks from the remainder.
  const int budget = std::min<int>(opt.budget, static_cast<int>(cands.size()));
  int explore = opt.explore < 0 ? budget / 4 : std::min(opt.explore, budget);
  if (budget >= static_cast<int>(cands.size())) explore = 0;
  const int top = budget - explore;
  std::vector<std::size_t> eval_ids;
  eval_ids.reserve(static_cast<std::size_t>(budget));
  for (int i = 0; i < top; ++i) eval_ids.push_back(static_cast<std::size_t>(i));
  if (explore > 0) {
    Rng rng(opt.seed);
    std::vector<std::size_t> rest;
    for (std::size_t i = static_cast<std::size_t>(top); i < cands.size(); ++i) rest.push_back(i);
    for (int e = 0; e < explore && !rest.empty(); ++e) {
      const auto pick = static_cast<std::size_t>(rng.next_below(rest.size()));
      eval_ids.push_back(rest[pick]);
      cands[rest[pick]].explored = true;
      rest.erase(rest.begin() + static_cast<std::ptrdiff_t>(pick));
    }
  }

  // 4. Evaluate. Host threads share an atomic work index; every evaluation
  //    owns its memory and runs the lockstep simulator, so results are
  //    independent of the worker count.
  std::atomic<std::size_t> next{0};
  std::vector<std::exception_ptr> errors(eval_ids.size());
  const auto worker = [&] {
    for (std::size_t w; (w = next.fetch_add(1)) < eval_ids.size();) {
      Candidate& c = cands[eval_ids[w]];
      try {
        if (opt.engine == Engine::kTimedDevice) {
          eval_timed_device(spec, opt.shape, c);
        } else {
          eval_wave_model(spec, opt.shape, c);
        }
        c.evaluated = true;
      } catch (...) {
        errors[w] = std::current_exception();
      }
    }
  };
  const int workers = std::min<int>(opt.threads, static_cast<int>(eval_ids.size()));
  if (workers <= 1) {
    worker();
  } else {
    std::vector<std::thread> pool;
    pool.reserve(static_cast<std::size_t>(workers));
    for (int t = 0; t < workers; ++t) pool.emplace_back(worker);
    for (auto& t : pool) t.join();
  }
  for (const auto& e : errors) {
    if (e) std::rethrow_exception(e);
  }
  r.prune.evaluated = static_cast<std::int64_t>(eval_ids.size());

  // 5. Final ranking: evaluated first by simulated cycles, then the
  //    unevaluated tail in model order.
  std::sort(cands.begin(), cands.end(), [](const Candidate& a, const Candidate& b) {
    if (a.evaluated != b.evaluated) return a.evaluated;
    if (a.evaluated && a.sim_cycles != b.sim_cycles) return a.sim_cycles < b.sim_cycles;
    if (a.model.cycles != b.model.cycles) return a.model.cycles < b.model.cycles;
    return a.name < b.name;
  });
  r.ranked = std::move(cands);
  return r;
}

double rank_inversion_rate(const TuneResult& r) {
  std::vector<const Candidate*> ev;
  for (const auto& c : r.ranked) {
    if (c.evaluated) ev.push_back(&c);
  }
  if (ev.size() < 2) return 0.0;
  std::int64_t pairs = 0;
  std::int64_t inverted = 0;
  for (std::size_t i = 0; i < ev.size(); ++i) {
    for (std::size_t j = i + 1; j < ev.size(); ++j) {
      if (ev[i]->sim_cycles == ev[j]->sim_cycles) continue;  // simulated tie: no order to invert
      ++pairs;
      const bool sim_less = ev[i]->sim_cycles < ev[j]->sim_cycles;
      const bool model_less = ev[i]->model.cycles < ev[j]->model.cycles;
      if (sim_less != model_less) ++inverted;
    }
  }
  return pairs == 0 ? 0.0 : static_cast<double>(inverted) / static_cast<double>(pairs);
}

}  // namespace tc::tune
