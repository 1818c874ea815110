#include "serve/serve.hpp"

#include <algorithm>
#include <cmath>
#include <deque>
#include <queue>
#include <utility>

#include "common/error.hpp"
#include "device/occupancy.hpp"
#include "op/op.hpp"
#include "tune/tune.hpp"

namespace tc::serve {

namespace {

/// Nearest-rank percentile of an ascending-sorted sample (q in (0, 1]).
double percentile(const std::vector<std::uint64_t>& sorted, double q) {
  if (sorted.empty()) return 0.0;
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(sorted.size())));
  const std::size_t idx = rank == 0 ? 0 : rank - 1;
  return static_cast<double>(sorted[std::min(idx, sorted.size() - 1)]);
}

struct TenantState {
  std::deque<const Request*> queue;
  double vtag = 0.0;  // SFQ virtual start tag
  TenantStats stats;
  std::vector<std::uint64_t> latencies;
};

}  // namespace

Server::Server(ServerOptions opt) : opt_(std::move(opt)) {
  if (!opt_.cache_path.empty()) {
    cache_ = tune::TuneCache::load(opt_.cache_path, &load_stats_);
  }
}

Server::Server(ServerOptions opt, tune::TuneCache warm)
    : opt_(std::move(opt)), cache_(std::move(warm)) {}

const core::HgemmConfig& Server::winner_for(const tune::CacheKey& key, Counters& c) {
  ++c.cache_lookups;
  if (const tune::CacheEntry* hit = cache_.find(key)) {
    ++c.cache_hits;
    return hit->cfg;
  }
  // Cold bucket: spend the tuning budget once, persist the winner. Tuning is
  // control-plane work — it costs host time but no virtual device cycles
  // (the pass still runs with the tuned winner); see docs/serving.md.
  ++c.cache_misses;
  tune::TuneOptions topt;
  topt.shape = tune::bucket_shape(key);
  topt.budget = opt_.tune_budget;
  topt.seed = opt_.tune_seed;
  topt.threads = opt_.threads;
  topt.engine = tune::Engine::kTimedDevice;
  topt.space = opt_.space;
  const tune::TuneResult r = tune::tune(opt_.spec, topt);
  c.tune_evals += static_cast<std::uint64_t>(r.prune.evaluated);
  const tune::Candidate& best = r.best();
  tune::CacheEntry e;
  e.key = key;
  e.cfg = best.cfg;
  e.sim_cycles = best.sim_cycles;
  e.budget = opt_.tune_budget;
  e.seed = opt_.tune_seed;
  e.engine = tune::engine_name(topt.engine);
  cache_.insert(std::move(e));
  if (!opt_.cache_path.empty()) cache_.save(opt_.cache_path);
  const tune::CacheEntry* stored = cache_.find(key);
  TC_CHECK(stored != nullptr, "tuning-cache insert lost key " + key.str());
  return stored->cfg;
}

Server::PassCost Server::pass_cost(const core::HgemmConfig& cfg, const tune::CacheKey& key,
                                   int fused, int batch) {
  // Fused requests concatenate along M (shared B operand — the LLM batching
  // shape); the request's own batch axis rides as the GemmOp's z-batched
  // planes. Lowering reuses the winner's split_k, so a split-K winner costs
  // its full multi-launch plan here.
  op::GemmOp gemm;
  gemm.shape = {static_cast<std::size_t>(fused) * key.m, key.n, key.k};
  gemm.batch.count = batch;
  gemm.split_k = cfg.split_k;

  // The memo is read before anything is lowered. The key (config name,
  // contract shape, op batch) fixes the lowered plan: cfg.split_k already
  // equals the op's, as op::lower sets it. So a hit reuses a plan that its
  // first use lowered, gated and simulated.
  const GemmShape s = cfg.contract_shape(gemm.shape);
  std::string memo_key = tune::candidate_name(cfg) + "@" + std::to_string(s.m) + "x" +
                         std::to_string(s.n) + "x" + std::to_string(s.k);
  if (batch > 1) memo_key += "b" + std::to_string(batch);  // legacy keys unchanged
  if (const auto it = cost_memo_.find(memo_key); it != cost_memo_.end()) {
    return {it->second, 0, false};
  }
  const op::OpPlan plan = op::lower(gemm, cfg);
  TC_CHECK(plan.contract == s, "pass-cost memo key disagrees with the lowered plan's shape");

  // Same harness as tune::eval_timed_device: time_gemm_op hard-gates every
  // launch (validate + hazard scan — a diagnostic throws, so the counter
  // stays 0), then runs the lockstep full-grid simulation with the
  // model-pinned L2 hit rate on the main pass. Launches beyond the first are
  // charged the kernel-launch overhead; the first launch's overhead is
  // outside the virtual busy window, exactly as before.
  const device::Occupancy occ = device::occupancy(opt_.spec, plan.launches.front().program);
  op::TimedOpOptions topt;
  topt.forced_l2_hit_rate = tune::predicted_l2_hit_rate(opt_.spec, plan.cfg, occ, s);
  const op::OpTiming t = op::time_gemm_op(opt_.spec, plan, topt);
  const std::uint64_t cycles = t.total_extra_overhead(opt_.spec.launch_overhead_cycles);

  cost_memo_.emplace(memo_key, cycles);
  return {cycles, 0, true};
}

Metrics Server::run(const std::vector<Request>& requests) {
  TC_CHECK(opt_.workers >= 1, "server needs at least one worker");
  TC_CHECK(opt_.batch_max >= 1, "batch_max must be >= 1");

  // Arrival order: (arrival_cycle, id) — the stream's canonical total order.
  std::vector<const Request*> arrivals;
  arrivals.reserve(requests.size());
  for (const Request& r : requests) arrivals.push_back(&r);
  std::sort(arrivals.begin(), arrivals.end(), [](const Request* a, const Request* b) {
    if (a->arrival_cycle != b->arrival_cycle) return a->arrival_cycle < b->arrival_cycle;
    return a->id < b->id;
  });

  std::size_t num_tenants = opt_.tenant_weights.size();
  for (const Request& r : requests) {
    TC_CHECK(r.tenant >= 0, "negative tenant id");
    TC_CHECK(r.batch >= 1, "request batch must be >= 1");
    TC_CHECK(r.dtype == "f16", "unsupported request dtype '" + r.dtype +
                                   "' (the kernel library generates f16 only)");
    num_tenants = std::max(num_tenants, static_cast<std::size_t>(r.tenant) + 1);
  }
  std::vector<TenantState> tenants(num_tenants);
  for (std::size_t t = 0; t < num_tenants; ++t) {
    tenants[t].stats.tenant = static_cast<int>(t);
    tenants[t].stats.weight =
        t < opt_.tenant_weights.size() ? opt_.tenant_weights[t] : 1;
    TC_CHECK(tenants[t].stats.weight >= 1, "tenant weights must be >= 1");
  }

  Metrics m;
  Counters& c = m.counters;
  c.requests = requests.size();

  // Simulated worker fleet: free ids (lowest first) + in-flight passes in a
  // min-heap keyed (completion cycle, dispatch seq) so ties resolve by
  // dispatch order.
  struct InFlight {
    std::uint64_t completion = 0;
    std::uint64_t seq = 0;
    int worker = 0;
    int tenant = 0;
    std::uint64_t start = 0;
    std::vector<const Request*> reqs;
  };
  const auto later = [](const InFlight& a, const InFlight& b) {
    if (a.completion != b.completion) return a.completion > b.completion;
    return a.seq > b.seq;
  };
  std::priority_queue<InFlight, std::vector<InFlight>, decltype(later)> inflight(later);
  std::vector<int> free_workers;
  for (int w = opt_.workers - 1; w >= 0; --w) free_workers.push_back(w);  // pop lowest id

  double global_vtime = 0.0;
  std::size_t queued_total = 0;
  std::uint64_t dispatch_seq = 0;
  std::vector<std::uint64_t> latencies;

  const auto dispatch = [&](std::uint64_t now) {
    while (!free_workers.empty() && queued_total > 0) {
      // SFQ: serve the backlogged tenant with the smallest (vtag, id).
      std::size_t pick = num_tenants;
      for (std::size_t t = 0; t < num_tenants; ++t) {
        if (tenants[t].queue.empty()) continue;
        if (pick == num_tenants || tenants[t].vtag < tenants[pick].vtag) pick = t;
      }
      TenantState& ts = tenants[pick];
      global_vtime = std::max(global_vtime, ts.vtag);

      // Batch from the queue head: FIFO within the tenant, fusing only
      // consecutive requests that share the tuning bucket (dtype included)
      // and the op batch axis.
      const Request& head = *ts.queue.front();
      const tune::CacheKey key = tune::cache_key(opt_.spec, head.shape, head.dtype);
      const int op_batch = head.batch;
      InFlight f;
      while (!ts.queue.empty() &&
             static_cast<int>(f.reqs.size()) < opt_.batch_max &&
             ts.queue.front()->batch == op_batch &&
             tune::cache_key(opt_.spec, ts.queue.front()->shape, ts.queue.front()->dtype) ==
                 key) {
        f.reqs.push_back(ts.queue.front());
        ts.queue.pop_front();
      }
      queued_total -= f.reqs.size();

      const core::HgemmConfig& cfg = winner_for(key, c);
      const PassCost pc = pass_cost(cfg, key, static_cast<int>(f.reqs.size()), op_batch);
      c.hazard_diags += pc.hazard_diags;
      if (pc.simulated) ++c.sim_passes;
      ++c.batches;
      c.batched_requests += f.reqs.size();
      BucketStats& bo = m.bucket_occupancy[key.str()];
      bo.requests += f.reqs.size();
      ++bo.batches;
      c.worker_busy_cycles += pc.cycles;
      ts.stats.busy_cycles += pc.cycles;
      ts.vtag += static_cast<double>(pc.cycles) / ts.stats.weight;

      f.worker = free_workers.back();
      free_workers.pop_back();
      f.tenant = static_cast<int>(pick);
      f.start = now;
      f.completion = now + pc.cycles;
      f.seq = dispatch_seq++;
      inflight.push(std::move(f));
    }
  };

  std::size_t ai = 0;
  while (ai < arrivals.size() || !inflight.empty()) {
    std::uint64_t now;
    if (!inflight.empty() &&
        (ai >= arrivals.size() || inflight.top().completion <= arrivals[ai]->arrival_cycle)) {
      now = inflight.top().completion;
    } else {
      now = arrivals[ai]->arrival_cycle;
    }

    // Completions first: workers freed at cycle T serve the queue before
    // cycle-T arrivals are admitted against it.
    while (!inflight.empty() && inflight.top().completion == now) {
      const InFlight f = inflight.top();
      inflight.pop();
      free_workers.push_back(f.worker);
      std::sort(free_workers.begin(), free_workers.end(), std::greater<>());
      for (const Request* r : f.reqs) {
        ++c.completed;
        ++tenants[f.tenant].stats.completed;
        const std::uint64_t lat = f.completion - r->arrival_cycle;
        latencies.push_back(lat);
        tenants[f.tenant].latencies.push_back(lat);
        ++m.batch_size_hist[static_cast<int>(f.reqs.size())];
        m.completions.push_back({r->id, f.tenant, r->arrival_cycle, f.start, f.completion,
                                 static_cast<int>(f.reqs.size())});
      }
      m.makespan_cycles = std::max(m.makespan_cycles, f.completion);
    }
    dispatch(now);

    // Admission: a request arriving with queue_capacity requests already
    // waiting is shed (load is bounded; latency never grows without bound).
    while (ai < arrivals.size() && arrivals[ai]->arrival_cycle == now) {
      const Request* r = arrivals[ai++];
      TenantState& ts = tenants[static_cast<std::size_t>(r->tenant)];
      if (queued_total >= opt_.queue_capacity) {
        ++c.shed;
        ++ts.stats.shed;
        continue;
      }
      ++c.accepted;
      ++ts.stats.accepted;
      if (ts.queue.empty()) ts.vtag = std::max(ts.vtag, global_vtime);
      ts.queue.push_back(r);
      ++queued_total;
    }
    dispatch(now);
  }

  // Aggregate metrics — everything from the virtual clock, so byte-identical
  // across hosts and host thread counts.
  std::sort(latencies.begin(), latencies.end());
  double sum = 0.0;
  for (const std::uint64_t l : latencies) sum += static_cast<double>(l);
  m.mean_cycles = latencies.empty() ? 0.0 : sum / static_cast<double>(latencies.size());
  m.p50_cycles = percentile(latencies, 0.50);
  m.p99_cycles = percentile(latencies, 0.99);
  m.p50_ms = opt_.spec.cycles_to_seconds(m.p50_cycles) * 1e3;
  m.p99_ms = opt_.spec.cycles_to_seconds(m.p99_cycles) * 1e3;
  const double makespan_s =
      opt_.spec.cycles_to_seconds(static_cast<double>(m.makespan_cycles));
  m.qps = makespan_s > 0.0 ? static_cast<double>(c.completed) / makespan_s : 0.0;
  m.cache_hit_rate = c.cache_lookups > 0
                         ? static_cast<double>(c.cache_hits) / static_cast<double>(c.cache_lookups)
                         : 0.0;
  m.worker_utilization =
      m.makespan_cycles > 0
          ? static_cast<double>(c.worker_busy_cycles) /
                (static_cast<double>(opt_.workers) * static_cast<double>(m.makespan_cycles))
          : 0.0;

  for (TenantState& ts : tenants) {
    std::sort(ts.latencies.begin(), ts.latencies.end());
    ts.stats.share = c.worker_busy_cycles > 0
                         ? static_cast<double>(ts.stats.busy_cycles) /
                               static_cast<double>(c.worker_busy_cycles)
                         : 0.0;
    ts.stats.p50_cycles = percentile(ts.latencies, 0.50);
    ts.stats.p99_cycles = percentile(ts.latencies, 0.99);
    m.tenants.push_back(ts.stats);
  }
  return m;
}

void write_metrics_json(JsonWriter& j, const Metrics& m) {
  j.begin_object();
  j.key("counters");
  j.begin_object();
  j.field("requests", m.counters.requests);
  j.field("accepted", m.counters.accepted);
  j.field("shed", m.counters.shed);
  j.field("completed", m.counters.completed);
  j.field("batches", m.counters.batches);
  j.field("batched_requests", m.counters.batched_requests);
  j.field("cache_lookups", m.counters.cache_lookups);
  j.field("cache_hits", m.counters.cache_hits);
  j.field("cache_misses", m.counters.cache_misses);
  j.field("tune_evals", m.counters.tune_evals);
  j.field("hazard_diags", m.counters.hazard_diags);
  j.field("sim_passes", m.counters.sim_passes);
  j.field("worker_busy_cycles", m.counters.worker_busy_cycles);
  j.end_object();
  j.field("makespan_cycles", m.makespan_cycles);
  j.field("mean_cycles", m.mean_cycles);
  j.field("p50_cycles", m.p50_cycles);
  j.field("p99_cycles", m.p99_cycles);
  j.field("p50_ms", m.p50_ms);
  j.field("p99_ms", m.p99_ms);
  j.field("qps", m.qps);
  j.field("cache_hit_rate", m.cache_hit_rate);
  j.field("worker_utilization", m.worker_utilization);
  j.key("batch_size_hist");
  j.begin_array();
  for (const auto& [batch, count] : m.batch_size_hist) {
    j.begin_object();
    j.field("batch", batch);
    j.field("requests", count);
    j.end_object();
  }
  j.end_array();
  j.key("bucket_occupancy");
  j.begin_array();
  for (const auto& [bucket, b] : m.bucket_occupancy) {
    j.begin_object();
    j.field("bucket", bucket);
    j.field("requests", b.requests);
    j.field("batches", b.batches);
    j.end_object();
  }
  j.end_array();
  j.key("tenants");
  j.begin_array();
  for (const TenantStats& t : m.tenants) {
    j.begin_object();
    j.field("tenant", t.tenant);
    j.field("weight", t.weight);
    j.field("accepted", t.accepted);
    j.field("shed", t.shed);
    j.field("completed", t.completed);
    j.field("busy_cycles", t.busy_cycles);
    j.field("share", t.share);
    j.field("p50_cycles", t.p50_cycles);
    j.field("p99_cycles", t.p99_cycles);
    j.end_object();
  }
  j.end_array();
  j.end_object();
}

}  // namespace tc::serve
