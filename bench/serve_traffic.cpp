// GEMM-as-a-service traffic benchmark: the serving layer (tc::serve) under
// seeded LLM-inference-style load.
//
// Three stories, each a BENCH JSON series:
//   cold_vs_warm — the persistent tuning cache's payoff: the cold pass tunes
//     every bucket the traffic touches (tune_evals > 0), the warm pass on
//     the same server answers purely from the cache (tune_evals == 0,
//     hit rate 1.0) with identical latency metrics.
//   worker_sweep — fleet scaling at fixed load: p50/p99 latency, QPS and
//     utilization as the simulated device count grows.
//   batch_sweep — request batching: fusing compatible small GEMMs onto one
//     pass fills otherwise-idle SMs, shrinking the makespan.
//
// Everything is virtual-clock deterministic; run-to-run output is identical.
#include <iostream>

#include "bench_common.hpp"
#include "common/error.hpp"
#include "common/table.hpp"
#include "serve/serve.hpp"
#include "serve/traffic.hpp"
#include "tune/space.hpp"

using namespace tc;

namespace {

// Narrowed search space: cold-bucket tuning stays cheap while the winners
// remain real tuned kernels (the full space is the CLI's job).
tune::SearchSpace bench_space() {
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

serve::ServerOptions base_options() {
  serve::ServerOptions o;
  o.spec = device::rtx2070();
  o.space = bench_space();
  o.tune_budget = 2;
  return o;
}

}  // namespace

int main(int argc, char** argv) {
  const std::string json_path = bench::parse_flags(argc, argv, {}).text("--json");
  try {
    bench::BenchJson json("serve_traffic", "rtx2070");

    serve::TrafficOptions topt;
    topt.requests = 80;
    topt.tenants = 3;
    topt.seed = 42;
    const std::vector<serve::Request> traffic = serve::llm_traffic(topt);

    // --- cold vs warm: same server, two passes over the same stream ---
    std::cout << "== cold vs warm (persistent tuning cache) ==\n";
    json.begin_series("cold_vs_warm",
                      {"warm", "tune_evals", "cache_hit_rate", "p50_cycles", "p99_cycles",
                       "qps", "makespan_cycles"});
    serve::Server server(base_options());
    TablePrinter cw({"run", "tune evals", "hit rate", "p50 cycles", "p99 cycles", "QPS"});
    serve::Metrics cold;
    for (const int warm : {0, 1}) {
      const serve::Metrics m = server.run(traffic);
      if (warm == 0) cold = m;
      TC_CHECK(m.counters.hazard_diags == 0, "hazardous kernel served");
      if (warm == 1) {
        TC_CHECK(m.counters.tune_evals == 0, "warm server re-tuned a cached bucket");
        TC_CHECK(m.cache_hit_rate == 1.0, "warm server missed the cache");
      }
      cw.add_row({warm != 0 ? "warm" : "cold", std::to_string(m.counters.tune_evals),
                  fmt_fixed(m.cache_hit_rate, 3), fmt_fixed(m.p50_cycles, 0),
                  fmt_fixed(m.p99_cycles, 0), fmt_fixed(m.qps, 1)});
      json.row({static_cast<double>(warm), static_cast<double>(m.counters.tune_evals),
                m.cache_hit_rate, m.p50_cycles, m.p99_cycles, m.qps,
                static_cast<double>(m.makespan_cycles)});
    }
    cw.print(std::cout);
    json.summary("buckets_tuned", static_cast<double>(server.cache().size()));
    std::cout << "buckets tuned once, then served bit-for-bit: " << server.cache().size()
              << "\n\n";

    // --- worker sweep (warm cache reused across fleet sizes) ---
    std::cout << "== worker sweep (warm cache) ==\n";
    json.begin_series("worker_sweep",
                      {"workers", "p50_cycles", "p99_cycles", "qps", "utilization"});
    TablePrinter ws({"workers", "p50 cycles", "p99 cycles", "QPS", "utilization"});
    for (const int workers : {1, 2, 4, 8}) {
      serve::ServerOptions o = base_options();
      o.workers = workers;
      serve::Server s(o, server.cache());  // warm start from the tuned cache
      const serve::Metrics m = s.run(traffic);
      TC_CHECK(m.counters.tune_evals == 0, "warm worker sweep re-tuned");
      ws.add_row({std::to_string(workers), fmt_fixed(m.p50_cycles, 0),
                  fmt_fixed(m.p99_cycles, 0), fmt_fixed(m.qps, 1),
                  fmt_fixed(m.worker_utilization, 3)});
      json.row({static_cast<double>(workers), m.p50_cycles, m.p99_cycles, m.qps,
                m.worker_utilization});
    }
    ws.print(std::cout);
    std::cout << "\n";

    // --- batching: bursty small-GEMM load, batch_max 1 vs 4 ---
    std::cout << "== batching (bursty small GEMMs, one worker) ==\n";
    json.begin_series("batch_sweep", {"batch_max", "batches", "makespan_cycles", "qps"});
    serve::TrafficOptions burst;
    burst.requests = 32;
    burst.tenants = 1;
    burst.seed = 7;
    burst.mean_gap_cycles = 0.0;  // all requests arrive at once
    const std::vector<serve::Request> burst_traffic = serve::llm_traffic(burst);
    TablePrinter bs({"batch_max", "passes", "makespan cycles", "QPS"});
    for (const int batch_max : {1, 4}) {
      serve::ServerOptions o = base_options();
      o.workers = 1;
      o.batch_max = batch_max;
      o.queue_capacity = 64;
      serve::Server s(o, server.cache());
      const serve::Metrics m = s.run(burst_traffic);
      bs.add_row({std::to_string(batch_max), std::to_string(m.counters.batches),
                  std::to_string(m.makespan_cycles), fmt_fixed(m.qps, 1)});
      json.row({static_cast<double>(batch_max), static_cast<double>(m.counters.batches),
                static_cast<double>(m.makespan_cycles), m.qps});
    }
    bs.print(std::cout);

    if (!json_path.empty()) {
      json.write_file(json_path);
      std::cout << "json written to " << json_path << "\n";
    }
    return 0;
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
}
