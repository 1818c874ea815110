// tc::serve regression suite: the persistent shape-bucketed tuning cache
// (golden bucket edges, JSON round-trip, corrupt/stale rejection), the
// serving loop (warm-cache zero-retune guarantee, weighted fairness,
// admission control, batching) and the bitwise-determinism pin across host
// thread counts — the serving-layer analogue of test_tune's 1-vs-7 pin.
//
// The whole binary carries the `serve_smoke` CTest label; the two *Smoke
// tests at the bottom are the seeded-traffic acceptance runs on both device
// specs (hit rate >= 90% after warmup, zero hazard diagnostics).
#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "common/json.hpp"
#include "common/json_parse.hpp"
#include "serve/serve.hpp"
#include "serve/traffic.hpp"
#include "support/fnv1a.hpp"
#include "tune/cache.hpp"

namespace tc {
namespace {

/// Narrow space + tiny budget so every cold bucket tunes in well under a
/// second; winners are still real tuned kernels from a non-trivial grid.
tune::SearchSpace small_space() {
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

serve::ServerOptions small_options(const device::DeviceSpec& spec) {
  serve::ServerOptions o;
  o.spec = spec;
  o.space = small_space();
  o.tune_budget = 2;
  return o;
}

std::string metrics_json(const serve::Metrics& m) {
  std::ostringstream os;
  JsonWriter j(os);
  serve::write_metrics_json(j, m);
  return os.str();
}

/// N identical-shape requests for one tenant, all arriving at cycle 0.
std::vector<serve::Request> burst(int n, int tenant, const GemmShape& shape,
                                  std::uint64_t first_id = 0) {
  std::vector<serve::Request> out;
  for (int i = 0; i < n; ++i) {
    out.push_back({first_id + static_cast<std::uint64_t>(i), tenant, shape, 0});
  }
  return out;
}

class TempFile {
 public:
  explicit TempFile(const std::string& name)
      : path_((std::filesystem::temp_directory_path() / name).string()) {
    std::filesystem::remove(path_);
  }
  ~TempFile() { std::filesystem::remove(path_); }
  [[nodiscard]] const std::string& path() const { return path_; }

 private:
  std::string path_;
};

// ---------------------------------------------------------------------------
// CacheKey bucketing — golden pin of the bucket edges (docs/serving.md).
// Cache files persist across builds, so these edges are a compatibility
// contract: changing them orphans every stored winner.
// ---------------------------------------------------------------------------

TEST(TuneCacheKey, GoldenBucketEdges) {
  const struct {
    std::size_t dim, bucket;
  } golden[] = {
      {1, 64},    {63, 64},    {64, 64},     {65, 128},   {100, 128},
      {128, 128}, {129, 256},  {200, 256},   {256, 256},  {257, 512},
      {512, 512}, {1000, 1024}, {1024, 1024}, {1025, 2048},
  };
  for (const auto& g : golden) {
    EXPECT_EQ(tune::bucket_dim(g.dim), g.bucket) << "dim " << g.dim;
  }
}

TEST(TuneCacheKey, KeyBucketsEachDimensionIndependently) {
  const tune::CacheKey key = tune::cache_key(device::rtx2070(), {200, 65, 33});
  EXPECT_EQ(key.device, "RTX2070");
  EXPECT_EQ(key.m, 256u);
  EXPECT_EQ(key.n, 128u);
  EXPECT_EQ(key.k, 64u);
  EXPECT_EQ(key.str(), "RTX2070:256x128x64");
  EXPECT_EQ(tune::bucket_shape(key), (GemmShape{256, 128, 64}));

  // Every shape inside the bucket maps to the same key.
  EXPECT_EQ(tune::cache_key(device::rtx2070(), {256, 128, 64}), key);
  EXPECT_EQ(tune::cache_key(device::rtx2070(), {129, 127, 1}), key);
  // The spec is part of the identity.
  EXPECT_FALSE(tune::cache_key(device::t4(), {200, 65, 33}) == key);
}

// ---------------------------------------------------------------------------
// Cache file round-trip and defensive load.
// ---------------------------------------------------------------------------

tune::CacheEntry valid_entry() {
  tune::CacheEntry e;
  e.key = {"RTX2070", 256, 256, 64};
  e.cfg = core::HgemmConfig::optimized();
  e.sim_cycles = 16090;
  e.budget = 4;
  e.seed = 1;
  e.engine = "timed-device";
  return e;
}

TEST(TuneCache, JsonRoundTripIsByteStable) {
  tune::TuneCache cache;
  cache.insert(valid_entry());
  tune::CacheEntry second = valid_entry();
  second.key.m = 64;
  second.cfg = core::HgemmConfig::cublas_like();
  second.sim_cycles = 20000;
  cache.insert(second);

  const std::string text = cache.to_json();
  tune::CacheLoadStats stats;
  const tune::TuneCache back = tune::TuneCache::from_json(text, &stats);
  EXPECT_EQ(stats.loaded, 2u);
  EXPECT_EQ(stats.rejected, 0u);
  EXPECT_EQ(back.size(), 2u);
  EXPECT_EQ(back.to_json(), text);  // canonical: round-trip is identity

  const tune::CacheEntry* hit = back.find(valid_entry().key);
  ASSERT_NE(hit, nullptr);
  EXPECT_EQ(hit->cfg.bm, 256);
  EXPECT_EQ(hit->cfg.layout, core::SmemLayout::kPaddedTile);
  EXPECT_EQ(hit->sim_cycles, 16090u);
  EXPECT_EQ(hit->engine, "timed-device");

  // And through the generic parser: parse(dump(parse(x))) is stable.
  const JsonValue doc = json_parse(text);
  EXPECT_EQ(json_dump(doc), json_dump(json_parse(json_dump(doc))));
}

TEST(TuneCache, InsertReplacesExistingKey) {
  tune::TuneCache cache;
  cache.insert(valid_entry());
  tune::CacheEntry update = valid_entry();
  update.sim_cycles = 12345;
  cache.insert(update);
  EXPECT_EQ(cache.size(), 1u);
  EXPECT_EQ(cache.find(update.key)->sim_cycles, 12345u);
}

TEST(TuneCache, MalformedDocumentIsColdStartNotCrash) {
  for (const char* bad : {"not json at all", "{\"schema\":\"wrong-schema\",\"entries\":[]}",
                          "{\"no_schema\":1}", "[1,2,3]"}) {
    tune::CacheLoadStats stats;
    const tune::TuneCache cache = tune::TuneCache::from_json(bad, &stats);
    EXPECT_EQ(cache.size(), 0u) << bad;
    ASSERT_FALSE(stats.diagnostics.empty()) << bad;
    EXPECT_NE(stats.diagnostics.front().find("unreadable tuning cache"), std::string::npos);
  }
  // Missing file: empty cache, no diagnostics (a cold start is not an error).
  tune::CacheLoadStats stats;
  const tune::TuneCache cache = tune::TuneCache::load("/nonexistent/tc_cache.json", &stats);
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_TRUE(stats.diagnostics.empty());
}

TEST(TuneCache, CorruptAndStaleEntriesAreRejectedWithDiagnostics) {
  tune::TuneCache good;
  good.insert(valid_entry());
  std::string text = good.to_json();
  // Three bad entries alongside the good one: an illegal config (bm 100
  // fails the SearchSpace tiling rules), an unknown device, and a malformed
  // entry missing its config.
  ASSERT_EQ(text.rfind("]}\n"), text.size() - 3);
  text.insert(
      text.size() - 3,
      ",{\"device\":\"RTX2070\",\"m\":512,\"n\":512,\"k\":64,\"config\":{\"bm\":100,"
      "\"bn\":256,\"bk\":32,\"wm\":128,\"wn\":64,\"wk\":8,\"layout\":\"padded_tile\","
      "\"sts_interleave\":5,\"prefetch\":true},\"sim_cycles\":1,\"budget\":1,\"seed\":1,"
      "\"engine\":\"timed-device\"}"
      ",{\"device\":\"gtx1080\",\"m\":64,\"n\":64,\"k\":64,\"config\":{\"bm\":64,"
      "\"bn\":64,\"bk\":32,\"wm\":64,\"wn\":64,\"wk\":8,\"layout\":\"padded_tile\","
      "\"sts_interleave\":5,\"prefetch\":true},\"sim_cycles\":1,\"budget\":1,\"seed\":1,"
      "\"engine\":\"timed-device\"}"
      ",{\"device\":\"RTX2070\",\"m\":64,\"n\":64,\"k\":64}");

  tune::CacheLoadStats stats;
  const tune::TuneCache cache = tune::TuneCache::from_json(text, &stats);
  EXPECT_EQ(stats.loaded, 1u);
  EXPECT_EQ(stats.rejected, 3u);
  ASSERT_EQ(stats.diagnostics.size(), 3u);
  EXPECT_NE(stats.diagnostics[0].find("SearchSpace legality"), std::string::npos)
      << stats.diagnostics[0];
  EXPECT_NE(stats.diagnostics[1].find("unknown device"), std::string::npos)
      << stats.diagnostics[1];
  EXPECT_NE(stats.diagnostics[2].find("malformed cache entry"), std::string::npos)
      << stats.diagnostics[2];
  // The valid entry survived; the poisoned bucket is simply absent.
  EXPECT_EQ(cache.size(), 1u);
  EXPECT_NE(cache.find(valid_entry().key), nullptr);
  EXPECT_EQ(cache.find({"RTX2070", 512, 512, 64}), nullptr);
}

TEST(TuneCache, ServerRetunesRejectedEntryInsteadOfServingIt) {
  // A cache file whose only entry for the traffic's bucket is corrupt: the
  // server must reject it at load, re-tune the bucket, and overwrite the
  // file with a servable winner.
  TempFile file("tc_serve_stale_cache.json");
  {
    std::ofstream os(file.path());
    os << "{\"schema\":\"tc-tune-cache-v1\",\"entries\":["
          "{\"device\":\"RTX2070\",\"m\":64,\"n\":64,\"k\":64,\"config\":{\"bm\":100,"
          "\"bn\":64,\"bk\":32,\"wm\":64,\"wn\":64,\"wk\":8,\"layout\":\"padded_tile\","
          "\"sts_interleave\":5,\"prefetch\":true},\"sim_cycles\":1,\"budget\":1,"
          "\"seed\":1,\"engine\":\"timed-device\"}]}\n";
  }
  serve::ServerOptions opt = small_options(device::rtx2070());
  opt.cache_path = file.path();
  serve::Server server(opt);
  EXPECT_EQ(server.load_stats().rejected, 1u);
  ASSERT_EQ(server.load_stats().diagnostics.size(), 1u);
  EXPECT_NE(server.load_stats().diagnostics[0].find("SearchSpace legality"),
            std::string::npos);
  EXPECT_EQ(server.cache().size(), 0u);

  const serve::Metrics m = server.run(burst(2, 0, {64, 64, 64}));
  EXPECT_EQ(m.counters.completed, 2u);
  EXPECT_EQ(m.counters.cache_misses, 1u);  // re-tuned, not served stale
  EXPECT_GT(m.counters.tune_evals, 0u);
  EXPECT_EQ(m.counters.hazard_diags, 0u);

  // The rewritten file now loads clean and serves warm.
  tune::CacheLoadStats stats;
  const tune::TuneCache reloaded = tune::TuneCache::load(file.path(), &stats);
  EXPECT_EQ(stats.rejected, 0u);
  ASSERT_EQ(reloaded.size(), 1u);
  EXPECT_TRUE(tune::validate_cache_entry(reloaded.entries()[0]).empty());
}

// ---------------------------------------------------------------------------
// Serving loop.
// ---------------------------------------------------------------------------

TEST(Serve, WarmServerNeverSpendsTuneBudget) {
  serve::TrafficOptions topt;
  topt.requests = 40;
  topt.seed = 11;
  const auto traffic = serve::llm_traffic(topt);

  serve::Server server(small_options(device::rtx2070()));
  const serve::Metrics cold = server.run(traffic);
  EXPECT_GT(cold.counters.cache_misses, 0u);
  EXPECT_GT(cold.counters.tune_evals, 0u);
  EXPECT_EQ(cold.counters.completed, cold.counters.accepted);

  const serve::Metrics warm = server.run(traffic);
  EXPECT_EQ(warm.counters.tune_evals, 0u);  // the acceptance counter
  EXPECT_EQ(warm.counters.cache_misses, 0u);
  EXPECT_EQ(warm.cache_hit_rate, 1.0);
  // Tuning is control-plane work outside the virtual clock, so cold and
  // warm runs of the same stream have identical latency metrics.
  EXPECT_EQ(warm.makespan_cycles, cold.makespan_cycles);
  EXPECT_EQ(warm.p50_cycles, cold.p50_cycles);
  EXPECT_EQ(warm.p99_cycles, cold.p99_cycles);
}

TEST(Serve, CacheFilePersistsAcrossServerRestarts) {
  TempFile file("tc_serve_persist_cache.json");
  serve::TrafficOptions topt;
  topt.requests = 30;
  topt.seed = 3;
  const auto traffic = serve::llm_traffic(topt);

  serve::ServerOptions opt = small_options(device::rtx2070());
  opt.cache_path = file.path();
  serve::Metrics cold;
  {
    serve::Server first(opt);
    cold = first.run(traffic);
    EXPECT_GT(cold.counters.tune_evals, 0u);
  }
  // A fresh process loading the same file: warm from request one.
  serve::Server second(opt);
  EXPECT_EQ(second.load_stats().rejected, 0u);
  EXPECT_GT(second.cache().size(), 0u);
  const serve::Metrics warm = second.run(traffic);
  EXPECT_EQ(warm.counters.tune_evals, 0u);
  EXPECT_EQ(warm.cache_hit_rate, 1.0);
  // Bit-for-bit reuse: identical service metrics (only the hit/miss
  // counters may differ between the cold and warm documents).
  EXPECT_EQ(warm.makespan_cycles, cold.makespan_cycles);
  EXPECT_EQ(warm.p50_cycles, cold.p50_cycles);
  EXPECT_EQ(warm.p99_cycles, cold.p99_cycles);
  EXPECT_EQ(warm.qps, cold.qps);
  EXPECT_EQ(warm.counters.worker_busy_cycles, cold.counters.worker_busy_cycles);
  // And a third restart is byte-identical to the second (both fully warm).
  serve::Server third(opt);
  EXPECT_EQ(metrics_json(third.run(traffic)), metrics_json(warm));
}

TEST(Serve, MetricsAreBitwiseDeterministicAcrossHostThreads) {
  // The serving analogue of test_tune's 1-vs-7-thread pin: host threads
  // accelerate cold-bucket tuning only; the metrics document is byte-equal.
  serve::TrafficOptions topt;
  topt.requests = 30;
  topt.tenants = 3;
  topt.seed = 9;
  const auto traffic = serve::llm_traffic(topt);

  std::string first;
  for (const int threads : {1, 7}) {
    serve::ServerOptions opt = small_options(device::rtx2070());
    opt.threads = threads;
    opt.workers = 3;
    serve::Server server(opt);
    const std::string doc = metrics_json(server.run(traffic));
    if (threads == 1) {
      first = doc;
    } else {
      EXPECT_EQ(doc, first);
    }
  }
  // And across repeated identical runs.
  serve::ServerOptions opt = small_options(device::rtx2070());
  opt.workers = 3;
  serve::Server again(opt);
  EXPECT_EQ(metrics_json(again.run(traffic)), first);
}

/// FNV-1a over the metrics document plus every Completion field (which the
/// document leaves out), so a pin sees a moved cycle in either.
std::uint64_t metrics_hash(const serve::Metrics& m) {
  std::string text = metrics_json(m);
  for (const serve::Completion& c : m.completions) {
    text += "\n" + std::to_string(c.id) + " " + std::to_string(c.tenant) + " " +
            std::to_string(c.arrival_cycle) + " " + std::to_string(c.start_cycle) + " " +
            std::to_string(c.completion_cycle) + " " + std::to_string(c.batch);
  }
  return testsupport::fnv1a(text);
}

TEST(Serve, MetricsArePinned) {
  // Recorded values, not a same-build comparison: a change that moves every
  // run alike (a pass cost, the scheduler, the timed engine, the memo)
  // passes the determinism test above but not this one.
  const auto expect_pin = [](const serve::Metrics& m, std::uint64_t want, const char* what) {
    EXPECT_EQ(metrics_hash(m), want)
        << what << ": got 0x" << std::hex << metrics_hash(m) << "\n" << metrics_json(m);
  };

  // Cold then warm on both specs, batch_max 4 so fused passes occur.
  serve::TrafficOptions topt;
  topt.requests = 40;
  topt.tenants = 2;
  topt.seed = 5;
  topt.mean_gap_cycles = 1500.0;  // arrivals outpace the workers: queues form
  const auto traffic = serve::llm_traffic(topt);
  const struct {
    device::DeviceSpec spec;
    std::uint64_t cold, warm;
  } specs[] = {{device::rtx2070(), 0x9e998d46acbfe2d6ull, 0x61a70ce0b9260304ull},
               {device::t4(), 0xedcb71deb08a8a07ull, 0x3efdf7bc091f9eabull}};
  for (const auto& s : specs) {
    serve::ServerOptions opt = small_options(s.spec);
    opt.batch_max = 4;
    serve::Server server(opt);
    const serve::Metrics cold = server.run(traffic);
    const serve::Metrics warm = server.run(traffic);
    EXPECT_LT(cold.counters.batches, cold.counters.batched_requests);  // some passes fused
    expect_pin(cold, s.cold, "cold");
    expect_pin(warm, s.warm, "warm");
  }

  // Op batch 2 and 4 in one stream: runs of equal batch fuse, the batch
  // axis rides as z planes.
  std::vector<serve::Request> batched;
  for (int i = 0; i < 12; ++i) {
    batched.push_back({static_cast<std::uint64_t>(i), i % 2, i < 6 ? GemmShape{64, 64, 64}
                                                                    : GemmShape{128, 64, 128},
                       static_cast<std::uint64_t>(i / 3) * 2000, (i / 3) % 2 == 0 ? 2 : 4});
  }
  serve::Server batch_server(small_options(device::rtx2070()));
  expect_pin(batch_server.run(batched), 0xf97b16eed94ac83dull, "op batch");

  // A warm cache whose winner is split-K: every pass costs the two-launch
  // plan (main kernel plus reduction).
  const GemmShape skinny{64, 64, 256};
  tune::CacheEntry e;
  e.key = tune::cache_key(device::rtx2070(), skinny);
  e.cfg.bm = 64;
  e.cfg.bn = 64;
  e.cfg.bk = 32;
  e.cfg.wm = 32;
  e.cfg.wn = 32;
  e.cfg.split_k = 2;
  e.sim_cycles = 1;
  e.budget = 2;
  e.seed = 1;
  e.engine = "timed-device";
  tune::TuneCache warm_cache;
  warm_cache.insert(e);
  serve::ServerOptions sk_opt = small_options(device::rtx2070());
  sk_opt.workers = 1;
  serve::Server split_server(sk_opt, warm_cache);
  const serve::Metrics sk = split_server.run(burst(6, 0, skinny));
  EXPECT_EQ(sk.counters.tune_evals, 0u);
  EXPECT_EQ(sk.counters.cache_hits, sk.counters.cache_lookups);
  expect_pin(sk, 0xa98a63c1b51f9023ull, "split-K winner");
}

TEST(Serve, WeightedFairSchedulingFavorsHeavyTenant) {
  // Two tenants, equal demand, weights 3:1, one worker, full backlog at
  // cycle 0. SFQ must interleave service 3:1, so the heavy tenant's
  // latencies are strictly better while both eventually complete.
  auto traffic = burst(12, 0, {64, 64, 64});
  const auto b = burst(12, 1, {64, 64, 64}, 100);
  traffic.insert(traffic.end(), b.begin(), b.end());

  serve::ServerOptions opt = small_options(device::rtx2070());
  opt.workers = 1;
  opt.batch_max = 1;
  opt.queue_capacity = 64;
  opt.tenant_weights = {3, 1};
  serve::Server server(opt);
  const serve::Metrics m = server.run(traffic);

  ASSERT_EQ(m.tenants.size(), 2u);
  EXPECT_EQ(m.tenants[0].completed, 12u);
  EXPECT_EQ(m.tenants[1].completed, 12u);
  EXPECT_LT(m.tenants[0].p50_cycles, m.tenants[1].p50_cycles);
  EXPECT_LT(m.tenants[0].p99_cycles, m.tenants[1].p99_cycles);

  // Early service is split ~3:1: of the first 8 completions, 6 belong to
  // the weight-3 tenant (the first pass seeds both vtags at 0, then SFQ
  // spaces tenant 1 at every 4th slot).
  int heavy_early = 0;
  for (std::size_t i = 0; i < 8; ++i) heavy_early += m.completions[i].tenant == 0 ? 1 : 0;
  EXPECT_EQ(heavy_early, 6);
}

TEST(Serve, EqualWeightsShareEvenly) {
  auto traffic = burst(10, 0, {64, 64, 64});
  const auto b = burst(10, 1, {64, 64, 64}, 100);
  traffic.insert(traffic.end(), b.begin(), b.end());

  serve::ServerOptions opt = small_options(device::rtx2070());
  opt.workers = 1;
  opt.batch_max = 1;
  opt.queue_capacity = 64;
  serve::Server server(opt);
  const serve::Metrics m = server.run(traffic);
  ASSERT_EQ(m.tenants.size(), 2u);
  EXPECT_EQ(m.tenants[0].share, 0.5);
  EXPECT_EQ(m.tenants[1].share, 0.5);
  // Identical costs and weights: p50s within one pass of each other.
  EXPECT_NEAR(m.tenants[0].p50_cycles, m.tenants[1].p50_cycles,
              static_cast<double>(m.makespan_cycles) / 10.0);
}

TEST(Serve, AdmissionControlShedsBeyondQueueCapacity) {
  serve::ServerOptions opt = small_options(device::rtx2070());
  opt.workers = 1;
  opt.batch_max = 1;
  opt.queue_capacity = 3;
  serve::Server server(opt);
  const serve::Metrics m = server.run(burst(10, 0, {64, 64, 64}));

  EXPECT_EQ(m.counters.requests, 10u);
  EXPECT_EQ(m.counters.accepted, 3u);  // capacity bounds simultaneous arrivals
  EXPECT_EQ(m.counters.shed, 7u);
  EXPECT_EQ(m.counters.completed, 3u);
  ASSERT_EQ(m.tenants.size(), 1u);
  EXPECT_EQ(m.tenants[0].shed, 7u);

  // Under a spread-out stream the same capacity sheds nothing.
  std::vector<serve::Request> spread;
  for (int i = 0; i < 10; ++i) {
    spread.push_back({static_cast<std::uint64_t>(i), 0, {64, 64, 64},
                      static_cast<std::uint64_t>(i) * 1000000});
  }
  serve::Server relaxed(small_options(device::rtx2070()));
  const serve::Metrics m2 = relaxed.run(spread);
  EXPECT_EQ(m2.counters.shed, 0u);
  EXPECT_EQ(m2.counters.completed, 10u);
}

TEST(Serve, BatchingFusesCompatibleRequestsAndShrinksMakespan) {
  const auto traffic = burst(8, 0, {64, 64, 64});

  serve::ServerOptions opt = small_options(device::rtx2070());
  opt.workers = 1;
  opt.queue_capacity = 64;
  opt.batch_max = 4;
  serve::Server batched(opt);
  const serve::Metrics mb = batched.run(traffic);
  EXPECT_EQ(mb.counters.completed, 8u);
  EXPECT_EQ(mb.counters.batches, 2u);  // 8 requests / batch_max 4
  EXPECT_EQ(mb.counters.batched_requests, 8u);
  for (const auto& c : mb.completions) EXPECT_EQ(c.batch, 4);

  opt.batch_max = 1;
  serve::Server serial(opt);
  const serve::Metrics ms = serial.run(traffic);
  EXPECT_EQ(ms.counters.batches, 8u);
  // A 64x64 GEMM is one CTA — a whole simulated device per request. Fusing
  // four onto one pass fills idle SMs, so the batched makespan is smaller.
  EXPECT_LT(mb.makespan_cycles, ms.makespan_cycles);

  // Mixed buckets never fuse: alternating shapes break the run of equal keys.
  std::vector<serve::Request> mixed;
  for (int i = 0; i < 6; ++i) {
    mixed.push_back({static_cast<std::uint64_t>(i), 0,
                     i % 2 == 0 ? GemmShape{64, 64, 64} : GemmShape{128, 64, 64}, 0});
  }
  opt.batch_max = 4;
  serve::Server alternating(opt);
  const serve::Metrics ma = alternating.run(mixed);
  EXPECT_EQ(ma.counters.batches, 6u);
}

// ---------------------------------------------------------------------------
// Traffic generator.
// ---------------------------------------------------------------------------

TEST(ServeTraffic, DeterministicSkewedAndWellFormed) {
  serve::TrafficOptions opt;
  opt.requests = 200;
  opt.tenants = 3;
  opt.seed = 17;
  const auto a = serve::llm_traffic(opt);
  const auto b = serve::llm_traffic(opt);
  ASSERT_EQ(a.size(), 200u);
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].id, b[i].id);
    EXPECT_EQ(a[i].tenant, b[i].tenant);
    EXPECT_EQ(a[i].shape, b[i].shape);
    EXPECT_EQ(a[i].arrival_cycle, b[i].arrival_cycle);
  }

  std::uint64_t prev = 0;
  std::vector<int> per_tenant(3, 0);
  for (const auto& r : a) {
    EXPECT_GE(r.arrival_cycle, prev);  // arrivals are non-decreasing
    prev = r.arrival_cycle;
    ASSERT_GE(r.tenant, 0);
    ASSERT_LT(r.tenant, 3);
    ++per_tenant[static_cast<std::size_t>(r.tenant)];
    EXPECT_GT(r.shape.m, 0u);
  }
  // Demand skew: tenant 0 draws with weight 3, tenant 2 with weight 1.
  EXPECT_GT(per_tenant[0], per_tenant[2]);

  opt.seed = 18;
  const auto c = serve::llm_traffic(opt);
  bool differs = false;
  for (std::size_t i = 0; i < c.size(); ++i) {
    differs = differs || !(c[i].shape == a[i].shape) || c[i].arrival_cycle != a[i].arrival_cycle;
  }
  EXPECT_TRUE(differs);
}

TEST(ServeTraffic, JitteredShapesStayInTheirBucket) {
  serve::TrafficOptions opt;
  opt.requests = 300;
  opt.seed = 1;
  std::set<std::string> buckets;
  for (const auto& r : serve::llm_traffic(opt)) {
    buckets.insert(tune::cache_key(device::rtx2070(), r.shape).str());
  }
  // The palette maps onto exactly its six bucket keys, jitter or not.
  EXPECT_LE(buckets.size(), 6u);
  EXPECT_GE(buckets.size(), 4u);
}

// ---------------------------------------------------------------------------
// Seeded-traffic smoke acceptance (both device specs): cache hit rate >= 90%
// after warmup, zero hazard diagnostics, zero warm tune evals.
// ---------------------------------------------------------------------------

void run_smoke(const device::DeviceSpec& spec) {
  serve::TrafficOptions topt;
  topt.requests = 60;
  topt.tenants = 2;
  topt.seed = 21;
  const auto traffic = serve::llm_traffic(topt);

  serve::ServerOptions opt = small_options(spec);
  opt.workers = 2;
  serve::Server server(opt);

  const serve::Metrics cold = server.run(traffic);
  EXPECT_EQ(cold.counters.hazard_diags, 0u);
  EXPECT_EQ(cold.counters.completed, cold.counters.accepted);
  EXPECT_GE(cold.cache_hit_rate, 0.9);  // a handful of buckets, many requests

  const serve::Metrics warm = server.run(traffic);
  EXPECT_EQ(warm.counters.hazard_diags, 0u);
  EXPECT_EQ(warm.counters.tune_evals, 0u);
  EXPECT_EQ(warm.cache_hit_rate, 1.0);
  EXPECT_GT(warm.qps, 0.0);
  EXPECT_GT(warm.p99_cycles, 0.0);
  EXPECT_GE(warm.p99_cycles, warm.p50_cycles);
}

TEST(ServeSmoke, Rtx2070SeededTraffic) { run_smoke(device::rtx2070()); }

TEST(ServeSmoke, T4SeededTraffic) { run_smoke(device::t4()); }

}  // namespace
}  // namespace tc
