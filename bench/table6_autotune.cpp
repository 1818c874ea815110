// Re-derives the paper's Table VI blocking winner with the autotuner
// (tc::tune) instead of hard-coding it: the candidate blocking space of
// Table VI is searched at the paper's square-GEMM scale on both devices,
// every candidate is ranked by the analytic pipe model and then evaluated
// with the measured-surrogate wave pipeline (PerfEstimator) — the same
// engine Figs. 6-7 use. The printed table shows model-vs-evaluated cycles
// per candidate; the run fails if the winning thread-block tile is not the
// paper's 256x256x32.
#include <iostream>

#include "bench_common.hpp"
#include "common/table.hpp"
#include "tune/tune.hpp"

using namespace tc;

namespace {

/// The Table VI candidate space: thread-block/warp blocking only; layout,
/// interleave and prefetch are held at the paper's optimized settings.
tune::SearchSpace table_vi_space() {
  tune::SearchSpace s;
  s.bm = {128, 256};
  s.bn = {128, 256};
  s.bk = {32, 64};
  s.wm = {64, 128};
  s.wn = {64};
  s.layouts = {core::SmemLayout::kPaddedTile};
  s.sts_interleave = {5};
  s.prefetch = {true};
  return s;
}

int run_device(const std::string& name, bench::BenchJson* json) {
  const device::DeviceSpec spec = device::spec_by_name(name);
  tune::TuneOptions opt;
  opt.engine = tune::Engine::kWaveModel;
  opt.shape = {4096, 4096, 4096};
  opt.space = table_vi_space();
  opt.budget = 64;  // evaluate the whole (small) space
  opt.explore = 0;
  const tune::TuneResult r = tune::tune(spec, opt);

  std::cout << "\n" << spec.name << " @ 4096 x 4096 x 4096 (" << r.prune.legal
            << " legal candidates, engine=" << tune::engine_name(opt.engine) << ")\n";
  TablePrinter t({"config", "model rank", "model cycles", "evaluated cycles", "TFLOPS"});
  if (json != nullptr) {
    json->begin_series(name, {"bm", "bn", "bk", "wm", "wn", "model_rank", "model_cycles",
                              "sim_cycles", "tflops"});
  }
  for (const auto& c : r.ranked) {
    t.add_row({c.name, std::to_string(c.model_rank), fmt_fixed(c.model.cycles, 0),
               std::to_string(c.sim_cycles), fmt_fixed(c.tflops, 2)});
    if (json != nullptr) {
      json->row({static_cast<double>(c.cfg.bm), static_cast<double>(c.cfg.bn),
                 static_cast<double>(c.cfg.bk), static_cast<double>(c.cfg.wm),
                 static_cast<double>(c.cfg.wn), static_cast<double>(c.model_rank),
                 c.model.cycles, static_cast<double>(c.sim_cycles), c.tflops});
    }
  }
  t.print(std::cout);

  const tune::Candidate& best = r.best();
  const bool block_matches = best.cfg.bm == 256 && best.cfg.bn == 256 && best.cfg.bk == 32;
  std::cout << "winner: " << best.name << " -> "
            << (block_matches ? "matches the paper's Table VI blocking (256x256x32)"
                              : "DOES NOT match the paper's 256x256x32 blocking")
            << "\n";
  if (json != nullptr) {
    json->summary("winner_bm", best.cfg.bm);
    json->summary("winner_bn", best.cfg.bn);
    json->summary("winner_bk", best.cfg.bk);
    json->summary("winner_wm", best.cfg.wm);
    json->summary("winner_wn", best.cfg.wn);
    json->summary("winner_tflops", best.tflops);
    json->summary("block_matches_paper", block_matches ? 1.0 : 0.0);
  }
  return block_matches ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  const std::string json_path = bench::parse_flags(argc, argv, {}).text("--json");
  std::optional<bench::BenchJson> json;
  if (!json_path.empty()) json.emplace("table6_autotune", "rtx2070+t4");

  std::cout << "Table VI re-derived by the autotuner (tc::tune)\n";
  int rc = 0;
  rc |= run_device("rtx2070", json ? &*json : nullptr);
  rc |= run_device("t4", json ? &*json : nullptr);

  if (json) {
    json->write_file(json_path);
    std::cout << "json written to " << json_path << "\n";
  }
  return rc;
}
