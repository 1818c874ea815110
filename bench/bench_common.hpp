// Shared helpers for the bench binaries. Each binary regenerates one table
// or figure of the paper; this header provides the size sweeps, the
// ours-vs-baseline runner and the summary statistics the paper quotes
// (average and maximum speedup, position of the maximum).
#pragma once

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <iostream>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "common/flags.hpp"
#include "common/json.hpp"
#include "common/matrix.hpp"
#include "common/table.hpp"
#include "common/write_file.hpp"
#include "core/hgemm.hpp"
#include "device/spec.hpp"

namespace tc::bench {

/// Machine-readable output shared by every bench binary (and mirrored by
/// tcgemm_cli --json): one document per run, one series per printed
/// table/figure line set.
///
///   { "schema": "tc-bench-v1", "bench": "<binary>", "device": "<name>",
///     "series": [ { "name": ..., "columns": [...],
///                   "rows": [[num, ...], ...], "summary": {k: num} } ] }
class BenchJson {
 public:
  BenchJson(std::string bench, std::string device = "")
      : bench_(std::move(bench)), device_(std::move(device)) {}

  /// Starts a new series; subsequent row()/summary() calls append to it.
  void begin_series(std::string name, std::vector<std::string> columns) {
    series_.push_back({std::move(name), std::move(columns), {}, {}});
  }
  void row(std::vector<double> values) {
    TC_CHECK(!series_.empty(), "BenchJson::row before begin_series");
    TC_CHECK(values.size() == series_.back().columns.size(), "BenchJson row arity mismatch");
    series_.back().rows.push_back(std::move(values));
  }
  void summary(std::string key, double value) {
    TC_CHECK(!series_.empty(), "BenchJson::summary before begin_series");
    series_.back().summary.emplace_back(std::move(key), value);
  }

  void write(std::ostream& os) const {
    JsonWriter j(os);
    j.begin_object();
    j.field("schema", "tc-bench-v1");
    j.field("bench", bench_);
    j.field("device", device_);
    j.key("series");
    j.begin_array();
    for (const auto& s : series_) {
      j.begin_object();
      j.field("name", s.name);
      j.key("columns");
      j.begin_array();
      for (const auto& c : s.columns) j.value(c);
      j.end_array();
      j.key("rows");
      j.begin_array();
      for (const auto& r : s.rows) {
        j.begin_array();
        for (const double v : r) j.value(v);
        j.end_array();
      }
      j.end_array();
      j.key("summary");
      j.begin_object();
      for (const auto& [k, v] : s.summary) j.field(k, v);
      j.end_object();
      j.end_object();
    }
    j.end_array();
    j.end_object();
    os << "\n";
  }

  /// Writes the document to `path`, whole or not at all. A path that cannot
  /// be written prints an error naming it and exits 1, as a bad flag does
  /// (parse_flags).
  void write_file(const std::string& path) const {
    std::ostringstream os;
    write(os);
    try {
      tc::write_file(path, os.str());
    } catch (const Error& e) {
      std::cerr << "error: " << e.what() << "\n";
      std::exit(1);
    }
  }

 private:
  struct Series {
    std::string name;
    std::vector<std::string> columns;
    std::vector<std::vector<double>> rows;
    std::vector<std::pair<std::string, double>> summary;
  };
  std::string bench_;
  std::string device_;
  std::vector<Series> series_;
};

/// --step N: the W increment of a size sweep, `def` unless given (the full
/// 256-step sweep of the paper is --step 256).
inline Flag step_flag(std::uint64_t def) {
  return Flag::integer("--step", 1, std::uint64_t{1} << 20, std::to_string(def));
}

/// --device: the spec a bench runs on, rtx2070 unless given.
inline Flag device_flag() { return Flag::choice("--device", device::kSpecNames); }

/// The bench's command line parsed against `table` plus --json PATH, where
/// every bench writes its tc-bench-v1 document. Bad input prints an error
/// naming the bench (argv[0]) or the flag, and the value, and exits 1.
inline Flags parse_flags(int argc, char** argv, std::vector<Flag> table) {
  table.push_back(Flag::path("--json"));
  try {
    return Flags(std::filesystem::path(argv[0]).filename().string(), table, argc, argv);
  } catch (const Error& e) {
    std::cerr << "error: " << e.what() << "\n";
    std::exit(1);
  }
}

/// The paper's evaluation sweep: W = 1024 .. 16384 step 256 (Section VII).
/// `step` can be raised from the command line to make quick passes cheap.
inline std::vector<std::size_t> size_sweep(std::size_t step = 256) {
  std::vector<std::size_t> sizes;
  for (std::size_t w = 1024; w <= 16384; w += step) sizes.push_back(w);
  return sizes;
}

struct SweepStats {
  double avg_speedup = 0.0;
  double max_speedup = 0.0;
  std::size_t max_at = 0;
  double best_tflops = 0.0;
  std::size_t best_at = 0;
};

/// Runs one series of shapes through two estimators and prints
/// W, ours TFLOPS, baseline TFLOPS, speedup rows. When `json` is given the
/// same rows are appended to it as a series named `title`.
inline SweepStats run_versus_sweep(const std::string& title, core::PerfEstimator& ours,
                                   core::PerfEstimator& baseline,
                                   const std::vector<GemmShape>& shapes,
                                   const std::vector<std::size_t>& labels,
                                   BenchJson* json = nullptr) {
  TablePrinter table({"W", "ours_TFLOPS", "cublas_like_TFLOPS", "speedup"});
  if (json != nullptr) {
    json->begin_series(title, {"W", "ours_tflops", "cublas_like_tflops", "speedup"});
  }
  SweepStats st;
  double sum = 0.0;
  for (std::size_t i = 0; i < shapes.size(); ++i) {
    const auto po = ours.estimate(shapes[i]);
    const auto pb = baseline.estimate(shapes[i]);
    const double speedup = po.tflops / pb.tflops;
    sum += speedup;
    if (speedup > st.max_speedup) {
      st.max_speedup = speedup;
      st.max_at = labels[i];
    }
    if (po.tflops > st.best_tflops) {
      st.best_tflops = po.tflops;
      st.best_at = labels[i];
    }
    table.add_row({std::to_string(labels[i]), fmt_fixed(po.tflops, 2), fmt_fixed(pb.tflops, 2),
                   fmt_fixed(speedup, 2)});
    if (json != nullptr) {
      json->row({static_cast<double>(labels[i]), po.tflops, pb.tflops, speedup});
    }
  }
  st.avg_speedup = sum / static_cast<double>(shapes.size());
  if (json != nullptr) {
    json->summary("avg_speedup", st.avg_speedup);
    json->summary("max_speedup", st.max_speedup);
    json->summary("max_at", static_cast<double>(st.max_at));
    json->summary("best_tflops", st.best_tflops);
  }

  std::cout << "== " << title << " ==\n";
  table.print(std::cout);
  std::cout << "max speedup " << fmt_fixed(st.max_speedup, 2) << "x at W=" << st.max_at
            << "; average speedup " << fmt_fixed(st.avg_speedup, 2) << "x; our best "
            << fmt_fixed(st.best_tflops, 2) << " TFLOPS at W=" << st.best_at << "\n\n";
  return st;
}

}  // namespace tc::bench
