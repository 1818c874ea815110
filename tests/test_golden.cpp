// Golden-file regression tests for the bench binaries' --json output.
//
// Each test runs a built bench binary with --json, parses the document, and
// compares it structurally against a checked-in fixture in tests/golden/.
// Strings and shapes (series names, columns, row counts) must match exactly;
// numbers within a relative tolerance that absorbs cross-platform libm
// drift while still catching any model or simulator behavior change.
//
// To regenerate fixtures after an *intentional* behavior change:
//
//   build/bench/table1_hmma        --json tests/golden/table1_hmma.json
//   build/bench/table6_blocking    --json tests/golden/table6_blocking.json
//   build/bench/fig4_sts_interleave --step 4096 \
//                                  --json tests/golden/fig4_sts_interleave.json
//   build/bench/fig8_swizzle --device rtx2070 --step 4096 \
//                                  --json tests/golden/fig8_swizzle_rtx2070.json
//   build/bench/fig8_swizzle --device t4 --step 4096 \
//                                  --json tests/golden/fig8_swizzle_t4.json
//   build/bench/batched_splitk --device rtx2070 \
//                                  --json tests/golden/batched_splitk_rtx2070.json
//   build/bench/batched_splitk --device t4 \
//                                  --json tests/golden/batched_splitk_t4.json
//   build/bench/jit_throughput --device rtx2070 \
//                                  --json-static tests/golden/jit_throughput_rtx2070.json
//   build/bench/jit_throughput --device t4 \
//                                  --json-static tests/golden/jit_throughput_t4.json
//
// and explain the delta in the commit message.
#include <gtest/gtest.h>
#include <sys/wait.h>

#include <cmath>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>

#include "common/json_parse.hpp"

namespace tc {
namespace {

// Deterministic simulation: the only allowed drift is libm/format noise.
constexpr double kRelTol = 1e-6;

std::string read_file(const std::filesystem::path& path) {
  std::ifstream is(path);
  EXPECT_TRUE(is.good()) << "cannot open " << path;
  std::ostringstream ss;
  ss << is.rdbuf();
  return ss.str();
}

/// Runs `<TC_BENCH_DIR>/<bench> <args> --json <tmp>` and parses the output.
JsonValue run_bench_json(const std::string& bench, const std::string& args = "") {
  const auto out = std::filesystem::temp_directory_path() / ("tc_golden_" + bench + ".json");
  std::filesystem::remove(out);
  const std::string cmd = std::string(TC_BENCH_DIR) + "/" + bench + " " + args + " --json " +
                          out.string() + " > /dev/null";
  const int rc = std::system(cmd.c_str());
  EXPECT_EQ(rc, 0) << cmd;
  const auto doc = json_parse(read_file(out));
  std::filesystem::remove(out);
  return doc;
}

/// Exit code of `<TC_BENCH_DIR>/<bench> <args>`, with stdout discarded and
/// stderr kept in `err`.
int run_bench_status(const std::string& bench, const std::string& args, std::string& err) {
  const auto err_path = std::filesystem::temp_directory_path() / ("tc_golden_" + bench + ".err");
  const std::string cmd = std::string(TC_BENCH_DIR) + "/" + bench + " " + args +
                          " > /dev/null 2> " + err_path.string();
  const int rc = std::system(cmd.c_str());
  err = read_file(err_path);
  std::filesystem::remove(err_path);
  return WIFEXITED(rc) ? WEXITSTATUS(rc) : -1;
}

JsonValue load_golden(const std::string& bench) {
  const auto path = std::filesystem::path(TC_GOLDEN_DIR) / (bench + ".json");
  return json_parse(read_file(path));
}

/// Recursive structural comparison: `path` names the location for failure
/// messages (e.g. "series[1].rows[3][2]").
void expect_json_near(const JsonValue& got, const JsonValue& want, const std::string& path) {
  if (want.is_number()) {
    ASSERT_TRUE(got.is_number()) << path << ": expected a number";
    const double g = got.as_number();
    const double w = want.as_number();
    const double tol = kRelTol * std::max(1.0, std::abs(w));
    EXPECT_NEAR(g, w, tol) << path;
    return;
  }
  if (want.is_string()) {
    ASSERT_TRUE(got.is_string()) << path << ": expected a string";
    EXPECT_EQ(got.as_string(), want.as_string()) << path;
    return;
  }
  if (want.is_array()) {
    ASSERT_TRUE(got.is_array()) << path << ": expected an array";
    const auto& ga = got.as_array();
    const auto& wa = want.as_array();
    ASSERT_EQ(ga.size(), wa.size()) << path << ": array length";
    for (std::size_t i = 0; i < wa.size(); ++i) {
      expect_json_near(ga[i], wa[i], path + "[" + std::to_string(i) + "]");
    }
    return;
  }
  if (want.is_object()) {
    ASSERT_TRUE(got.is_object()) << path << ": expected an object";
    const auto& go = got.as_object();
    const auto& wo = want.as_object();
    for (const auto& [k, v] : wo) {
      ASSERT_TRUE(got.has(k)) << path << ": missing key '" << k << "'";
      expect_json_near(got.at(k), v, path + "." + k);
    }
    for (const auto& [k, v] : go) {
      EXPECT_TRUE(want.has(k)) << path << ": unexpected key '" << k << "'";
    }
    return;
  }
  EXPECT_EQ(got.is_null(), want.is_null()) << path;
}

void golden_roundtrip(const std::string& bench, const std::string& args = "") {
  const auto got = run_bench_json(bench, args);
  const auto want = load_golden(bench);
  EXPECT_EQ(got.at("schema").as_string(), "tc-bench-v1");
  expect_json_near(got, want, bench);
}

/// Like golden_roundtrip, but the fixture name differs from the binary name
/// (one binary, several goldens — e.g. fig8_swizzle per device spec).
JsonValue golden_roundtrip_named(const std::string& golden, const std::string& bench,
                                 const std::string& args) {
  const auto got = run_bench_json(bench, args);
  const auto want = load_golden(golden);
  EXPECT_EQ(got.at("schema").as_string(), "tc-bench-v1");
  expect_json_near(got, want, golden);
  return got;
}

TEST(Golden, Table1Hmma) { golden_roundtrip("table1_hmma"); }

TEST(Golden, Table6Blocking) { golden_roundtrip("table6_blocking"); }

TEST(Golden, Fig4StsInterleave) { golden_roundtrip("fig4_sts_interleave", "--step 4096"); }

TEST(Golden, Fig8SwizzleRtx2070) {
  const auto doc = golden_roundtrip_named("fig8_swizzle_rtx2070", "fig8_swizzle",
                                          "--device rtx2070 --step 4096");
  // The PR's acceptance line: the tuned supertile dispatch is strictly
  // faster than the row-major baseline at the W=12032 cliff.
  const auto& summary = doc.at("series").as_array()[0].at("summary");
  EXPECT_GT(summary.at("speedup_at_12032").as_number(), 1.0);
}

TEST(Golden, Fig8SwizzleT4) {
  golden_roundtrip_named("fig8_swizzle_t4", "fig8_swizzle", "--device t4 --step 4096");
}

// The GemmOp PR's acceptance lines, per device spec: a split-K plan beats
// the single-kernel launch on the skinny-grid deep-K shape even after
// paying for the reduction pass and the extra launch, and one z-batched
// launch beats a loop of single-plane launches.
void expect_op_payoff(const JsonValue& doc) {
  const auto& series = doc.at("series").as_array();
  const auto& splitk = series[0].at("summary");
  EXPECT_GT(splitk.at("best_split_k").as_number(), 1.0);
  EXPECT_GT(splitk.at("best_speedup").as_number(), 1.0);
  const auto& batched = series[1].at("summary");
  EXPECT_GT(batched.at("speedup_at_batch_32").as_number(), 1.0);
}

TEST(Golden, BatchedSplitkRtx2070) {
  expect_op_payoff(
      golden_roundtrip_named("batched_splitk_rtx2070", "batched_splitk", "--device rtx2070"));
}

TEST(Golden, BatchedSplitkT4) {
  expect_op_payoff(golden_roundtrip_named("batched_splitk_t4", "batched_splitk", "--device t4"));
}

// The JIT throughput bench: the deterministic series (instruction counts,
// block/pass statistics, bitwise-match flags) is golden-pinned per device
// spec; the timing series is wall clock and can only be gated by the PR's
// acceptance inequality — the dispatch-bound workload must be at least 10x
// faster compiled than interpreted.
void expect_jit_throughput(const std::string& golden, const std::string& device) {
  const auto got = run_bench_json("jit_throughput", "--device " + device);
  const auto want = load_golden(golden);
  EXPECT_EQ(got.at("schema").as_string(), "tc-bench-v1");
  EXPECT_EQ(got.at("device").as_string(), want.at("device").as_string());

  const auto& got_series = got.at("series").as_array();
  const auto& want_series = want.at("series").as_array();
  ASSERT_GE(got_series.size(), 2u);
  ASSERT_EQ(want_series.size(), 1u);  // the fixture holds only "static"
  ASSERT_EQ(got_series[0].at("name").as_string(), "static");
  expect_json_near(got_series[0], want_series[0], golden + ".static");

  // Every workload row must report bitwise_match == 1.
  const auto& cols = got_series[0].at("columns").as_array();
  ASSERT_EQ(cols.back().as_string(), "bitwise_match");
  for (const auto& row : got_series[0].at("rows").as_array()) {
    EXPECT_EQ(row.as_array().back().as_number(), 1.0);
  }

  ASSERT_EQ(got_series[1].at("name").as_string(), "timing");
  EXPECT_GE(got_series[1].at("summary").at("speedup_alu_dispatch").as_number(), 10.0);
}

TEST(Golden, JitThroughputRtx2070) {
  expect_jit_throughput("jit_throughput_rtx2070", "rtx2070");
}

TEST(Golden, JitThroughputT4) { expect_jit_throughput("jit_throughput_t4", "t4"); }

// The benches read their flags through the same table-driven parser as
// tcgemm_cli: junk, a partial number, an unknown choice, a flag outside the
// bench's table and a missing value each exit 1 with an error naming the
// flag and the value, before any work.
TEST(Golden, BenchFlagsNameTheBadValue) {
  struct Case {
    const char* bench;
    const char* args;
    std::string names;
  };
  const std::string step = "--step takes an integer in [1, 1048576], got ";
  for (const Case& c :
       {Case{"fig6_square_rtx2070", "--step abc", step + "'abc'"},
        Case{"fig6_square_rtx2070", "--step 12abc", step + "'12abc'"},
        Case{"batched_splitk", "--device bogus",
             "--device takes one of rtx2070|t4|RTX2070|T4, got 'bogus'"},
        Case{"fig6_square_rtx2070", "--device t4", "fig6_square_rtx2070 does not take --device"},
        Case{"table6_blocking", "--step 8", "table6_blocking does not take --step"},
        Case{"table6_blocking", "--json", "--json needs a value"}}) {
    std::string err;
    EXPECT_EQ(run_bench_status(c.bench, c.args, err), 1) << c.bench << " " << c.args;
    EXPECT_NE(err.find(c.names), std::string::npos) << c.bench << " " << c.args << ": " << err;
  }
}

// A --json path that cannot be opened exits 1 and names the path, as a bad
// flag does, instead of throwing out of main after the bench's work.
TEST(Golden, BenchUnwritableJsonPathExitsOne) {
  const std::string path = "/nonexistent_tc_dir/x.json";
  std::string err;
  EXPECT_EQ(run_bench_status("table1_hmma", "--json " + path, err), 1);
  EXPECT_NE(err.find("error: cannot open " + path + " for writing"), std::string::npos) << err;
}

// The parser itself: golden comparisons are only as trustworthy as the
// reader, so pin its behavior on the writer's own corner cases.
TEST(Golden, ParserRoundTripsWriterOutput) {
  const auto doc = json_parse(R"({"schema":"tc-bench-v1","n":-1.5e3,"flag":true,)"
                              R"("none":null,"s":"a\"b\\c\nd","rows":[[1,2],[]]})");
  EXPECT_EQ(doc.at("schema").as_string(), "tc-bench-v1");
  EXPECT_DOUBLE_EQ(doc.at("n").as_number(), -1500.0);
  EXPECT_TRUE(doc.at("flag").as_bool());
  EXPECT_TRUE(doc.at("none").is_null());
  EXPECT_EQ(doc.at("s").as_string(), "a\"b\\c\nd");
  EXPECT_EQ(doc.at("rows").as_array().size(), 2u);
  EXPECT_DOUBLE_EQ(doc.at("rows").as_array()[0].as_array()[1].as_number(), 2.0);
  EXPECT_TRUE(doc.at("rows").as_array()[1].as_array().empty());
}

TEST(Golden, ParserRejectsMalformedInput) {
  EXPECT_THROW((void)json_parse("{"), std::runtime_error);
  EXPECT_THROW((void)json_parse("[1,]"), std::runtime_error);
  EXPECT_THROW((void)json_parse("{\"a\":1} x"), std::runtime_error);
  EXPECT_THROW((void)json_parse("\"unterminated"), std::runtime_error);
  EXPECT_THROW((void)json_parse("01a"), std::runtime_error);
}

}  // namespace
}  // namespace tc
