// CLI contract tests (ISSUE 5): every tcgemm_cli subcommand that advertises
// --json must exit zero and emit a parseable tc-cli-v1 document with the
// stable header plus its command-specific payload keys. These are the keys
// external tooling (and tests/test_golden.cpp-style goldens) anchor on, so
// renaming one is a breaking schema change and should fail here first.
#include <gtest/gtest.h>
#include <sys/wait.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "common/json_parse.hpp"

namespace tc {
namespace {

std::string read_file(const std::filesystem::path& path) {
  std::ifstream is(path);
  EXPECT_TRUE(is.good()) << "cannot open " << path;
  std::ostringstream ss;
  ss << is.rdbuf();
  return ss.str();
}

/// Runs `tcgemm_cli <args> --json <tmp>`, expects exit 0, returns the parsed
/// document.
JsonValue run_cli(const std::string& args) {
  const auto out = std::filesystem::temp_directory_path() /
                   ("tc_cli_" + std::to_string(std::hash<std::string>{}(args)) + ".json");
  std::filesystem::remove(out);
  const std::string cmd =
      std::string(TC_CLI_BIN) + " " + args + " --json " + out.string() + " > /dev/null";
  const int rc = std::system(cmd.c_str());
  EXPECT_EQ(rc, 0) << cmd;
  const auto doc = json_parse(read_file(out));
  std::filesystem::remove(out);
  return doc;
}

/// Exit code of `tcgemm_cli <args>`, with stdout discarded and stderr kept in
/// `err`.
int run_cli_status(const std::string& args, std::string& err) {
  const auto err_path = std::filesystem::temp_directory_path() /
                        ("tc_cli_" + std::to_string(std::hash<std::string>{}(args)) + ".err");
  const std::string cmd =
      std::string(TC_CLI_BIN) + " " + args + " > /dev/null 2> " + err_path.string();
  const int rc = std::system(cmd.c_str());
  err = read_file(err_path);
  std::filesystem::remove(err_path);
  return WIFEXITED(rc) ? WEXITSTATUS(rc) : -1;
}

/// The flags the usage text lists for `command`: the "[--flag" words of its
/// block, which runs to the next line that names a command.
std::set<std::string> usage_flags(const std::string& command) {
  const auto out = std::filesystem::temp_directory_path() / "tc_cli_usage.txt";
  const std::string cmd = std::string(TC_CLI_BIN) + " > " + out.string();
  EXPECT_NE(std::system(cmd.c_str()), 0) << "usage exits 2";
  const std::string text = read_file(out);
  std::filesystem::remove(out);
  const auto begin = text.find("\n  " + command + " ");
  EXPECT_NE(begin, std::string::npos) << command << " is missing from the usage text";
  if (begin == std::string::npos) return {};
  auto end = begin;
  while ((end = text.find("\n  ", end + 1)) != std::string::npos && text[end + 3] == ' ') {
  }
  std::set<std::string> flags;
  std::istringstream block(text.substr(begin, end - begin));
  for (std::string word; block >> word;) {
    if (word.rfind("[--", 0) != 0) continue;
    if (word.back() == ']') word.pop_back();
    flags.insert(word.substr(1));
  }
  return flags;
}

/// The "--flag" words of a command line.
std::set<std::string> flags_of(const std::string& args) {
  std::set<std::string> flags;
  std::istringstream words(args);
  for (std::string word; words >> word;) {
    if (word.rfind("--", 0) == 0) flags.insert(word);
  }
  return flags;
}

/// The tc-cli-v1 header every command writes before its payload.
void expect_header(const JsonValue& doc, const std::string& command) {
  ASSERT_TRUE(doc.is_object());
  EXPECT_EQ(doc.at("schema").as_string(), "tc-cli-v1");
  EXPECT_EQ(doc.at("command").as_string(), command);
  EXPECT_FALSE(doc.at("config").as_string().empty());
  EXPECT_FALSE(doc.at("device").as_string().empty());
  EXPECT_GT(doc.at("m").as_number(), 0.0);
  EXPECT_GT(doc.at("n").as_number(), 0.0);
  EXPECT_GT(doc.at("k").as_number(), 0.0);
}

TEST(CliContract, Perf) {
  const JsonValue doc = run_cli("perf --device rtx2070 --m 4096 --n 4096 --k 4096");
  expect_header(doc, "perf");
  const JsonValue& p = doc.at("perf");
  for (const char* key :
       {"tflops", "ms", "waves", "l2_hit_rate", "dram_efficiency", "cycles_per_iter",
        "ctas_per_sm"}) {
    EXPECT_TRUE(p.at(key).is_number()) << key;
  }
  EXPECT_GT(p.at("tflops").as_number(), 0.0);
}

TEST(CliContract, PerfDeviceEngine) {
  const JsonValue doc = run_cli("perf --engine device --m 256 --n 256 --k 64");
  expect_header(doc, "perf");
  const JsonValue& p = doc.at("device_perf");
  EXPECT_EQ(p.at("engine").as_string(), "device");
  for (const char* key : {"tflops", "ms", "device_cycles", "model_cycles", "rel_error",
                          "model_l2_hit_rate", "device_l2_hit_rate", "tail_imbalance",
                          "sms_used", "ctas_per_sm"}) {
    EXPECT_TRUE(p.at(key).is_number()) << key;
  }
}

TEST(CliContract, Lint) {
  const JsonValue doc = run_cli("lint");
  expect_header(doc, "lint");
  EXPECT_TRUE(doc.at("schedule_warnings").is_array());
  EXPECT_TRUE(doc.at("slack_findings").is_array());
}

TEST(CliContract, Check) {
  const JsonValue doc = run_cli("check");
  expect_header(doc, "check");
  const auto& kernels = doc.at("kernels").as_array();
  ASSERT_EQ(kernels.size(), 3u);  // optimized, cublas_like, wmma_naive
  for (const auto& k : kernels) {
    EXPECT_FALSE(k.at("kernel").as_string().empty());
    EXPECT_GT(k.at("instructions").as_number(), 0.0);
    EXPECT_EQ(k.at("errors").as_number(), 0.0) << k.at("kernel").as_string();
    EXPECT_TRUE(k.at("warnings").is_number());
    EXPECT_TRUE(k.at("diagnostics").is_array());
  }
}

TEST(CliContract, Fuzz) {
  const JsonValue doc = run_cli("fuzz --programs 5 --seed 3");
  expect_header(doc, "fuzz");
  EXPECT_EQ(doc.at("programs").as_number(), 5.0);
  EXPECT_TRUE(doc.at("divergences").is_number());
  EXPECT_TRUE(doc.at("failures").is_array());
  EXPECT_EQ(doc.at("failures").as_array().size(), 0u);
}

TEST(CliContract, Schedule) {
  const JsonValue doc = run_cli("schedule --m 256 --n 256 --k 64");
  expect_header(doc, "schedule");
  EXPECT_FALSE(doc.at("kernel").as_string().empty());
  for (const char* mode : {"minimal", "full"}) {
    const JsonValue& s = doc.at(mode);
    for (const char* key :
         {"instructions", "nops_inserted", "reordered", "barriers_used", "waits_placed",
          "waits_elided", "waits_dropped", "waits_hoisted", "reuse_flags",
          "static_issue_cycles", "timed_cycles"}) {
      EXPECT_TRUE(s.at(key).is_number()) << mode << "." << key;
    }
    EXPECT_GT(s.at("timed_cycles").as_number(), 0.0) << mode;
  }
  EXPECT_TRUE(doc.at("slack_findings").is_array());
}

TEST(CliContract, Tune) {
  const JsonValue doc = run_cli("tune --device rtx2070 --budget 4 --explore 1");
  expect_header(doc, "tune");
  // Default tune shape is the recorded-baseline probe shape.
  EXPECT_EQ(doc.at("m").as_number(), 256.0);
  EXPECT_EQ(doc.at("n").as_number(), 256.0);
  EXPECT_EQ(doc.at("k").as_number(), 64.0);

  const JsonValue& t = doc.at("tune");
  EXPECT_EQ(t.at("engine").as_string(), "timed-device");
  EXPECT_EQ(t.at("budget").as_number(), 4.0);
  EXPECT_TRUE(t.at("seed").is_number());
  EXPECT_TRUE(t.at("inversion_rate").is_number());

  const JsonValue& prune = t.at("prune");
  for (const char* key : {"raw", "tiling", "generator", "registers", "resources",
                          "launch_order", "legal", "evaluated"}) {
    EXPECT_TRUE(prune.at(key).is_number()) << key;
  }
  EXPECT_EQ(prune.at("evaluated").as_number(), 4.0);
  EXPECT_EQ(prune.at("raw").as_number(),
            prune.at("tiling").as_number() + prune.at("generator").as_number() +
                prune.at("registers").as_number() + prune.at("resources").as_number() +
                prune.at("launch_order").as_number() + prune.at("legal").as_number());

  const auto candidate_keys = {"config",       "regs",       "ctas_per_sm", "limiter",
                               "model_rank",   "model_cycles", "sim_cycles",  "tflops",
                               "sms_used",     "hazard_diags"};
  const JsonValue& best = t.at("best");
  for (const char* key : candidate_keys) EXPECT_TRUE(best.has(key)) << "best." << key;
  EXPECT_EQ(best.at("hazard_diags").as_number(), 0.0);

  const auto& cands = t.at("candidates").as_array();
  ASSERT_EQ(cands.size(), 4u);
  for (const auto& c : cands) {
    for (const char* key : candidate_keys) EXPECT_TRUE(c.has(key)) << "candidate." << key;
    EXPECT_EQ(c.at("hazard_diags").as_number(), 0.0) << c.at("config").as_string();
  }
  // Best is the first (lowest simulated cycles) candidate.
  EXPECT_EQ(best.at("config").as_string(), cands[0].at("config").as_string());
}

TEST(CliContract, TuneCacheMissThenHit) {
  const auto cache = std::filesystem::temp_directory_path() / "tc_cli_tune_cache.json";
  std::filesystem::remove(cache);

  // Cold: full search at the bucket shape, winner stored.
  const JsonValue miss =
      run_cli("tune --m 100 --n 100 --k 60 --budget 2 --cache " + cache.string());
  expect_header(miss, "tune");
  const JsonValue& mt = miss.at("tune");
  EXPECT_EQ(mt.at("engine").as_string(), "timed-device");
  EXPECT_FALSE(mt.at("cache").at("hit").as_bool());
  EXPECT_TRUE(mt.at("cache").at("stored").as_bool());
  EXPECT_EQ(mt.at("cache").at("bucket_m").as_number(), 128.0);
  EXPECT_EQ(mt.at("cache").at("bucket_n").as_number(), 128.0);
  EXPECT_EQ(mt.at("cache").at("bucket_k").as_number(), 64.0);

  // Warm: a different shape in the same bucket is answered without a search.
  const JsonValue hit =
      run_cli("tune --m 120 --n 97 --k 33 --budget 2 --cache " + cache.string());
  expect_header(hit, "tune");
  const JsonValue& ht = hit.at("tune");
  EXPECT_EQ(ht.at("engine").as_string(), "cache");
  EXPECT_TRUE(ht.at("cache").at("hit").as_bool());
  EXPECT_EQ(ht.at("cache").at("key").as_string(), mt.at("cache").at("key").as_string());
  EXPECT_EQ(ht.at("best").at("config").as_string(), mt.at("best").at("config").as_string());
  EXPECT_EQ(ht.at("best").at("sim_cycles").as_number(),
            mt.at("best").at("sim_cycles").as_number());
  std::filesystem::remove(cache);
}

TEST(CliContract, Serve) {
  const JsonValue doc =
      run_cli("serve --requests 12 --tenants 2 --workers 2 --budget 2 --seed 5");
  expect_header(doc, "serve");
  const JsonValue& s = doc.at("serve");

  const JsonValue& c = s.at("counters");
  for (const char* key :
       {"requests", "accepted", "shed", "completed", "batches", "batched_requests",
        "cache_lookups", "cache_hits", "cache_misses", "tune_evals", "hazard_diags",
        "sim_passes", "worker_busy_cycles"}) {
    EXPECT_TRUE(c.at(key).is_number()) << key;
  }
  EXPECT_EQ(c.at("requests").as_number(), 12.0);
  EXPECT_EQ(c.at("hazard_diags").as_number(), 0.0);
  EXPECT_EQ(c.at("accepted").as_number(),
            c.at("requests").as_number() - c.at("shed").as_number());

  for (const char* key : {"makespan_cycles", "mean_cycles", "p50_cycles", "p99_cycles",
                          "p50_ms", "p99_ms", "qps", "cache_hit_rate", "worker_utilization"}) {
    EXPECT_TRUE(s.at(key).is_number()) << key;
  }
  EXPECT_GT(s.at("qps").as_number(), 0.0);

  const auto& tenants = s.at("tenants").as_array();
  ASSERT_EQ(tenants.size(), 2u);
  for (const auto& t : tenants) {
    for (const char* key : {"tenant", "weight", "accepted", "shed", "completed",
                            "busy_cycles", "share", "p50_cycles", "p99_cycles"}) {
      EXPECT_TRUE(t.at(key).is_number()) << key;
    }
  }
}

TEST(CliContract, Numerics) {
  const JsonValue doc = run_cli("numerics --k 256 --seed 3");
  expect_header(doc, "numerics");
  const JsonValue& n = doc.at("numerics");
  EXPECT_EQ(n.at("seed").as_number(), 3.0);
  const auto& modes = n.at("modes").as_array();
  ASSERT_EQ(modes.size(), 2u);
  EXPECT_EQ(modes[0].as_string(), "idealized");
  EXPECT_EQ(modes[1].as_string(), "bitaccurate");

  // --k is the ladder ceiling: k doubles from 64, so 256 gives 3 points.
  const auto& points = n.at("points").as_array();
  ASSERT_EQ(points.size(), 3u);
  double prev_k = 0.0;
  for (const auto& p : points) {
    for (const char* key :
         {"k", "idealized_f16_max_rel", "idealized_f16_mean_rel", "bitacc_f16_max_rel",
          "bitacc_f16_mean_rel", "bitacc_f32_max_rel", "bitacc_f32_mean_rel"}) {
      EXPECT_TRUE(p.at(key).is_number()) << key;
    }
    EXPECT_GT(p.at("k").as_number(), prev_k);
    prev_k = p.at("k").as_number();
    // FP32 accumulation must beat FP16 accumulation at every point.
    EXPECT_LT(p.at("bitacc_f32_mean_rel").as_number(),
              p.at("bitacc_f16_mean_rel").as_number());
  }
  EXPECT_EQ(points.front().at("k").as_number(), 64.0);
  EXPECT_EQ(points.back().at("k").as_number(), 256.0);
}

TEST(CliContract, RunJitEngineCheckJson) {
  // `run --engine jit --check` executes the grid through the JIT and
  // bit-compares C against the host reference; the engine lands in the JSON
  // payload so tooling can tell which engine produced the artifact.
  const JsonValue doc = run_cli("run --m 64 --n 64 --k 64 --engine jit --check");
  expect_header(doc, "run");
  EXPECT_EQ(doc.at("engine").as_string(), "jit");
  EXPECT_EQ(doc.at("mismatches").as_number(), 0.0);
}

TEST(CliContract, RunJitEngineBitAccurateCheckJson) {
  const JsonValue doc = run_cli(
      "run --m 64 --n 64 --k 64 --engine jit --numerics bitaccurate --check");
  expect_header(doc, "run");
  EXPECT_EQ(doc.at("engine").as_string(), "jit");
  EXPECT_EQ(doc.at("numerics").as_string(), "bitaccurate");
  EXPECT_EQ(doc.at("mismatches").as_number(), 0.0);
}

TEST(CliContract, FuzzJitEngineJson) {
  const JsonValue doc = run_cli("fuzz --programs 5 --seed 50001 --engine jit");
  expect_header(doc, "fuzz");
  EXPECT_EQ(doc.at("engines").as_string(), "jit-vs-interpreter");
  EXPECT_EQ(doc.at("programs").as_number(), 5.0);
  EXPECT_EQ(doc.at("divergences").as_number(), 0.0);
  EXPECT_EQ(doc.at("failures").as_array().size(), 0u);
}

TEST(CliContract, FuzzDefaultEnginePairJson) {
  const JsonValue doc = run_cli("fuzz --programs 3 --seed 9");
  expect_header(doc, "fuzz");
  EXPECT_EQ(doc.at("engines").as_string(), "functional-vs-timed");
}

TEST(CliContract, EngineValidationIsPerCommand) {
  // Each command's --engine takes its own choices and rejects the others'.
  const auto fails = [](const std::string& args) {
    const std::string cmd =
        std::string(TC_CLI_BIN) + " " + args + " > /dev/null 2>&1";
    return std::system(cmd.c_str()) != 0;
  };
  EXPECT_TRUE(fails("run --m 64 --n 64 --k 64 --engine bogus"));
  EXPECT_TRUE(fails("run --m 64 --n 64 --k 64 --engine model"));
  EXPECT_TRUE(fails("perf --m 256 --n 256 --k 64 --engine jit"));
  EXPECT_TRUE(fails("fuzz --programs 2 --engine model"));
  // perf flags that cannot apply are errors, not silent no-ops.
  EXPECT_TRUE(fails("perf --m 256 --n 256 --k 64 --engine device --profile"));
  EXPECT_TRUE(fails("perf --m 256 --n 256 --k 64 --engine device --trace-out t.json"));
  EXPECT_TRUE(fails("perf --m 256 --n 256 --k 64 --engine device --top 5"));
  EXPECT_TRUE(fails("perf --m 256 --n 256 --k 64 --trace-out t.json"));
  EXPECT_TRUE(fails("perf --m 256 --n 256 --k 64 --top 5"));
  // serve and tune reject the flags outside their tables, and name each one.
  for (const auto& [args, flag] :
       {std::pair{"serve --requests 2 --engine jit", "--engine"},
        std::pair{"serve --requests 2 --profile", "--profile"},
        std::pair{"serve --requests 2 --trace-out t.json", "--trace-out"},
        std::pair{"serve --requests 2 --top 3", "--top"},
        std::pair{"serve --requests 2 --check", "--check"},
        std::pair{"tune --budget 1 --profile", "--profile"},
        std::pair{"tune --budget 1 --trace-out t.json", "--trace-out"},
        std::pair{"tune --budget 1 --check", "--check"}}) {
    std::string err;
    EXPECT_EQ(run_cli_status(args, err), 1) << args;
    EXPECT_NE(err.find(flag), std::string::npos) << args << ": " << err;
  }
}

TEST(CliContract, Disasm) {
  const JsonValue doc = run_cli("disasm");
  expect_header(doc, "disasm");
  EXPECT_GT(doc.at("instructions").as_number(), 0.0);
}

TEST(CliContract, UnknownCommandOpensNoJson) {
  const auto out = std::filesystem::temp_directory_path() / "tc_cli_unknown_command.json";
  std::filesystem::remove(out);
  std::string err;
  EXPECT_EQ(run_cli_status("bogus --json " + out.string(), err), 2);  // usage
  EXPECT_FALSE(std::filesystem::exists(out));
}

TEST(CliContract, NumericFlagsNameTheBadValue) {
  // Every numeric flag reads its whole value: trailing junk, a sign on a
  // size or count, and out-of-range values fail with exit code 1 and an
  // error naming the flag and the value, never a partial parse.
  struct Case {
    const char* args;
    const char* flag;
    const char* value;
  };
  for (const Case& c : {Case{"perf --m abc", "--m", "abc"},
                        Case{"perf --m 12abc --n 256 --k 64", "--m", "12abc"},
                        Case{"run --m -1", "--m", "-1"},
                        Case{"perf --m -1", "--m", "-1"},
                        Case{"perf --k 0", "--k", "0"},
                        Case{"tune --top abc", "--top", "abc"},
                        Case{"tune --budget 99999999999", "--budget", "99999999999"},
                        Case{"fuzz --seed 1x", "--seed", "1x"},
                        Case{"op --split-k +2", "--split-k", "+2"},
                        Case{"op --alpha nan", "--alpha", "nan"}}) {
    std::string err;
    EXPECT_EQ(run_cli_status(c.args, err), 1) << c.args;
    EXPECT_NE(err.find(c.flag), std::string::npos) << c.args << ": " << err;
    EXPECT_NE(err.find(std::string("'") + c.value + "'"), std::string::npos)
        << c.args << ": " << err;
  }
}

TEST(CliContract, RunBitAccurateCheckJson) {
  // `run --numerics bitaccurate --check` verifies the executor against the
  // bit-accurate engine and must report zero mismatches.
  const JsonValue doc =
      run_cli("run --m 64 --n 64 --k 64 --numerics bitaccurate --check");
  expect_header(doc, "run");
  EXPECT_EQ(doc.at("numerics").as_string(), "bitaccurate");
  EXPECT_EQ(doc.at("mismatches").as_number(), 0.0);
}

TEST(CliContract, EveryCommandTakesEveryFlagOfItsTable) {
  // One invocation per command passes every flag a command reads, so a flag
  // the table dropped fails here; together they pass every flag the usage
  // text lists for the command, so the table lists nothing the command
  // cannot take. perf needs one invocation per engine.
  const auto tmp = std::filesystem::temp_directory_path();
  const std::string trace = (tmp / "tc_cli_accept_trace.json").string();
  const std::string tune_cache = (tmp / "tc_cli_accept_tune_cache.json").string();
  const std::string serve_cache = (tmp / "tc_cli_accept_serve_cache.json").string();
  const std::vector<std::pair<std::string, std::vector<std::string>>> matrix = {
      {"run",
       {"run --m 64 --n 64 --k 64 --device t4 --check --baseline --engine jit "
        "--numerics bitaccurate"}},
      {"perf",
       {"perf --m 256 --n 256 --k 64 --device t4 --baseline --engine model --profile --top 3 "
        "--trace-out " + trace,
        "perf --m 256 --n 256 --k 64 --engine device"}},
      {"lint", {"lint --m 256 --n 256 --k 64 --baseline"}},
      {"schedule", {"schedule --m 256 --n 256 --k 64 --baseline --wmma --device t4"}},
      {"disasm", {"disasm --m 256 --n 256 --k 64 --baseline"}},
      {"check", {"check --m 256 --n 256 --k 64"}},
      {"fuzz",
       {"fuzz --programs 2 --seed 3 --numerics bitaccurate --numeric-operands --engine jit"}},
      {"numerics", {"numerics --m 16 --n 16 --k 128 --seed 2"}},
      {"tune",
       {"tune --m 128 --n 128 --k 64 --device t4 --budget 1 --explore 0 --seed 2 --threads 1 "
        "--engine model --top 1 --cache " + tune_cache}},
      {"serve",
       {"serve --requests 2 --tenants 1 --workers 1 --device t4 --cache " + serve_cache +
        " --seed 2 --budget 1 --threads 1"}},
      {"op",
       {"op --m 64 --n 64 --k 128 --batch 2 --split-k 2 --alpha 1.5 --beta 0.5 --bias "
        "--act relu --device t4 --check --baseline --numerics bitaccurate --seed 4"}},
  };
  ASSERT_EQ(matrix.size(), 11u);
  for (const auto& [command, invocations] : matrix) {
    std::set<std::string> passed = {"--json"};
    for (const std::string& args : invocations) {
      expect_header(run_cli(args), command);
      passed.merge(flags_of(args));
    }
    EXPECT_EQ(passed, usage_flags(command)) << command;
  }
  for (const auto& path : {trace, tune_cache, serve_cache}) std::filesystem::remove(path);
}

TEST(CliContract, EveryCommandRejectsFlagsOutsideItsTable) {
  // A flag a command does not take exits 1, naming the command and the
  // flag, before --json opens its file, even when --json comes first.
  const auto out = std::filesystem::temp_directory_path() / "tc_cli_reject.json";
  for (const auto& [command, flag] :
       {std::pair{"lint", "--device t4"}, std::pair{"op", "--engine jit"},
        std::pair{"perf", "--numerics bitaccurate"}, std::pair{"fuzz", "--m 64"},
        std::pair{"disasm", "--check"}, std::pair{"check", "--baseline"},
        std::pair{"numerics", "--device t4"}, std::pair{"run", "--seed 3"},
        std::pair{"schedule", "--numerics bitaccurate"}, std::pair{"serve", "--top 3"},
        std::pair{"tune", "--check"}}) {
    std::filesystem::remove(out);
    const std::string args =
        std::string(command) + " --json " + out.string() + " " + flag;
    const std::string name = std::string(flag).substr(0, std::string(flag).find(' '));
    std::string err;
    EXPECT_EQ(run_cli_status(args, err), 1) << args;
    EXPECT_NE(err.find(std::string(command) + " does not take " + name), std::string::npos)
        << args << ": " << err;
    EXPECT_FALSE(std::filesystem::exists(out)) << args;
  }
  std::filesystem::remove(out);
}

TEST(CliContract, BadValuesOpenNoJson) {
  // An out-of-range value (a --threads above the 64 host threads tune may
  // start among them), an unknown choice (a split-K factor that is not a
  // power of two among them) and a perf flag its other flags rule out all
  // exit 1 at parse time, naming the flag and the value, and leave no --json
  // file behind.
  const auto out = std::filesystem::temp_directory_path() / "tc_cli_bad_value.json";
  struct Case {
    const char* args;
    const char* names;
  };
  for (const Case& c :
       {Case{"run --device bogus", "--device takes one of rtx2070|t4"},
        Case{"numerics --k 32", "--k takes an integer in [64, "},
        Case{"op --act tanh", "'tanh'"}, Case{"fuzz --engine model", "'model'"},
        Case{"tune --engine jit", "'jit'"},
        Case{"perf --engine device --profile", "perf --engine device does not take --profile"},
        Case{"perf --engine device --top 3", "perf --engine device does not take --top"},
        Case{"perf --trace-out t.json", "perf --trace-out needs --profile"},
        Case{"serve --threads 0", "--threads takes an integer in [1, "},
        Case{"tune --threads 65", "--threads takes an integer in [1, 64], got '65'"},
        Case{"serve --threads 65", "--threads takes an integer in [1, 64], got '65'"},
        Case{"op --m 64 --n 64 --k 64 --split-k 3",
             "--split-k takes one of 1|2|4|8|16|32|64, got '3'"}}) {
    std::filesystem::remove(out);
    const std::string args = std::string(c.args) + " --json " + out.string();
    std::string err;
    EXPECT_EQ(run_cli_status(args, err), 1) << args;
    EXPECT_NE(err.find(c.names), std::string::npos) << args << ": " << err;
    EXPECT_FALSE(std::filesystem::exists(out)) << args;
  }
  std::filesystem::remove(out);
}

TEST(CliContract, EachCommandKeepsItsOwnShapeDefaults) {
  // A command's table holds one default per flag: tune --m alone keeps
  // tune's n and k, and numerics --m alone keeps numerics' n and k.
  const JsonValue tune = run_cli("tune --m 100 --budget 1 --engine model");
  EXPECT_EQ(tune.at("m").as_number(), 100.0);
  EXPECT_EQ(tune.at("n").as_number(), 256.0);
  EXPECT_EQ(tune.at("k").as_number(), 64.0);
  const JsonValue numerics = run_cli("numerics --m 32 --k 64");
  EXPECT_EQ(numerics.at("m").as_number(), 32.0);
  EXPECT_EQ(numerics.at("n").as_number(), 64.0);
  EXPECT_EQ(numerics.at("k").as_number(), 64.0);
}

TEST(CliContract, LateFailuresLeaveJsonAsItWas) {
  // An output that cannot be written once the command has run (the tuning
  // cache after a search, the trace after a profile) exits 1 and names the
  // path, with no source location. The --json document is written only after
  // the command returns, so its path is left as it was: absent, or
  // byte-identical.
  const auto out = std::filesystem::temp_directory_path() / "tc_cli_late_failure.json";
  const std::string dir = "/nonexistent_tc_dir/";
  for (const auto& [args, path] :
       {std::pair{"tune --m 64 --n 64 --k 64 --budget 2 --cache " + dir + "c.json",
                  dir + "c.json"},
        std::pair{"serve --requests 5 --budget 1 --cache " + dir + "c.json", dir + "c.json"},
        std::pair{"perf --m 256 --n 256 --k 64 --profile --trace-out " + dir + "t.json",
                  dir + "t.json"}}) {
    for (const bool existed : {false, true}) {
      std::filesystem::remove(out);
      if (existed) std::ofstream(out) << "previous document\n";
      std::string err;
      EXPECT_EQ(run_cli_status(args + " --json " + out.string(), err), 1) << args;
      EXPECT_NE(err.find("error: cannot open " + path + " for writing"), std::string::npos)
          << args << ": " << err;
      EXPECT_EQ(err.find(".cpp:"), std::string::npos) << args << ": " << err;
      EXPECT_EQ(err.find(".hpp:"), std::string::npos) << args << ": " << err;
      if (existed) {
        EXPECT_EQ(read_file(out), "previous document\n") << args;
      } else {
        EXPECT_FALSE(std::filesystem::exists(out)) << args;
      }
    }
  }
  std::filesystem::remove(out);
}

TEST(CliContract, OutputsNamingOneFileAreRefused) {
  // Two outputs of one command written to one file would replace each
  // other. The command exits 1 naming both flags before it does any work,
  // so the file is left as it was: absent, or byte-identical. A relative
  // name and "./name", or "dir/name" and "dir/./name", name one file.
  namespace fs = std::filesystem;
  const std::string name = "tc_cli_one_file.json";
  const fs::path here = fs::current_path() / name;  // the CLI inherits this directory
  const fs::path tmp = fs::temp_directory_path() / name;
  const std::string dotted = (fs::temp_directory_path() / "." / name).string();
  const std::string perf = "perf --m 256 --n 256 --k 64 --profile --trace-out ";
  const std::string tune = "tune --m 64 --n 64 --k 64 --budget 2 --cache ";
  const std::string serve = "serve --requests 5 --budget 1 --cache ";
  for (const auto& [args, file, second] :
       {std::tuple{perf + name + " --json ./" + name, here, "--trace-out"},
        std::tuple{perf + tmp.string() + " --json " + dotted, tmp, "--trace-out"},
        std::tuple{tune + tmp.string() + " --json " + tmp.string(), tmp, "--cache"},
        std::tuple{serve + dotted + " --json " + tmp.string(), tmp, "--cache"}}) {
    for (const bool existed : {false, true}) {
      fs::remove(file);
      if (existed) std::ofstream(file) << "previous document\n";
      std::string err;
      EXPECT_EQ(run_cli_status(args, err), 1) << args;
      EXPECT_NE(err.find("error: --json "), std::string::npos) << args << ": " << err;
      EXPECT_NE(err.find(std::string(" and ") + second + " "), std::string::npos)
          << args << ": " << err;
      EXPECT_NE(err.find("name one file"), std::string::npos) << args << ": " << err;
      if (existed) {
        EXPECT_EQ(read_file(file), "previous document\n") << args;
      } else {
        EXPECT_FALSE(fs::exists(file)) << args;
      }
    }
    fs::remove(file);
  }
}

TEST(CliContract, JsonRefusesItsOwnStandardStreams) {
  // Renaming the --json document over the file standard output or error is
  // redirected to would unlink that file, and what the command printed
  // would be lost with it. The command exits 1 naming the path instead, and
  // the file keeps the disassembly.
  const auto tmp = std::filesystem::temp_directory_path();
  const auto want = tmp / "tc_cli_own_stream_want.txt";
  const auto out = tmp / "tc_cli_own_stream_out.txt";
  const auto err = tmp / "tc_cli_own_stream_err.txt";
  const std::string disasm = std::string(TC_CLI_BIN) + " disasm --m 64 --n 64 --k 64";
  ASSERT_EQ(std::system((disasm + " > " + want.string()).c_str()), 0);
  const std::string text = read_file(want);
  ASSERT_NE(text.find(".kernel"), std::string::npos);
  for (const auto& [json, stream] : {std::pair{std::string("/dev/stdout"), "standard output"},
                                     std::pair{out.string(), "standard output"},
                                     std::pair{err.string(), "standard error"}}) {
    std::filesystem::remove(out);
    std::filesystem::remove(err);
    const std::string cmd =
        disasm + " --json " + json + " > " + out.string() + " 2> " + err.string();
    const int rc = std::system(cmd.c_str());
    EXPECT_EQ(WIFEXITED(rc) ? WEXITSTATUS(rc) : -1, 1) << cmd;
    EXPECT_NE(read_file(err).find("error: cannot write " + json + ": it is " + stream),
              std::string::npos)
        << cmd << ": " << read_file(err);
    EXPECT_TRUE(read_file(out) == text) << cmd << ": the disassembly is gone";
  }
  for (const auto& f : {want, out, err}) std::filesystem::remove(f);
}

TEST(CliContract, CacheDiagnosticNamesNoBuildPath) {
  // A TC_CHECK message names its source by its path in the repository
  // (src/...:N:), never by the absolute path it was built from.
  const auto tmp = std::filesystem::temp_directory_path();
  const auto cache = tmp / "tc_cli_entry_without_device.json";
  const auto out = tmp / "tc_cli_entry_without_device.txt";
  std::ofstream(cache) << R"({"schema":"tc-tune-cache-v1","entries":[{"m":64,"n":64,"k":64}]})"
                       << "\n";
  const std::string cmd = std::string(TC_CLI_BIN) +
                          " tune --m 64 --n 64 --k 64 --budget 1 --cache " + cache.string() +
                          " > " + out.string();
  EXPECT_EQ(std::system(cmd.c_str()), 0) << cmd;
  const std::string text = read_file(out);
  EXPECT_NE(text.find("malformed cache entry: src/common/json_parse.hpp:"), std::string::npos)
      << text;
  EXPECT_EQ(text.find("/src/common/json_parse.hpp"), std::string::npos) << text;
  std::filesystem::remove(cache);
  std::filesystem::remove(out);
}

}  // namespace
}  // namespace tc
