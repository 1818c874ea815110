// Smoke test for host_perf, one workload per invocation (registered with
// CTest by CMakeLists.txt). Runs the workload at --smoke size four times and
// checks that:
//  * every operation passed and the result line has the contract's keys,
//    naming exactly the metrics and units BENCHMARK.json lists;
//  * the deterministic results repeat exactly across two same-seed runs and
//    between the traced and the untraced run;
//  * paper_sweep and control_plane results change with the seed, so the seed
//    reaches the generated inputs;
//  * the Chrome trace parses, and the self times inside each pass sum to no
//    more than the pass.
//
// Usage: host_perf_smoke <host_perf binary> <workload> <BENCHMARK.json> <output dir>
#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "common/json_parse.hpp"

namespace {

using tc::JsonValue;

int g_failures = 0;

void expect(bool ok, const std::string& what) {
  if (!ok) {
    ++g_failures;
    std::cerr << "FAIL: " << what << "\n";
  }
}

std::string quote(const std::string& s) { return "'" + s + "'"; }

std::string read_file(const std::string& path) {
  std::ifstream is(path);
  std::ostringstream ss;
  ss << is.rdbuf();
  return ss.str();
}

struct Run {
  int status = -1;
  JsonValue line;  // last stdout line
  JsonValue file;  // the --json output
};

Run run(const std::string& bin, const std::string& workload, int seed, bool trace,
        const std::string& json, const std::string& trace_out = "") {
  std::string cmd = quote(bin) + " --workload " + workload + " --seed " + std::to_string(seed) +
                    " --smoke --trace " + (trace ? "1" : "0") + " --json " + quote(json);
  if (!trace_out.empty()) cmd += " --trace-out " + quote(trace_out);
  Run r;
  FILE* p = popen(cmd.c_str(), "r");
  if (p == nullptr) {
    expect(false, "cannot run " + cmd);
    return r;
  }
  std::string out;
  char buf[4096];
  while (std::fgets(buf, sizeof(buf), p) != nullptr) out += buf;
  r.status = pclose(p);
  expect(r.status == 0, cmd + " exited with status " + std::to_string(r.status));
  std::string last;
  std::istringstream lines(out);
  for (std::string l; std::getline(lines, l);) {
    if (!l.empty()) last = l;
  }
  try {
    r.line = tc::json_parse(last);
    r.file = tc::json_parse(read_file(json));
  } catch (const std::exception& e) {
    expect(false, cmd + ": " + e.what());
  }
  return r;
}

/// The result line has exactly the contract's keys, every operation passed,
/// and its metrics are exactly `listed` (name -> unit).
void check_line(const Run& r, const JsonValue& listed, const std::string& what) {
  if (!r.line.is_object()) return;
  std::set<std::string> keys;
  for (const auto& [k, v] : r.line.as_object()) keys.insert(k);
  expect(keys == std::set<std::string>{"attempted", "correct", "failed", "metrics"},
         what + ": result line keys");
  expect(r.line.at("correct").as_bool(), what + ": correct");
  expect(r.line.at("failed").as_number() == 0.0, what + ": failed == 0");
  expect(r.line.at("attempted").as_number() >= 1.0, what + ": attempted >= 1");
  const auto& metrics = r.line.at("metrics").as_object();
  expect(metrics.size() == listed.as_array().size(), what + ": metric count");
  for (const JsonValue& m : listed.as_array()) {
    const std::string& name = m.at("name").as_string();
    const auto it = metrics.find(name);
    expect(it != metrics.end(), what + ": missing metric " + name);
    if (it == metrics.end()) continue;
    expect(it->second.at("unit").as_string() == m.at("unit").as_string(),
           what + ": unit of " + name);
    expect(it->second.at("value").is_number(), what + ": value of " + name);
  }
}

std::string deterministic(const Run& r) {
  return r.file.is_object() ? tc::json_dump(r.file.at("deterministic")) : "";
}

/// Self time of every event inside each "pass" event, from the trace alone:
/// an event's self time is its duration minus its direct children's.
void check_trace(const std::string& path) {
  struct Event {
    std::string name;
    double ts = 0.0;
    double dur = 0.0;
    int parent = -1;
    double child = 0.0;
  };
  std::vector<Event> ev;
  try {
    const JsonValue t = tc::json_parse(read_file(path));
    for (const JsonValue& e : t.at("traceEvents").as_array()) {
      if (e.at("ph").as_string() != "X") continue;
      ev.push_back({e.at("name").as_string(), e.at("ts").as_number(), e.at("dur").as_number()});
    }
  } catch (const std::exception& e) {
    expect(false, path + ": " + e.what());
    return;
  }
  std::stable_sort(ev.begin(), ev.end(), [](const Event& a, const Event& b) {
    return a.ts != b.ts ? a.ts < b.ts : a.dur > b.dur;
  });
  std::vector<int> open;
  for (int i = 0; i < static_cast<int>(ev.size()); ++i) {
    while (!open.empty() && ev[open.back()].ts + ev[open.back()].dur < ev[i].ts + ev[i].dur) {
      open.pop_back();
    }
    ev[i].parent = open.empty() ? -1 : open.back();
    if (ev[i].parent >= 0) ev[ev[i].parent].child += ev[i].dur;
    open.push_back(i);
  }
  int passes = 0;
  for (int i = 0; i < static_cast<int>(ev.size()); ++i) {
    if (ev[i].name != "pass") continue;
    ++passes;
    double self_sum = 0.0;
    for (int j = 0; j < static_cast<int>(ev.size()); ++j) {
      int a = j;
      while (a >= 0 && a != i) a = ev[a].parent;
      if (a != i) continue;
      const double self = ev[j].dur - ev[j].child;
      expect(self >= 0.0, path + ": negative self time for " + ev[j].name);
      self_sum += self;
    }
    expect(self_sum <= ev[i].dur, path + ": self times exceed the pass");
  }
  expect(passes >= 1, path + ": no pass span");
  expect(ev.size() > static_cast<std::size_t>(passes), path + ": no spans inside passes");
}

}  // namespace

int main(int argc, char** argv) {
  if (argc != 5) {
    std::cerr << "usage: host_perf_smoke <host_perf> <workload> <BENCHMARK.json> <dir>\n";
    return 2;
  }
  const std::string bin = argv[1];
  const std::string wl = argv[2];
  const std::string dir = argv[4];
  std::filesystem::create_directories(dir);
  const JsonValue spec = tc::json_parse(read_file(argv[3]));
  const auto path = [&](const std::string& tag) { return dir + "/" + wl + "_" + tag + ".json"; };

  const Run a = run(bin, wl, 1, false, path("a"));
  const Run b = run(bin, wl, 1, false, path("b"));
  const Run t = run(bin, wl, 1, true, path("t"), path("trace"));
  const Run c = run(bin, wl, 2, false, path("c"));

  check_line(a, spec.at("end_to_end"), wl + " untraced");
  check_line(c, spec.at("end_to_end"), wl + " seed 2");
  check_line(t, spec.at("per_layer"), wl + " traced");
  if (a.line.is_object()) {
    for (const auto& [name, m] : a.line.at("metrics").as_object()) {
      expect(m.at("value").as_number() > 0.0, wl + ": end-to-end " + name + " must be > 0");
    }
  }

  const std::string det = deterministic(a);
  expect(!det.empty() && det != "{}", wl + ": no deterministic results");
  expect(det == deterministic(b), wl + ": deterministic results differ between same-seed runs");
  expect(det == deterministic(t), wl + ": deterministic results differ when traced");
  if (wl == "paper_sweep" || wl == "control_plane") {
    expect(det != deterministic(c), wl + ": deterministic results ignore the seed");
  }
  check_trace(path("trace"));

  std::cout << wl << ": " << (g_failures == 0 ? "ok" : "FAILED") << "\n";
  return g_failures == 0 ? 0 : 1;
}
