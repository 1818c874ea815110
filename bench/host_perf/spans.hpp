// Host-time spans recorded by the benchmark around its calls into each
// layer's public functions (outside-in: nothing inside the library is
// instrumented). A span is a name, a start, an end and its parent, so the
// nesting setup/pass -> operation -> layer call is kept and a layer's self
// time is its duration minus the part its child spans cover.
//
// Disabled recorders run the wrapped call and record nothing, so untraced
// runs pay one branch per call.
#pragma once

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <iomanip>
#include <map>
#include <ostream>
#include <string>
#include <string_view>
#include <vector>

#include "prof/trace.hpp"

namespace tc::host_perf {

using Clock = std::chrono::steady_clock;

struct Span {
  std::string name;
  double start_s = 0.0;  // host seconds since the recorder was created
  double end_s = 0.0;
  int parent = -1;  // index of the enclosing span, -1 at top level
  int depth = 0;
};

class Spans {
 public:
  Spans() : epoch_(Clock::now()) {}

  void set_enabled(bool on) { enabled_ = on; }
  [[nodiscard]] bool enabled() const { return enabled_; }
  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }

  [[nodiscard]] double now() const {
    return std::chrono::duration<double>(Clock::now() - epoch_).count();
  }

  /// Runs `fn` inside a span named `name` and returns what `fn` returns. The
  /// span closes on exceptions too, so a failed operation still shows.
  template <typename F>
  decltype(auto) span(std::string_view name, F&& fn) {
    if (!enabled_) return fn();
    const Closer closer{this, open(name)};
    return fn();
  }

  /// Total duration of spans named `name`; when `op` is not empty, only those
  /// inside an operation span named `op`.
  [[nodiscard]] double total(std::string_view name, std::string_view op = {}) const {
    double t = 0.0;
    for (const Span& s : spans_) {
      if (s.name == name && (op.empty() || inside(s, op))) t += s.end_s - s.start_s;
    }
    return t;
  }

  /// Number of spans recorded under top-level spans named `top`, divided by
  /// their count (the per-pass span count of a traced pass).
  [[nodiscard]] double per_top(std::string_view top) const {
    std::size_t tops = 0;
    std::size_t under = 0;
    for (const Span& s : spans_) {
      if (s.depth == 0) {
        tops += s.name == top ? 1 : 0;
      } else if (spans_[static_cast<std::size_t>(root_of(s))].name == top) {
        ++under;
      }
    }
    return tops == 0 ? 0.0 : static_cast<double>(under) / static_cast<double>(tops);
  }

  /// Prints count, total and self seconds per span name, largest self first.
  void print_self_times(std::ostream& os) const {
    struct Row {
      std::size_t count = 0;
      double total = 0.0;
      double self = 0.0;
    };
    std::map<std::string, Row> rows;
    std::vector<double> child_time(spans_.size(), 0.0);
    for (const Span& s : spans_) {
      if (s.parent >= 0) child_time[static_cast<std::size_t>(s.parent)] += s.end_s - s.start_s;
    }
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      Row& r = rows[spans_[i].name];
      const double dur = spans_[i].end_s - spans_[i].start_s;
      ++r.count;
      r.total += dur;
      r.self += dur - child_time[i];
    }
    std::vector<std::pair<std::string, Row>> sorted(rows.begin(), rows.end());
    std::sort(sorted.begin(), sorted.end(),
              [](const auto& a, const auto& b) { return a.second.self > b.second.self; });
    const std::ios_base::fmtflags flags = os.flags();
    const std::streamsize precision = os.precision();
    os << "  " << std::left << std::setw(44) << "span" << std::right << std::setw(8) << "count"
       << std::setw(12) << "total_s" << std::setw(12) << "self_s" << "\n";
    for (const auto& [name, r] : sorted) {
      os << "  " << std::left << std::setw(44) << name << std::right << std::setw(8) << r.count
         << std::setw(12) << std::fixed << std::setprecision(4) << r.total << std::setw(12)
         << r.self << "\n";
    }
    os.flags(flags);
    os.precision(precision);
  }

  /// Emits every span as a complete event on track `tid`, host microseconds
  /// as timestamps. Both ends are floored, which keeps child spans inside
  /// their parents and siblings disjoint after rounding.
  void write_trace(prof::TraceWriter& trace, int tid) const {
    for (const Span& s : spans_) {
      const auto start = static_cast<std::uint64_t>(std::floor(s.start_s * 1e6));
      const auto end = static_cast<std::uint64_t>(std::floor(s.end_s * 1e6));
      trace.event(tid, s.name, start, end - start);
    }
  }

 private:
  struct Closer {
    Spans* spans;
    int index;
    ~Closer() { spans->close(index); }
  };

  int open(std::string_view name) {
    Span s;
    s.name = std::string(name);
    s.parent = open_;
    s.depth = open_ < 0 ? 0 : spans_[static_cast<std::size_t>(open_)].depth + 1;
    s.start_s = now();
    spans_.push_back(std::move(s));
    open_ = static_cast<int>(spans_.size()) - 1;
    return open_;
  }

  void close(int index) {
    Span& s = spans_[static_cast<std::size_t>(index)];
    s.end_s = now();
    open_ = s.parent;
  }

  [[nodiscard]] int root_of(const Span& s) const {
    int i = s.parent;
    while (spans_[static_cast<std::size_t>(i)].parent >= 0) {
      i = spans_[static_cast<std::size_t>(i)].parent;
    }
    return i;
  }

  /// True when an ancestor of `s` is named `op`.
  [[nodiscard]] bool inside(const Span& s, std::string_view op) const {
    for (int i = s.parent; i >= 0; i = spans_[static_cast<std::size_t>(i)].parent) {
      if (spans_[static_cast<std::size_t>(i)].name == op) return true;
    }
    return false;
  }

  bool enabled_ = false;
  Clock::time_point epoch_;
  std::vector<Span> spans_;
  int open_ = -1;
};

}  // namespace tc::host_perf
