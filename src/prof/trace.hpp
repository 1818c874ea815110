// Chrome-trace ("chrome://tracing" / Perfetto) timeline emission.
//
// The profiler records one track per sub-partition execution pipe, one for
// the SM-wide MIO pipe and one per warp; each issued instruction (or MIO
// service) becomes a complete event ("ph":"X"). Timestamps are SM cycles
// written as microseconds, so 1 us in the viewer = 1 simulated cycle.
// Event names are interned; the event list is capped so tracing a long run
// degrades to a truncated (never multi-GB) file.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

namespace tc::prof {

class TraceWriter {
 public:
  explicit TraceWriter(std::size_t max_events = 2'000'000);

  /// Names a track (Chrome metadata event). Tracks sort by tid.
  void track(int tid, std::string name);

  /// Records one complete event of `dur` cycles starting at `ts` cycles.
  void event(int tid, std::string_view name, std::uint64_t ts, std::uint64_t dur);

  [[nodiscard]] std::size_t size() const { return events_.size(); }
  [[nodiscard]] std::size_t dropped() const { return dropped_; }

  /// Writes the Chrome trace JSON object ({"traceEvents": [...]}).
  void write(std::ostream& os) const;
  /// write() into `path`, whole or not at all (common/write_file.hpp).
  void write_file(const std::string& path) const;

 private:
  struct Event {
    std::uint64_t ts = 0;
    std::uint32_t dur = 0;
    std::int32_t tid = 0;
    std::uint32_t name_id = 0;
  };

  std::uint32_t intern(std::string_view name);

  std::size_t max_events_;
  std::size_t dropped_ = 0;
  std::vector<Event> events_;
  std::vector<std::string> names_;
  std::unordered_map<std::string, std::uint32_t> name_ids_;
  std::vector<std::pair<int, std::string>> tracks_;
};

}  // namespace tc::prof
