#include "prof/trace.hpp"

#include <ostream>
#include <sstream>
#include <utility>

#include "common/write_file.hpp"

namespace tc::prof {

TraceWriter::TraceWriter(std::size_t max_events) : max_events_(max_events) {}

void TraceWriter::track(int tid, std::string name) {
  tracks_.emplace_back(tid, std::move(name));
}

std::uint32_t TraceWriter::intern(std::string_view name) {
  if (auto it = name_ids_.find(std::string(name)); it != name_ids_.end()) return it->second;
  const auto id = static_cast<std::uint32_t>(names_.size());
  names_.emplace_back(name);
  name_ids_.emplace(names_.back(), id);
  return id;
}

void TraceWriter::event(int tid, std::string_view name, std::uint64_t ts, std::uint64_t dur) {
  if (events_.size() >= max_events_) {
    ++dropped_;
    return;
  }
  events_.push_back({ts, static_cast<std::uint32_t>(dur), tid, intern(name)});
}

namespace {

void write_escaped(std::ostream& os, std::string_view s) {
  for (const char c : s) {
    switch (c) {
      case '"': os << "\\\""; break;
      case '\\': os << "\\\\"; break;
      case '\n': os << "\\n"; break;
      default: os << c; break;
    }
  }
}

}  // namespace

void TraceWriter::write(std::ostream& os) const {
  os << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  bool first = true;
  for (const auto& [tid, name] : tracks_) {
    if (!first) os << ",";
    first = false;
    os << "{\"ph\":\"M\",\"pid\":0,\"tid\":" << tid
       << ",\"name\":\"thread_name\",\"args\":{\"name\":\"";
    write_escaped(os, name);
    os << "\"}}";
    os << ",{\"ph\":\"M\",\"pid\":0,\"tid\":" << tid
       << ",\"name\":\"thread_sort_index\",\"args\":{\"sort_index\":" << tid << "}}";
  }
  for (const auto& ev : events_) {
    if (!first) os << ",";
    first = false;
    os << "\n{\"ph\":\"X\",\"pid\":0,\"tid\":" << ev.tid << ",\"ts\":" << ev.ts
       << ",\"dur\":" << ev.dur << ",\"name\":\"";
    write_escaped(os, names_[ev.name_id]);
    os << "\"}";
  }
  os << "\n]}\n";
}

void TraceWriter::write_file(const std::string& path) const {
  std::ostringstream os;
  write(os);
  tc::write_file(path, std::move(os).str());
}

}  // namespace tc::prof
