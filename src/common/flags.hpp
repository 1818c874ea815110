// One command-line flag parser for tcgemm_cli and the bench binaries.
//
// A command declares each flag it takes once, as one entry of a table: the
// name, the kind of value with its range or its choices, and the default.
// Parsing, defaults, the rejection of every flag outside the table and the
// usage text all come from that table. Every value is checked while the
// command line is read, so a command rejects bad input before it does any
// work or opens any output file.
#pragma once

#include <algorithm>
#include <charconv>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/error.hpp"

namespace tc {

/// The value of numeric flag `flag`: all of `text` as a T in [lo, hi].
/// Integer flags are sizes and counts, so they take decimal digits only (no
/// sign); real flags take any finite decimal number. The error names the
/// flag and the value.
template <typename T>
T parse_number(const std::string& flag, const std::string& text,
               T lo = std::numeric_limits<T>::lowest(), T hi = std::numeric_limits<T>::max()) {
  static_assert(std::is_same_v<T, std::uint64_t> || std::is_same_v<T, double>);
  T v{};
  const char* end = text.data() + text.size();
  const auto [stop, ec] = std::from_chars(text.data(), end, v);
  if (text.empty() || ec != std::errc{} || stop != end || !(v >= lo && v <= hi)) {
    std::string want = "a finite number";
    if constexpr (std::is_integral_v<T>) {
      want = "an integer in [" + std::to_string(lo) + ", " + std::to_string(hi) + "]";
    }
    throw Error(flag + " takes " + want + ", got '" + text + "'");
  }
  return v;
}

/// One entry of a command's flag table.
struct Flag {
  enum class Kind { kSwitch, kInteger, kReal, kChoice, kPath };

  std::string name;
  Kind kind = Kind::kSwitch;
  std::string def;                   // the default value; empty for none
  std::uint64_t lo = 0, hi = 0;      // kInteger: the accepted range
  std::vector<std::string> choices;  // kChoice: the accepted values

  static Flag toggle(std::string name) { return {std::move(name), Kind::kSwitch, "", 0, 0, {}}; }
  static Flag integer(std::string name, std::uint64_t lo, std::uint64_t hi,
                      std::string def = "") {
    return {std::move(name), Kind::kInteger, std::move(def), lo, hi, {}};
  }
  static Flag real(std::string name, std::string def) {
    return {std::move(name), Kind::kReal, std::move(def), 0, 0, {}};
  }
  /// The first choice is the default.
  static Flag choice(std::string name, std::vector<std::string> choices) {
    std::string def = choices.front();
    return {std::move(name), Kind::kChoice, std::move(def), 0, 0, std::move(choices)};
  }
  static Flag path(std::string name) { return {std::move(name), Kind::kPath, "", 0, 0, {}}; }

  /// The value as the usage text shows it: the choices ("interpret|jit"),
  /// else the default ("512"), else "PATH" or "N".
  [[nodiscard]] std::string placeholder() const {
    std::string v;
    for (const auto& c : choices) v += (v.empty() ? "" : "|") + c;
    if (!v.empty()) return v;
    return !def.empty() ? def : kind == Kind::kPath ? "PATH" : "N";
  }
};

/// The usage text of `table`, "[--check] [--m 512] [--json PATH] ...",
/// wrapped at `width` columns with every line indented by `indent` spaces.
[[nodiscard]] inline std::string flags_usage(const std::vector<Flag>& table, std::size_t indent,
                                             std::size_t width = 80) {
  const std::string pad(indent, ' ');
  std::string out, line;
  for (const Flag& f : table) {
    const std::string item =
        "[" + f.name + (f.kind == Flag::Kind::kSwitch ? "" : " " + f.placeholder()) + "]";
    if (!line.empty() && pad.size() + line.size() + 1 + item.size() > width) {
      out += pad + line + "\n";
      line.clear();
    }
    line += (line.empty() ? "" : " ") + item;
  }
  return out + pad + line + "\n";
}

/// A command line parsed against one command's flag table.
class Flags {
 public:
  /// Parses argv[first, argc) against `table`. A flag outside the table, a
  /// missing value, an integer outside its range, a real that is not finite
  /// and a value outside a flag's choices each throw an Error naming
  /// `command` or the flag, and the value.
  Flags(std::string command, const std::vector<Flag>& table, int argc,
        const char* const* argv, int first = 1)
      : command_(std::move(command)) {
    for (const Flag& f : table) slots_.push_back({f, f.def});
    for (int i = first; i < argc; ++i) {
      const std::string arg = argv[i];
      const std::size_t j = index(arg);
      if (j == slots_.size()) throw Error(command_ + " does not take " + arg);
      Slot& s = slots_[j];
      s.given = true;
      if (s.flag.kind == Flag::Kind::kSwitch) continue;
      if (i + 1 == argc) throw Error("flag " + arg + " needs a value");
      s.value = argv[++i];
      const auto& c = s.flag.choices;
      if (s.flag.kind == Flag::Kind::kInteger) {
        (void)number(arg);
      } else if (s.flag.kind == Flag::Kind::kReal) {
        (void)number<double>(arg);
      } else if (!c.empty() && std::find(c.begin(), c.end(), s.value) == c.end()) {
        throw Error(arg + " takes one of " + s.flag.placeholder() + ", got '" + s.value + "'");
      }
    }
  }

  /// Whether `name` was on the command line; false for a flag outside the
  /// table, which the command line cannot hold.
  [[nodiscard]] bool given(std::string_view name) const {
    const std::size_t j = index(name);
    return j < slots_.size() && slots_[j].given;
  }
  /// Whether the table has a flag `name`.
  [[nodiscard]] bool takes(std::string_view name) const { return index(name) < slots_.size(); }
  /// The value of `name`, or its default; empty when it has neither.
  [[nodiscard]] const std::string& text(std::string_view name) const { return at(name).value; }
  /// The value of integer or real flag `name` as a T.
  template <typename T = std::uint64_t>
  [[nodiscard]] T number(std::string_view name) const {
    const Slot& s = at(name);
    if constexpr (std::is_floating_point_v<T>) {
      return static_cast<T>(parse_number<double>(s.flag.name, s.value));
    } else {
      return static_cast<T>(parse_number<std::uint64_t>(s.flag.name, s.value, s.flag.lo,
                                                        s.flag.hi));
    }
  }

 private:
  struct Slot {
    Flag flag;
    std::string value;
    bool given = false;
  };

  /// The slot of `name`; slots_.size() for a flag outside the table.
  [[nodiscard]] std::size_t index(std::string_view name) const {
    std::size_t j = 0;
    while (j < slots_.size() && slots_[j].flag.name != name) ++j;
    return j;
  }
  [[nodiscard]] const Slot& at(std::string_view name) const {
    const std::size_t j = index(name);
    TC_ASSERT(j < slots_.size(), command_ + " reads " + std::string(name) +
                                     ", which its flag table does not declare");
    return slots_[j];
  }

  std::string command_;
  std::vector<Slot> slots_;
};

}  // namespace tc
