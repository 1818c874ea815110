// Shared FNV-1a 64 hashing over half-precision buffers, used by the
// regression pins in test_equivalence.cpp and the JIT engine-axis tests:
// a pinned hash recorded under one engine must reproduce bit-for-bit under
// every other engine, so all of them must hash the same way. The word form
// pins integer counter sets (test_prof.cpp); the text form pins analysis
// output such as disassembly and diagnostics (test_sched.cpp).
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <string_view>

#include "common/half.hpp"
#include "common/matrix.hpp"

namespace tc::testsupport {

/// FNV-1a 64 over the bytes of a string.
inline std::uint64_t fnv1a(std::string_view text) {
  std::uint64_t h = 1469598103934665603ull;
  for (const char c : text) h = (h ^ static_cast<std::uint8_t>(c)) * 1099511628211ull;
  return h;
}

/// FNV-1a 64 over a half buffer's bytes (low byte of each element first).
inline std::uint64_t fnv1a_bits(const half* data, std::size_t count) {
  std::uint64_t h = 1469598103934665603ull;
  for (std::size_t i = 0; i < count; ++i) {
    const std::uint16_t b = data[i].bits();
    for (const std::uint8_t byte : {static_cast<std::uint8_t>(b & 0xFF),
                                    static_cast<std::uint8_t>(b >> 8)}) {
      h = (h ^ byte) * 1099511628211ull;
    }
  }
  return h;
}

/// FNV-1a 64 over 64-bit words, each hashed low byte first.
inline std::uint64_t fnv1a_words(std::span<const std::uint64_t> words) {
  std::uint64_t h = 1469598103934665603ull;
  for (const std::uint64_t w : words) {
    for (int byte = 0; byte < 8; ++byte) {
      h = (h ^ ((w >> (8 * byte)) & 0xFF)) * 1099511628211ull;
    }
  }
  return h;
}

/// FNV-1a 64 over the output matrix bytes.
inline std::uint64_t fnv1a_bits(const HalfMatrix& m) {
  return fnv1a_bits(m.data(), m.size());
}

}  // namespace tc::testsupport
