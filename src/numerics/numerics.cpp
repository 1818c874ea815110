#include "numerics/numerics.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <cstring>

#include "common/error.hpp"

namespace tc::numerics {

const char* numerics_mode_name(NumericsMode mode) {
  return mode == NumericsMode::kBitAccurate ? "bitaccurate" : "idealized";
}

bool parse_numerics_mode(std::string_view name, NumericsMode& out) {
  if (name == "idealized") {
    out = NumericsMode::kIdealized;
    return true;
  }
  if (name == "bitaccurate") {
    out = NumericsMode::kBitAccurate;
    return true;
  }
  return false;
}

namespace {

// ---------------------------------------------------------------------------
// Fixed-point accumulation.
//
// Every finite term is an integer multiple of 2^-149 (the binary32 subnormal
// quantum):
//   * an FP16 value is M * 2^E with M < 2^11 and E >= -24, so an exact FP16
//     product is M1*M2 * 2^(E1+E2) with M1*M2 < 2^22 and E1+E2 in [-48, 10];
//   * a binary32 accumulator is M * 2^E with M < 2^24 and E in [-149, 104].
// At scale 2^-149 the largest shift is 104 + 149 = 253 and the largest
// magnitude 2^24, so five terms fit in 253 + 24 + 3 = 280 bits. A 320-bit
// (5 x 64) two's-complement accumulator therefore holds the fused sum
// EXACTLY, and rounding happens exactly once, at the end of the step.
// ---------------------------------------------------------------------------

constexpr int kScalePow = 149;  // accumulator unit is 2^-149
constexpr int kLimbs = 5;

struct Acc320 {
  std::array<std::uint64_t, kLimbs> w{};  // little-endian two's complement

  /// Adds (neg ? -1 : +1) * mag * 2^shift; mag < 2^48, 0 <= shift <= 253.
  void add(std::uint64_t mag, int shift, bool neg) {
    if (mag == 0) return;
    const int limb = shift >> 6;
    const int off = shift & 63;
    const unsigned __int128 v = static_cast<unsigned __int128>(mag) << off;
    const std::uint64_t part[2] = {static_cast<std::uint64_t>(v),
                                   static_cast<std::uint64_t>(v >> 64)};
    if (!neg) {
      unsigned __int128 carry = 0;
      for (int i = limb; i < kLimbs; ++i) {
        const unsigned __int128 s = static_cast<unsigned __int128>(w[static_cast<std::size_t>(i)]) +
                                    (i - limb < 2 ? part[i - limb] : 0) + carry;
        w[static_cast<std::size_t>(i)] = static_cast<std::uint64_t>(s);
        carry = s >> 64;
      }
    } else {
      std::uint64_t borrow = 0;
      for (int i = limb; i < kLimbs; ++i) {
        const __int128 s = static_cast<__int128>(w[static_cast<std::size_t>(i)]) -
                           static_cast<__int128>(i - limb < 2 ? part[i - limb] : 0) -
                           static_cast<__int128>(borrow);
        w[static_cast<std::size_t>(i)] = static_cast<std::uint64_t>(s);
        borrow = s < 0 ? 1 : 0;
      }
    }
  }

  [[nodiscard]] bool is_zero() const {
    for (const std::uint64_t limb : w) {
      if (limb != 0) return false;
    }
    return true;
  }

  [[nodiscard]] bool negative() const { return (w[kLimbs - 1] >> 63) != 0; }

  /// Two's-complement magnitude (valid because |sum| < 2^280 << 2^319).
  [[nodiscard]] std::array<std::uint64_t, kLimbs> magnitude() const {
    std::array<std::uint64_t, kLimbs> m = w;
    if (negative()) {
      unsigned __int128 carry = 1;
      for (std::uint64_t& limb : m) {
        const unsigned __int128 s = static_cast<unsigned __int128>(~limb) + carry;
        limb = static_cast<std::uint64_t>(s);
        carry = s >> 64;
      }
    }
    return m;
  }
};

using Mag = std::array<std::uint64_t, kLimbs>;

/// Index of the highest set bit, or -1 when zero.
int top_bit(const Mag& m) {
  for (int i = kLimbs - 1; i >= 0; --i) {
    const std::uint64_t limb = m[static_cast<std::size_t>(i)];
    if (limb != 0) return i * 64 + (63 - std::countl_zero(limb));
  }
  return -1;
}

/// floor(m / 2^pos) masked to `count` bits (count <= 57, pos >= 0).
std::uint64_t bits_at(const Mag& m, int pos, int count) {
  const int limb = pos >> 6;
  const int off = pos & 63;
  std::uint64_t lo = limb < kLimbs ? m[static_cast<std::size_t>(limb)] >> off : 0;
  if (off != 0 && limb + 1 < kLimbs) lo |= m[static_cast<std::size_t>(limb + 1)] << (64 - off);
  return lo & ((std::uint64_t{1} << count) - 1);
}

bool bit_at(const Mag& m, int pos) { return bits_at(m, pos, 1) != 0; }

/// True when any bit strictly below `pos` is set.
bool sticky_below(const Mag& m, int pos) {
  const int limb = pos >> 6;
  const int off = pos & 63;
  for (int i = 0; i < limb && i < kLimbs; ++i) {
    if (m[static_cast<std::size_t>(i)] != 0) return true;
  }
  if (off != 0 && limb < kLimbs) {
    if ((m[static_cast<std::size_t>(limb)] & ((std::uint64_t{1} << off) - 1)) != 0) return true;
  }
  return false;
}

// ---------------------------------------------------------------------------
// Term decoding. A term is sign * mag * 2^(shift - 149).
// ---------------------------------------------------------------------------

struct Term {
  std::uint64_t mag = 0;
  int shift = 0;
  bool neg = false;
};

Term decode_half(std::uint16_t bits) {
  Term t;
  t.neg = (bits & 0x8000u) != 0;
  const std::uint32_t exp = (bits >> 10) & 0x1Fu;
  const std::uint32_t man = bits & 0x3FFu;
  if (exp == 0) {
    t.mag = man;                 // subnormal: man * 2^-24
    t.shift = kScalePow - 24;
  } else {
    t.mag = man | 0x400u;        // normal: (1024 + man) * 2^(exp - 25)
    t.shift = kScalePow + static_cast<int>(exp) - 25;
  }
  return t;
}

Term decode_float(float f) {
  std::uint32_t bits;
  std::memcpy(&bits, &f, 4);
  Term t;
  t.neg = (bits >> 31) != 0;
  const std::uint32_t exp = (bits >> 23) & 0xFFu;
  const std::uint32_t man = bits & 0x7FFFFFu;
  if (exp == 0) {
    t.mag = man;                 // subnormal: man * 2^-149
    t.shift = 0;
  } else {
    t.mag = man | 0x800000u;     // normal: (2^23 + man) * 2^(exp - 150)
    t.shift = static_cast<int>(exp) - 1;
  }
  return t;
}

// ---------------------------------------------------------------------------
// Rounding the exact sum. `sign` is the sign to apply to a nonzero result;
// an exactly-zero sum is handled by the callers (IEEE zero-sign rules).
// ---------------------------------------------------------------------------

std::uint32_t round_f32_bits(const Mag& m, bool sign, const GenerationModel& model) {
  const std::uint32_t sbit = sign ? 0x80000000u : 0u;
  const int msb = top_bit(m);
  TC_ASSERT(msb >= 0, "round_f32_bits on zero magnitude");
  int e = msb - kScalePow;  // value in [2^e, 2^(e+1))
  if (e < -126) {
    // Subnormal: the accumulator unit IS the binary32 subnormal quantum, so
    // the value is exactly representable (msb <= 22 here).
    return sbit | static_cast<std::uint32_t>(m[0]);
  }
  const int sh = msb - 23;
  std::uint32_t kept = static_cast<std::uint32_t>(bits_at(m, sh, 24));
  if (!model.f32_round_rz && sh > 0) {
    const bool round = bit_at(m, sh - 1);
    const bool sticky = sticky_below(m, sh - 1);
    if (round && (sticky || (kept & 1u))) {
      ++kept;
      if (kept == (1u << 24)) {
        kept = 1u << 23;
        ++e;
      }
    }
  }
  if (e > 127) {
    // RZ saturates to the largest finite value; RNE overflows to infinity.
    if (model.f32_round_rz) return sbit | 0x7F7FFFFFu;
    return sbit | 0x7F800000u;
  }
  return sbit | (static_cast<std::uint32_t>(e + 127) << 23) | (kept & 0x7FFFFFu);
}

std::uint16_t round_f16_bits(const Mag& m, bool sign, const GenerationModel& model) {
  const std::uint16_t sbit = sign ? 0x8000u : 0u;
  const int msb = top_bit(m);
  TC_ASSERT(msb >= 0, "round_f16_bits on zero magnitude");
  int e = msb - kScalePow;
  std::uint32_t kept;
  std::uint16_t h;
  if (e >= -14) {
    const int sh = msb - 10;  // keep 11 bits including the implicit one
    kept = static_cast<std::uint32_t>(bits_at(m, sh, 11));
    const bool round = sh > 0 && bit_at(m, sh - 1);
    const bool sticky = sh > 0 && sticky_below(m, sh - 1);
    if (round && (sticky || (kept & 1u))) {
      ++kept;
      if (kept == (1u << 11)) {
        kept = 1u << 10;
        ++e;
      }
    }
    if (e > 15) return sbit | 0x7C00u;  // RNE overflow to infinity
    h = static_cast<std::uint16_t>((static_cast<std::uint32_t>(e + 15) << 10) | (kept & 0x3FFu));
  } else {
    // Subnormal: quantum 2^-24 sits at accumulator bit 125 (msb <= 134 here,
    // so `kept` < 2^10; an RNE carry into 0x400 is exactly the minimum
    // normal and needs no special case).
    kept = static_cast<std::uint32_t>(bits_at(m, 125, 11));
    const bool round = bit_at(m, 124);
    const bool sticky = sticky_below(m, 124);
    if (round && (sticky || (kept & 1u))) ++kept;
    h = static_cast<std::uint16_t>(kept);
  }
  if (model.f16_ftz_out && (h & 0x7C00u) == 0) h = 0;  // flush subnormal outputs
  return sbit | h;
}

// ---------------------------------------------------------------------------
// Special-value scan (performed before any accumulation, as the unit
// resolves NaN/infinity structurally, not arithmetically).
// ---------------------------------------------------------------------------

struct StepScan {
  bool nan = false;
  bool pos_inf = false;
  bool neg_inf = false;
  bool all_zero = true;   // every term is a signed zero...
  bool all_neg = true;    // ...and every one of them is negative
};

void scan_product(half a, half b, StepScan& s) {
  const bool a_inf = a.is_inf();
  const bool b_inf = b.is_inf();
  if (a.is_nan() || b.is_nan() || (a_inf && b.is_zero()) || (b_inf && a.is_zero())) {
    s.nan = true;
    return;
  }
  if (a_inf || b_inf) {
    const bool neg = a.signbit() != b.signbit();
    (neg ? s.neg_inf : s.pos_inf) = true;
    s.all_zero = false;
    return;
  }
  if (a.is_zero() || b.is_zero()) {
    s.all_neg = s.all_neg && (a.signbit() != b.signbit());
  } else {
    s.all_zero = false;
  }
}

}  // namespace

float fdp_step_f32(float c, const half* a, const half* b, int n, const GenerationModel& model) {
  TC_ASSERT(n >= 0 && n <= 8, "fdp step width out of range");
  std::uint32_t cbits;
  std::memcpy(&cbits, &c, 4);

  StepScan scan;
  if ((cbits & 0x7F800000u) == 0x7F800000u) {
    if ((cbits & 0x7FFFFFu) != 0) {
      scan.nan = true;
    } else {
      ((cbits >> 31) != 0 ? scan.neg_inf : scan.pos_inf) = true;
      scan.all_zero = false;
    }
  } else if ((cbits & 0x7FFFFFFFu) == 0) {
    scan.all_neg = scan.all_neg && (cbits >> 31) != 0;
  } else {
    scan.all_zero = false;
  }
  for (int i = 0; i < n; ++i) scan_product(a[i], b[i], scan);

  float out;
  std::uint32_t obits;
  if (scan.nan || (scan.pos_inf && scan.neg_inf)) {
    obits = model.qnan32;
  } else if (scan.pos_inf || scan.neg_inf) {
    obits = scan.neg_inf ? 0xFF800000u : 0x7F800000u;
  } else {
    Acc320 acc;
    {
      const Term t = decode_float(c);
      acc.add(t.mag, t.shift, t.neg);
    }
    for (int i = 0; i < n; ++i) {
      const Term ta = decode_half(a[i].bits());
      const Term tb = decode_half(b[i].bits());
      // Exact product: magnitudes multiply (< 2^22), scales add. Both
      // decode at scale 2^-149, so re-center the product's shift once.
      acc.add(ta.mag * tb.mag, ta.shift + tb.shift - kScalePow, ta.neg != tb.neg);
    }
    if (acc.is_zero()) {
      // Exact cancellation gives +0; an all-(-0) term list gives -0.
      obits = (scan.all_zero && scan.all_neg) ? 0x80000000u : 0u;
    } else {
      obits = round_f32_bits(acc.magnitude(), acc.negative(), model);
    }
  }
  std::memcpy(&out, &obits, 4);
  return out;
}

half fdp_step_f16(half c, const half* a, const half* b, int n, const GenerationModel& model) {
  TC_ASSERT(n >= 0 && n <= 8, "fdp step width out of range");
  StepScan scan;
  if (c.is_nan()) {
    scan.nan = true;
  } else if (c.is_inf()) {
    (c.signbit() ? scan.neg_inf : scan.pos_inf) = true;
    scan.all_zero = false;
  } else if (c.is_zero()) {
    scan.all_neg = scan.all_neg && c.signbit();
  } else {
    scan.all_zero = false;
  }
  for (int i = 0; i < n; ++i) scan_product(a[i], b[i], scan);

  if (scan.nan || (scan.pos_inf && scan.neg_inf)) return half::from_bits(model.qnan16);
  if (scan.pos_inf || scan.neg_inf) {
    return half::from_bits(scan.neg_inf ? std::uint16_t{0xFC00} : std::uint16_t{0x7C00});
  }

  Acc320 acc;
  {
    const Term t = decode_half(c.bits());
    acc.add(t.mag, t.shift, t.neg);
  }
  for (int i = 0; i < n; ++i) {
    const Term ta = decode_half(a[i].bits());
    const Term tb = decode_half(b[i].bits());
    acc.add(ta.mag * tb.mag, ta.shift + tb.shift - kScalePow, ta.neg != tb.neg);
  }
  if (acc.is_zero()) {
    return half::from_bits((scan.all_zero && scan.all_neg) ? std::uint16_t{0x8000}
                                                           : std::uint16_t{0});
  }
  return half::from_bits(round_f16_bits(acc.magnitude(), acc.negative(), model));
}

namespace {

/// The idealized chunk sum, in exactly one compiled copy. x86 returns one
/// operand's payload from a NaN-in, NaN-out add or multiply, chosen by
/// operand order in the emitted code, so two separately inlined copies of
/// this loop may legally disagree on NaN inputs (docs/jit.md, "The x86 NaN
/// trap").
[[gnu::noinline]] float idealized_sum(float c, const half* a, const half* b, int n) {
  for (int i = 0; i < n; ++i) c += a[i].to_float() * b[i].to_float();
  return c;
}

}  // namespace

float dot_f32(NumericsMode mode, float c, const half* a, const half* b, int n) {
  TC_ASSERT(n >= 0 && n <= 8, "dot width out of range");
  if (mode == NumericsMode::kIdealized) return idealized_sum(c, a, b, n);
  const GenerationModel model = turing_model();
  for (int kk = 0; kk < n; kk += model.terms_per_step) {
    c = fdp_step_f32(c, a + kk, b + kk, std::min(model.terms_per_step, n - kk), model);
  }
  return c;
}

half dot_f16(NumericsMode mode, half c, const half* a, const half* b, int n) {
  TC_ASSERT(n >= 0 && n <= 8, "dot width out of range");
  if (mode == NumericsMode::kIdealized) return half(idealized_sum(c.to_float(), a, b, n));
  const GenerationModel model = turing_model();
  for (int kk = 0; kk < n; kk += model.terms_per_step) {
    c = fdp_step_f16(c, a + kk, b + kk, std::min(model.terms_per_step, n - kk), model);
  }
  return c;
}

}  // namespace tc::numerics
