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

/// A finite FP16 value as sig * 2^(sh - 24): the significand carries the
/// sign, and sh is the biased exponent less one (0 for zeros and
/// subnormals). A product of two is sigA*sigB * 2^(shA + shB - 48).
struct Fixed16 {
  std::int32_t sig = 0;
  std::int32_t sh = 0;
};

Fixed16 decode16(half x) {
  const std::uint32_t bits = x.bits();
  const auto exp = static_cast<std::int32_t>((bits >> 10) & 0x1Fu);
  const auto man = static_cast<std::int32_t>(bits & 0x3FFu);
  const std::int32_t mag = exp == 0 ? man : man | 0x400;
  return {(bits & 0x8000u) != 0 ? -mag : mag, exp == 0 ? 0 : exp - 1};
}

/// Whether x is an infinity or a NaN: its exponent field is all ones.
bool inf_or_nan(half x) { return (x.bits() & 0x7C00u) == 0x7C00u; }

// ---------------------------------------------------------------------------
// F32 accumulate: fixed-point accumulation at 2^-149.
//
// Every finite term is an integer multiple of 2^-149 (the binary32 subnormal
// quantum):
//   * an FP16 value is M * 2^E with M < 2^11 and E >= -24, so an exact FP16
//     product is M1*M2 * 2^(E1+E2) with M1*M2 < 2^22 and E1+E2 in [-48, 10];
//   * a binary32 accumulator is M * 2^E with M < 2^24 and E in [-149, 104].
// At scale 2^-149 the largest shift is 104 + 149 = 253 and the largest
// magnitude 2^24, so nine terms fit in 253 + 24 + 4 = 281 bits. A 320-bit
// (5 x 64) two's-complement accumulator therefore holds the fused sum
// EXACTLY, and rounding happens exactly once, at the end of the step.
// ---------------------------------------------------------------------------

constexpr int kScalePow = 149;  // accumulator unit is 2^-149
constexpr int kProductBit = kScalePow - 48;  // where 2^-48, the product unit, sits
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

  /// Two's-complement magnitude (valid because |sum| < 2^281 << 2^319).
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

/// A binary32 accumulator as sign * mag * 2^(shift - 149).
struct Term {
  std::uint64_t mag = 0;
  int shift = 0;
  bool neg = false;
};

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

/// Rounds a nonzero exact sum to binary32. `sign` is the sign of the sum; an
/// exactly-zero sum is handled by the caller (IEEE zero-sign rules).
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

// ---------------------------------------------------------------------------
// F16 accumulate: one signed 128-bit integer at 2^-48.
//
// With a binary16 accumulator every finite term is an integer multiple of
// 2^-48, the quantum of a product of two FP16 subnormals:
//   * an FP16 value is sig * 2^(sh - 24) with |sig| < 2^11 and sh in
//     [0, 29] (Fixed16), so an exact product is sigA*sigB * 2^(shA + shB -
//     48): at unit 2^-48 a magnitude below 2^22 shifted left by at most 58
//     bits, so below 2^80;
//   * the accumulator is at most 65504 < 2^16, so below 2^64 at that unit.
// Eight products and the accumulator therefore stay below 2^84, and one
// two's-complement 128-bit integer holds the fused sum EXACTLY. The sum is
// kept in `unsigned __int128`, whose wrap-around arithmetic is defined, and
// read as signed at the end.
// ---------------------------------------------------------------------------

using Sum16 = unsigned __int128;

/// c + a[0]*b[0] + ... + a[n-1]*b[n-1] of finite operands, exact, at unit
/// 2^-48.
Sum16 sum16(Fixed16 c, const Fixed16* a, const Fixed16* b, int n) {
  Sum16 s = static_cast<Sum16>(static_cast<__int128>(c.sig)) << (c.sh + 24);
  for (int i = 0; i < n; ++i) {
    const std::int64_t p = static_cast<std::int64_t>(a[i].sig) * b[i].sig;
    s += static_cast<Sum16>(static_cast<__int128>(p)) << (a[i].sh + b[i].sh);
  }
  return s;
}

/// Rounds a nonzero exact sum (|sum| < 2^84 at unit 2^-48) to binary16 bits
/// with round-to-nearest-even; subnormal results flush only under FTZ.
std::uint16_t round16(Sum16 sum, const GenerationModel& model) {
  // Branch-free where the data decides (the sign and the rounding): both
  // are coin flips on GEMM data, so a branch on either mispredicts often.
  const auto neg = static_cast<std::uint32_t>(sum >> 127);
  const Sum16 mask = -static_cast<Sum16>(neg);
  const Sum16 mag = (sum ^ mask) - mask;
  const auto sbit = static_cast<std::uint16_t>(neg << 15);
  const auto hi = static_cast<std::uint64_t>(mag >> 64);
  const auto lo = static_cast<std::uint64_t>(mag);
  std::uint32_t h;
  if (hi == 0 && lo < (std::uint64_t{1} << 34)) {
    // Below 2^-14, the binary16 subnormal range: the quantum 2^-24 is bit 24.
    // An RNE carry into 0x400 is exactly the minimum normal.
    h = static_cast<std::uint32_t>(lo >> 24);
    const std::uint64_t rest = lo & 0xFFFFFFu;
    h += static_cast<std::uint32_t>(rest > 0x800000u) |
         (static_cast<std::uint32_t>(rest == 0x800000u) & h);
  } else {
    // Normalize the top bit to bit 127: the 11 kept bits are then bits
    // 127..117, and everything below decides the rounding.
    const int lz = hi != 0 ? std::countl_zero(hi) : 64 + std::countl_zero(lo);
    const Sum16 x = mag << lz;
    int e = 79 - lz;  // the value is in [2^e, 2^(e+1)): bit 127 - lz at unit 2^-48
    auto kept = static_cast<std::uint32_t>(x >> 117);
    const Sum16 rest = x << 11;
    const Sum16 halfway = Sum16{1} << 127;
    kept += static_cast<std::uint32_t>(rest > halfway) |
            (static_cast<std::uint32_t>(rest == halfway) & kept);
    const std::uint32_t carry = kept >> 11;  // rounded up to 2^11: renormalize
    kept >>= carry;
    e += static_cast<int>(carry);
    if (e > 15) return sbit | 0x7C00u;  // RNE overflow to infinity
    h = (static_cast<std::uint32_t>(e + 15) << 10) | (kept & 0x3FFu);
  }
  if (model.f16_ftz_out && (h & 0x7C00u) == 0) h = 0;  // flush subnormal outputs
  return static_cast<std::uint16_t>(sbit | h);
}

/// The step result of finite operands from their exact sum. A zero sum is
/// -0 only when every term is a negative zero (IEEE addition); exact
/// cancellation gives +0.
half finish16(Sum16 sum, half c, const half* a, const half* b, int n,
              const GenerationModel& model) {
  if (sum != 0) return half::from_bits(round16(sum, model));
  if (c.bits() != 0x8000u) return half::from_bits(0);
  for (int i = 0; i < n; ++i) {
    if (!(a[i].is_zero() || b[i].is_zero()) || a[i].signbit() == b[i].signbit()) {
      return half::from_bits(0);
    }
  }
  return half::from_bits(0x8000u);
}

// ---------------------------------------------------------------------------
// Special-value scan. The unit resolves NaN and infinity structurally, not
// arithmetically; the F16 step runs it only when some operand is one.
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

/// The F16 step when some operand is an infinity or a NaN.
half special16(half c, const half* a, const half* b, int n, const GenerationModel& model) {
  StepScan scan;
  if (c.is_nan()) {
    scan.nan = true;
  } else if (c.is_inf()) {
    (c.signbit() ? scan.neg_inf : scan.pos_inf) = true;
  }
  for (int i = 0; i < n; ++i) scan_product(a[i], b[i], scan);
  if (scan.nan || (scan.pos_inf && scan.neg_inf)) return half::from_bits(model.qnan16);
  TC_ASSERT(scan.pos_inf || scan.neg_inf, "special F16 step without an infinity or a NaN");
  return half::from_bits(scan.neg_inf ? std::uint16_t{0xFC00} : std::uint16_t{0x7C00});
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
      // Exact product: significands multiply (below 2^22 in magnitude) and
      // exponents add.
      const Fixed16 fa = decode16(a[i]);
      const Fixed16 fb = decode16(b[i]);
      const std::int64_t p = static_cast<std::int64_t>(fa.sig) * fb.sig;
      acc.add(static_cast<std::uint64_t>(p < 0 ? -p : p), fa.sh + fb.sh + kProductBit, p < 0);
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
  bool special = inf_or_nan(c);
  for (int i = 0; i < n; ++i) special = special || inf_or_nan(a[i]) || inf_or_nan(b[i]);
  if (special) return special16(c, a, b, n, model);
  Fixed16 fa[8];
  Fixed16 fb[8];
  for (int i = 0; i < n; ++i) {
    fa[i] = decode16(a[i]);
    fb[i] = decode16(b[i]);
  }
  return finish16(sum16(decode16(c), fa, fb, n), c, a, b, n, model);
}

namespace {

/// The idealized chunk sum, in exactly one compiled copy. x86 returns one
/// operand's payload from a NaN-in, NaN-out add or multiply, chosen by
/// operand order in the emitted code, so two separately compiled copies of
/// this loop may legally disagree on NaN inputs (docs/jit.md, "The x86 NaN
/// trap"). `noipa`, not just `noinline`: a caller passing a constant n
/// would otherwise get its own constant-propagated clone.
[[gnu::noipa]] float idealized_sum(float c, const float* a, const float* b, int n) {
  for (int i = 0; i < n; ++i) c += a[i] * b[i];
  return c;
}

/// idealized_sum over n <= 8 halves, widened exactly first.
float idealized_dot(float c, const half* a, const half* b, int n) {
  float fa[8];
  float fb[8];
  for (int i = 0; i < n; ++i) {
    fa[i] = a[i].to_float();
    fb[i] = b[i].to_float();
  }
  return idealized_sum(c, fa, fb, n);
}

}  // namespace

float dot_f32(NumericsMode mode, float c, const half* a, const half* b, int n) {
  TC_ASSERT(n >= 0 && n <= 8, "dot width out of range");
  if (mode == NumericsMode::kIdealized) return idealized_dot(c, a, b, n);
  const GenerationModel model = turing_model();
  for (int kk = 0; kk < n; kk += model.terms_per_step) {
    c = fdp_step_f32(c, a + kk, b + kk, std::min(model.terms_per_step, n - kk), model);
  }
  return c;
}

half dot_f16(NumericsMode mode, half c, const half* a, const half* b, int n) {
  TC_ASSERT(n >= 0 && n <= 8, "dot width out of range");
  if (mode == NumericsMode::kIdealized) return half(idealized_dot(c.to_float(), a, b, n));
  const GenerationModel model = turing_model();
  for (int kk = 0; kk < n; kk += model.terms_per_step) {
    c = fdp_step_f16(c, a + kk, b + kk, std::min(model.terms_per_step, n - kk), model);
  }
  return c;
}

void dot_f16_block(NumericsMode mode, const half* c, const half* a, const half* b, half* d) {
  if (mode == NumericsMode::kIdealized) {
    float fa[64];
    float fb[64];
    for (int i = 0; i < 64; ++i) {
      fa[i] = a[i].to_float();
      fb[i] = b[i].to_float();
    }
    for (int i = 0; i < 8; ++i) {
      for (int j = 0; j < 8; ++j) {
        const int ij = i * 8 + j;
        d[ij] = half(idealized_sum(c[ij].to_float(), fa + i * 8, fb + j * 8, 8));
      }
    }
    return;
  }
  constexpr GenerationModel model = turing_model();
  constexpr int kTerms = model.terms_per_step;
  constexpr int kSteps = 8 / kTerms;
  static_assert(kSteps * kTerms == 8, "the steps must tile the 8-long rows");
  Fixed16 fa[64];
  Fixed16 fb[64];
  bool special_a[8][kSteps] = {};  // row i of A has an inf or NaN in step s
  bool special_b[8][kSteps] = {};
  for (int i = 0; i < 64; ++i) {
    fa[i] = decode16(a[i]);
    fb[i] = decode16(b[i]);
    special_a[i / 8][i % 8 / kTerms] |= inf_or_nan(a[i]);
    special_b[i / 8][i % 8 / kTerms] |= inf_or_nan(b[i]);
  }
  for (int i = 0; i < 8; ++i) {
    for (int j = 0; j < 8; ++j) {
      half acc = c[i * 8 + j];
      for (int s = 0; s < kSteps; ++s) {
        const int ka = i * 8 + s * kTerms;
        const int kb = j * 8 + s * kTerms;
        if (special_a[i][s] || special_b[j][s] || inf_or_nan(acc)) {
          acc = special16(acc, a + ka, b + kb, kTerms, model);
        } else {
          acc = finish16(sum16(decode16(acc), fa + ka, fb + kb, kTerms), acc, a + ka, b + kb,
                         kTerms, model);
        }
      }
      d[i * 8 + j] = acc;
    }
  }
}

}  // namespace tc::numerics
