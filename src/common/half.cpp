#include "common/half.hpp"

#include <bit>
#include <cstring>
#include <ostream>

namespace tc {

std::uint16_t half::from_float_bits(float f) {
  const std::uint32_t x = std::bit_cast<std::uint32_t>(f);
  const std::uint32_t sign = (x >> 16) & 0x8000u;
  const std::uint32_t aexp = (x >> 23) & 0xFFu;
  const std::uint32_t aman = x & 0x7FFFFFu;

  if (aexp == 0xFF) {  // inf or NaN
    if (aman == 0) return static_cast<std::uint16_t>(sign | 0x7C00u);
    // NaN: keep the top 10 payload bits untouched so half -> float -> half
    // round-trips bit-exactly (signalling NaNs included). Only when the
    // surviving bits are all zero — which would read back as infinity — do
    // we substitute the canonical quiet NaN.
    std::uint32_t payload = aman >> 13;
    if (payload == 0) payload = 0x200u;
    return static_cast<std::uint16_t>(sign | 0x7C00u | payload);
  }

  const int e = static_cast<int>(aexp) - 127 + 15;  // rebased exponent
  if (e >= 0x1F) return static_cast<std::uint16_t>(sign | 0x7C00u);  // overflow -> inf

  // Mantissa with implicit bit, in a 24-bit field.
  std::uint32_t man = aman | (aexp != 0 ? 0x800000u : 0u);
  int shift = 13;  // bits to drop for a normal result
  int hexp = e;
  if (e <= 0) {
    // Result is subnormal (or underflows to zero): shift further right.
    shift += 1 - e;
    hexp = 0;
    if (shift > 24 + 1) return static_cast<std::uint16_t>(sign);  // -> 0
  }

  const std::uint32_t kept = man >> shift;
  const std::uint32_t round_bit = (man >> (shift - 1)) & 1u;
  const std::uint32_t sticky = (man & ((1u << (shift - 1)) - 1u)) != 0 ? 1u : 0u;

  std::uint32_t h = (static_cast<std::uint32_t>(hexp) << 10) | (kept & 0x3FFu);
  if (hexp == 0) h = kept;  // subnormal: no exponent bits, kept includes them
  // Round to nearest even, without a branch on the data. The increment may
  // carry into the exponent, which is exactly correct behaviour.
  h += round_bit & (sticky | (h & 1u));
  if (h >= 0x7C00u) h = 0x7C00u;  // rounded up to infinity
  return static_cast<std::uint16_t>(sign | h);
}

half fma_round_half(half a, half b, half c) {
  return half(std::fma(a.to_float(), b.to_float(), c.to_float()));
}

half max_half(half a, half b) {
  if (a.is_nan()) return b;
  if (b.is_nan()) return a;
  // to_float is exact, and strict `>` resolves max(-0, +0) to the second
  // operand — i.e. +0 when the zero register supplies it (ReLU flushes -0).
  return a.to_float() > b.to_float() ? a : b;
}

namespace {

/// erf via its Maclaurin series, using only double +,-,*,/ so the value is
/// bit-deterministic across hosts (std::erf is libm- and platform-dependent).
/// Absolute error stays under ~1e-6 for |x| <= 4.7, orders of magnitude below
/// half-precision resolution; beyond that erf saturates to +-1 (erfc < 1e-10).
double erf_series(double x) {
  const double ax = x < 0 ? -x : x;
  if (ax > 4.7) return x < 0 ? -1.0 : 1.0;
  const double x2 = x * x;
  double term = x;  // (-1)^n * x^(2n+1) / n!
  double sum = 0.0;
  for (int n = 0; n < 96; ++n) {
    sum += term / (2 * n + 1);
    term = -term * x2 / (n + 1);
    if (term < 1e-18 && term > -1e-18) break;
  }
  constexpr double kTwoOverSqrtPi = 1.1283791670955126;
  return sum * kTwoOverSqrtPi;
}

}  // namespace

half gelu_half(half x) {
  if (x.is_nan()) return x;
  const double xf = static_cast<double>(x.to_float());
  // Deep negative tail: the exact value is below half's smallest subnormal,
  // and the -inf*0 form would otherwise manufacture a NaN.
  if (xf <= -6.5) return half::from_bits(0x8000);  // -0
  constexpr double kInvSqrt2 = 0.7071067811865476;
  const double g = 0.5 * xf * (1.0 + erf_series(xf * kInvSqrt2));
  return half(static_cast<float>(g));
}

std::ostream& operator<<(std::ostream& os, half h) { return os << h.to_float(); }

}  // namespace tc
