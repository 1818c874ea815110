// IEEE 754 binary16 ("half") implemented in software.
//
// Turing Tensor Cores consume FP16 operands; this type is the element type of
// every simulated matrix and register in tcgemm. Conversions are bit-exact:
// float -> half uses round-to-nearest-even including subnormals, overflow to
// infinity, and NaN preservation; half -> float is exact. Arithmetic is
// performed by converting to float, operating, and rounding back — the same
// semantics as scalar HADD/HMUL on the device.
#pragma once

#include <bit>
#include <cmath>
#include <cstdint>
#include <iosfwd>
#include <limits>

namespace tc {

/// IEEE binary16 value. POD, 2 bytes, safe to memcpy into simulated memory.
class half {
 public:
  constexpr half() = default;

  /// Converts from float with round-to-nearest-even.
  explicit half(float f) : bits_(from_float_bits(f)) {}

  /// Reinterprets a raw 16-bit pattern as a half.
  static constexpr half from_bits(std::uint16_t b) {
    half h;
    h.bits_ = b;
    return h;
  }

  /// Exact widening conversion. NaN payloads and signs carry over.
  [[nodiscard]] float to_float() const {
    const std::uint32_t sign = static_cast<std::uint32_t>(bits_ & 0x8000u) << 16;
    const std::uint32_t exp = (bits_ >> 10) & 0x1Fu;
    const std::uint32_t man = bits_ & 0x3FFu;
    std::uint32_t out;
    if (exp == 0x1F) {
      out = sign | 0x7F800000u | (man << 13);  // inf / NaN
    } else if (exp != 0) {
      out = sign | ((exp - 15 + 127) << 23) | (man << 13);
    } else if (man == 0) {
      out = sign;  // signed zero
    } else {
      // Subnormal man * 2^-24 with its top bit at `top`: normal in binary32,
      // with the bits below `top` as its fraction.
      const int top = 31 - std::countl_zero(man);
      out = sign | (static_cast<std::uint32_t>(top + 103) << 23) |
            ((man << (23 - top)) & 0x7FFFFFu);
    }
    return std::bit_cast<float>(out);
  }
  explicit operator float() const { return to_float(); }

  [[nodiscard]] constexpr std::uint16_t bits() const { return bits_; }

  [[nodiscard]] bool is_nan() const {
    return (bits_ & 0x7C00u) == 0x7C00u && (bits_ & 0x03FFu) != 0;
  }
  [[nodiscard]] bool is_inf() const { return (bits_ & 0x7FFFu) == 0x7C00u; }
  [[nodiscard]] bool is_zero() const { return (bits_ & 0x7FFFu) == 0; }
  [[nodiscard]] bool signbit() const { return (bits_ & 0x8000u) != 0; }

  /// Round-to-nearest-even conversion of a float to binary16 bits.
  static std::uint16_t from_float_bits(float f);

  friend bool operator==(half a, half b) {
    if (a.is_nan() || b.is_nan()) return false;
    if (a.is_zero() && b.is_zero()) return true;  // +0 == -0
    return a.bits_ == b.bits_;
  }
  friend bool operator!=(half a, half b) { return !(a == b); }
  friend bool operator<(half a, half b) { return a.to_float() < b.to_float(); }
  friend bool operator<=(half a, half b) { return a.to_float() <= b.to_float(); }
  friend bool operator>(half a, half b) { return a.to_float() > b.to_float(); }
  friend bool operator>=(half a, half b) { return a.to_float() >= b.to_float(); }

  friend half operator+(half a, half b) { return half(a.to_float() + b.to_float()); }
  friend half operator-(half a, half b) { return half(a.to_float() - b.to_float()); }
  friend half operator*(half a, half b) { return half(a.to_float() * b.to_float()); }
  friend half operator/(half a, half b) { return half(a.to_float() / b.to_float()); }
  friend half operator-(half a) { return from_bits(static_cast<std::uint16_t>(a.bits_ ^ 0x8000u)); }

  half& operator+=(half o) { return *this = *this + o; }
  half& operator-=(half o) { return *this = *this - o; }
  half& operator*=(half o) { return *this = *this * o; }

 private:
  std::uint16_t bits_ = 0;
};

static_assert(sizeof(half) == 2, "half must be exactly 2 bytes");

/// Fused multiply-add in FP32 then rounded once to FP16: the rounding model of
/// HFMA2 and of the .F16 Tensor Core accumulate step used by this simulator.
half fma_round_half(half a, half b, half c);

/// IEEE-754 maxNum over halves: a NaN input yields the other operand, and
/// max(-0, +0) is +0 — which makes HMAX2 against RZ an exact ReLU.
half max_half(half a, half b);

/// Exact GELU (0.5*x*(1+erf(x/sqrt(2)))) evaluated in double precision with a
/// series-based erf (no libm transcendentals, so the result is bit-identical
/// across hosts) and rounded once to half: the semantics of HGELU2, the
/// simulator's model of the device's MUFU-based epilogue sequence.
half gelu_half(half x);

std::ostream& operator<<(std::ostream& os, half h);

/// Two packed halves — the contents of one 32-bit register lane holding FP16
/// data (lo = element 0, hi = element 1), matching the device's half2 packing.
struct half2 {
  half lo;
  half hi;

  constexpr half2() = default;
  half2(half l, half h) : lo(l), hi(h) {}

  /// Packs into the 32-bit register image (lo in bits [15:0]).
  [[nodiscard]] std::uint32_t pack() const {
    return static_cast<std::uint32_t>(lo.bits()) |
           (static_cast<std::uint32_t>(hi.bits()) << 16);
  }
  static half2 unpack(std::uint32_t word) {
    return {half::from_bits(static_cast<std::uint16_t>(word & 0xFFFFu)),
            half::from_bits(static_cast<std::uint16_t>(word >> 16))};
  }
};

}  // namespace tc

namespace std {
template <>
class numeric_limits<tc::half> {
 public:
  static constexpr bool is_specialized = true;
  static constexpr bool is_signed = true;
  static constexpr bool is_integer = false;
  static constexpr bool is_exact = false;
  static constexpr bool has_infinity = true;
  static constexpr bool has_quiet_NaN = true;
  static constexpr int digits = 11;        // implicit bit + 10 mantissa bits
  static constexpr int max_exponent = 16;  // 2^15 < max < 2^16
  static constexpr int min_exponent = -13;
  static tc::half max() { return tc::half::from_bits(0x7BFF); }        // 65504
  static tc::half min() { return tc::half::from_bits(0x0400); }        // 2^-14
  static tc::half denorm_min() { return tc::half::from_bits(0x0001); }  // 2^-24
  static tc::half lowest() { return tc::half::from_bits(0xFBFF); }
  static tc::half epsilon() { return tc::half::from_bits(0x1400); }  // 2^-10
  static tc::half infinity() { return tc::half::from_bits(0x7C00); }
  static tc::half quiet_NaN() { return tc::half::from_bits(0x7E00); }
};
}  // namespace std
