// Conformance suite for the bit-accurate HMMA numerics engine (ISSUE 8).
//
// Three layers, labelled numerics_smoke in CTest:
//
//  1. Hand-derived SMT-model test vectors: each pins one observable of the
//     step semantics — round-toward-zero vs nearest-even, single rounding
//     per fused step, double rounding at the k = 8 chunk boundary, chunk
//     (but not intra-step) order sensitivity, subnormal preservation and
//     the FTZ knob, NaN canonicalization, RZ overflow saturation, and the
//     signed-zero rules. Every expected value is derived by hand in the
//     comment next to it. The dot_f16/dot_f32 primitive is checked in both
//     modes against test-local oracles on special operands.
//  2. Property/metamorphic tests against an MPFR-free long-double oracle:
//     intra-step permutation invariance, monotonicity, and exactness of
//     the single rounding on operand ranges where the fused sum fits a
//     64-bit significand.
//  3. Golden error-vs-shape curve fixtures plus the end-to-end proof that
//     the functional executor in NumericsMode::kBitAccurate computes
//     exactly numerics::gemm_bitacc_f16, independent of kernel config; FNV
//     pins of both F16 references, a test-local copy of the per-element
//     walk they ran before they were blocked, and bitwise agreement of
//     every idealized caller on NaN-payload inputs.
//
// A differential oracle rides along: a test-local copy of the F16 step as
// it was computed in a 320-bit accumulator at unit 2^-149, compared by raw
// bits with the 128-bit step on a million seeded steps, and the 8x8x8 block
// entry point compared with per-element dot_f16 in both modes.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <bit>
#include <cfloat>
#include <cmath>
#include <cstdint>
#include <iterator>
#include <utility>
#include <vector>

#include "common/matrix.hpp"
#include "common/rng.hpp"
#include "core/hgemm.hpp"
#include "core/reference.hpp"
#include "device/spec.hpp"
#include "driver/device.hpp"
#include "numerics/curves.hpp"
#include "numerics/numerics.hpp"
#include "op/op.hpp"
#include "sim/engine.hpp"
#include "support/fnv1a.hpp"

namespace tc::numerics {
namespace {

std::uint32_t f32_bits(float f) { return std::bit_cast<std::uint32_t>(f); }

half h(float f) { return half(f); }
half hb(std::uint16_t bits) { return half::from_bits(bits); }

/// fdp_step_f32 over explicit term lists (pads nothing; n = list size).
float step_f32(float c, std::vector<half> a, std::vector<half> b,
               const GenerationModel& model = GenerationModel{}) {
  EXPECT_EQ(a.size(), b.size());
  return fdp_step_f32(c, a.data(), b.data(), static_cast<int>(a.size()), model);
}

half step_f16(half c, std::vector<half> a, std::vector<half> b,
              const GenerationModel& model = GenerationModel{}) {
  EXPECT_EQ(a.size(), b.size());
  return fdp_step_f16(c, a.data(), b.data(), static_cast<int>(a.size()), model);
}

// ---------------------------------------------------------------------------
// 1. SMT-model test vectors.
// ---------------------------------------------------------------------------

TEST(NumericsVectors, F32StepRoundsTowardZero) {
  // c = 1, one product (2^-24) * (-2^-24) = -2^-48. The exact sum 1 - 2^-48
  // sits just below 1.0: RZ truncates to the predecessor of 1.0
  // (0x3F7FFFFF = 1 - 2^-24), while nearest-even would return 1.0 (the
  // discarded 2^-48 is far below the halfway point 2^-25).
  const float rz = step_f32(1.0f, {hb(0x0001)}, {hb(0x8001)});
  EXPECT_EQ(f32_bits(rz), 0x3F7FFFFFu);

  GenerationModel rne = turing_model();
  rne.f32_round_rz = false;
  const float ne = step_f32(1.0f, {hb(0x0001)}, {hb(0x8001)}, rne);
  EXPECT_EQ(f32_bits(ne), f32_bits(1.0f));
}

TEST(NumericsVectors, F32StepIsFusedNotSequential) {
  // c = 2^-30, products 1*1 and (-1)*1. The exact fused sum is 2^-30.
  // A sequential walk would first compute RZ(2^-30 + 1) = 1.0 (the 2^-30 is
  // below binary32 precision at that magnitude and RZ drops it), then
  // 1.0 - 1.0 = 0. The fused step must keep the exact 2^-30.
  const float r = step_f32(0x1.0p-30f, {h(1.0f), h(-1.0f)}, {h(1.0f), h(1.0f)});
  EXPECT_EQ(r, 0x1.0p-30f);
}

TEST(NumericsVectors, Dot8DoubleRoundsAtTheChunkBoundary) {
  // k = 8 runs as two 4-term steps. Place product 1*1 = 1 and
  // 2^-12 * 2^-12 = 2^-24 in the first chunk and another 2^-24 in the
  // second. 2^-24 is half an ulp of 1.0, so each step computes
  // RZ(1 + 2^-24) = 1.0 and the chunked result is exactly 1.0 — but a
  // single fused 8-term sum is 1 + 2^-23, which is representable
  // (0x3F800001) and survives one rounding.
  const std::vector<half> a = {h(1.0f), hb(0x0C00), h(0.0f), h(0.0f),
                               hb(0x0C00), h(0.0f), h(0.0f), h(0.0f)};
  const std::vector<half> b = {h(1.0f), hb(0x0C00), h(0.0f), h(0.0f),
                               hb(0x0C00), h(0.0f), h(0.0f), h(0.0f)};
  const float chunked = dot_f32(NumericsMode::kBitAccurate, 0.0f, a.data(), b.data());
  EXPECT_EQ(f32_bits(chunked), f32_bits(1.0f));

  const float one_shot = fdp_step_f32(0.0f, a.data(), b.data(), 8);
  EXPECT_EQ(f32_bits(one_shot), 0x3F800001u);
}

TEST(NumericsVectors, OrderSensitiveAcrossChunksOnly) {
  // Same terms as above. Permuting WITHIN the first chunk cannot change the
  // result (the fused sum is exact, hence order-invariant)...
  const std::vector<half> a_sw = {hb(0x0C00), h(1.0f), h(0.0f), h(0.0f),
                                  hb(0x0C00), h(0.0f), h(0.0f), h(0.0f)};
  const std::vector<half> b_sw = {hb(0x0C00), h(1.0f), h(0.0f), h(0.0f),
                                  hb(0x0C00), h(0.0f), h(0.0f), h(0.0f)};
  EXPECT_EQ(f32_bits(dot_f32(NumericsMode::kBitAccurate, 0.0f, a_sw.data(), b_sw.data())),
            f32_bits(1.0f));

  // ...but moving the second 2^-24 product across the boundary into chunk
  // one makes the first step RZ(1 + 2^-23) = 0x3F800001 and the result
  // changes: the model is accumulation-order sensitive exactly at chunk
  // granularity.
  const std::vector<half> a_mv = {h(1.0f), hb(0x0C00), hb(0x0C00), h(0.0f),
                                  h(0.0f), h(0.0f), h(0.0f), h(0.0f)};
  const std::vector<half> b_mv = {h(1.0f), hb(0x0C00), hb(0x0C00), h(0.0f),
                                  h(0.0f), h(0.0f), h(0.0f), h(0.0f)};
  EXPECT_EQ(f32_bits(dot_f32(NumericsMode::kBitAccurate, 0.0f, a_mv.data(), b_mv.data())),
            0x3F800001u);
}

TEST(NumericsVectors, F16SubnormalResultsAreExactUnlessFtz) {
  // 2^-14 * 0.5 = 2^-15, a subnormal half (0x0200): Turing keeps it.
  EXPECT_EQ(step_f16(h(0.0f), {hb(0x0400)}, {h(0.5f)}).bits(), 0x0200);
  // An FTZ generation flushes the same result to +0.
  GenerationModel ftz = turing_model();
  ftz.f16_ftz_out = true;
  EXPECT_EQ(step_f16(h(0.0f), {hb(0x0400)}, {h(0.5f)}, ftz).bits(), 0x0000);

  // The minimum subnormal survives: 2^-24 * 1 = 0x0001.
  EXPECT_EQ(step_f16(h(0.0f), {hb(0x0001)}, {h(1.0f)}).bits(), 0x0001);
  // Subnormal ties round to even: 1.5 * 2^-24 is halfway between 0x0001 and
  // 0x0002 and must land on 0x0002.
  EXPECT_EQ(step_f16(h(0.0f), {hb(0x0001)}, {h(1.5f)}).bits(), 0x0002);
  // 2^-12 * 2^-13 = 2^-25 is exactly half the smallest subnormal: the tie
  // rounds to even, i.e. +0.
  EXPECT_EQ(step_f16(h(0.0f), {hb(0x0C00)}, {hb(0x0800)}).bits(), 0x0000);
}

TEST(NumericsVectors, F32SubnormalAccumulatorParticipatesExactly) {
  // c is the minimum binary32 subnormal (2^-149); the product is
  // 2^-24 * 2^-24 = 2^-48. The sum 2^-48 + 2^-149 truncates (RZ) back to
  // 2^-48: the subnormal took part and was dropped by rounding, not by an
  // input flush.
  const float min_sub = std::bit_cast<float>(std::uint32_t{1});
  EXPECT_EQ(step_f32(min_sub, {hb(0x0001)}, {hb(0x0001)}), 0x1.0p-48f);
  // With c = -2^-149 the exact sum is just below 2^-48 and RZ must return
  // the predecessor of 2^-48 — the subnormal's full 2^-149 weight decides
  // the rounding.
  EXPECT_EQ(step_f32(-min_sub, {hb(0x0001)}, {hb(0x0001)}),
            std::nextafterf(0x1.0p-48f, 0.0f));
  // A subnormal step result is returned exactly (n = 0: the step is just a
  // re-rounding of c, which is already representable).
  EXPECT_EQ(f32_bits(step_f32(min_sub, {}, {})), 1u);
}

TEST(NumericsVectors, NanInputsCanonicalize) {
  // NaN payloads are NOT propagated: any NaN operand yields the canonical
  // quiet NaN of the output type.
  EXPECT_EQ(f32_bits(step_f32(0.0f, {hb(0x7C01)}, {h(1.0f)})), 0x7FC00000u);
  EXPECT_EQ(f32_bits(step_f32(0.0f, {hb(0xFFFF)}, {h(1.0f)})), 0x7FC00000u);
  EXPECT_EQ(step_f16(h(0.0f), {hb(0x7C01)}, {h(1.0f)}).bits(), 0x7E00);
  // NaN in the accumulator canonicalizes too.
  const float qnan_payload = std::bit_cast<float>(0x7F800001u + 0x1234u);
  EXPECT_EQ(f32_bits(step_f32(qnan_payload, {h(1.0f)}, {h(1.0f)})), 0x7FC00000u);
  EXPECT_EQ(step_f16(hb(0xFE00), {h(1.0f)}, {h(1.0f)}).bits(), 0x7E00);
}

TEST(NumericsVectors, InfinityRules) {
  const half pinf = hb(0x7C00), ninf = hb(0xFC00);
  // inf * 0 is invalid -> canonical qNaN.
  EXPECT_EQ(f32_bits(step_f32(0.0f, {pinf}, {h(0.0f)})), 0x7FC00000u);
  EXPECT_EQ(step_f16(h(0.0f), {pinf}, {h(0.0f)}).bits(), 0x7E00);
  // Opposing infinite products -> qNaN.
  EXPECT_EQ(f32_bits(step_f32(0.0f, {pinf, pinf}, {h(1.0f), h(-1.0f)})), 0x7FC00000u);
  // A single-signed infinity dominates any finite accumulator.
  EXPECT_EQ(f32_bits(step_f32(-65000.0f, {pinf}, {h(2.0f)})), 0x7F800000u);
  EXPECT_EQ(f32_bits(step_f32(65000.0f, {ninf}, {h(2.0f)})), 0xFF800000u);
  EXPECT_EQ(step_f16(h(-1000.0f), {pinf}, {h(2.0f)}).bits(), 0x7C00);
  // Infinite accumulator propagates through finite products.
  const float finf = std::bit_cast<float>(0x7F800000u);
  EXPECT_EQ(f32_bits(step_f32(finf, {h(-3.0f)}, {h(3.0f)})), 0x7F800000u);
  // ...and cancels against the opposite-signed infinite product.
  EXPECT_EQ(f32_bits(step_f32(finf, {ninf}, {h(1.0f)})), 0x7FC00000u);
}

TEST(NumericsVectors, RzNeverOverflowsToInfinity) {
  // FLT_MAX plus four maximal FP16 products (4 * 65504^2 ~ 1.7e10) exceeds
  // FLT_MAX but is far below the next representable magnitude: RZ truncates
  // back to the maximum finite value. The bit-accurate F32 path can never
  // round a finite sum up to infinity.
  const half big = hb(0x7BFF);  // 65504
  const float r = step_f32(FLT_MAX, {big, big, big, big}, {big, big, big, big});
  EXPECT_EQ(f32_bits(r), 0x7F7FFFFFu);
}

TEST(NumericsVectors, F16OverflowRoundsToInfinity) {
  // 65504 + 32*32 = 66528 >= 65520 (the RNE overflow threshold): infinity.
  EXPECT_EQ(step_f16(hb(0x7BFF), {h(32.0f)}, {h(32.0f)}).bits(), 0x7C00);
  EXPECT_EQ(step_f16(hb(0xFBFF), {h(-32.0f)}, {h(32.0f)}).bits(), 0xFC00);
  // 65504 + 2*4 = 65512 < 65520: rounds back down to the maximum finite.
  EXPECT_EQ(step_f16(hb(0x7BFF), {h(2.0f)}, {h(4.0f)}).bits(), 0x7BFF);
}

TEST(NumericsVectors, SignedZeroRules) {
  // All-negative-zero terms produce -0 (IEEE: (-0) + (-0) = -0)...
  EXPECT_EQ(step_f16(hb(0x8000), {hb(0x8000)}, {h(1.0f)}).bits(), 0x8000);
  EXPECT_EQ(f32_bits(step_f32(-0.0f, {hb(0x8000)}, {h(1.0f)})), 0x80000000u);
  // ...while any positive zero in the mix gives +0.
  EXPECT_EQ(step_f16(h(0.0f), {hb(0x8000)}, {h(1.0f)}).bits(), 0x0000);
  // Exact cancellation of nonzero terms is +0 under both RZ and RNE.
  EXPECT_EQ(f32_bits(step_f32(-0x1.0p-48f, {hb(0x0001)}, {hb(0x0001)})), 0u);
  EXPECT_EQ(step_f16(h(-2.0f), {h(1.0f)}, {h(2.0f)}).bits(), 0x0000);
}

// ---------------------------------------------------------------------------
// 1b. The dot primitive against test-local oracles.
// ---------------------------------------------------------------------------

/// Signed zeros, infinities, quiet and signaling NaNs of both signs with
/// payloads, subnormals, and a few ordinary and extreme values.
constexpr std::uint16_t kSpecialHalves[] = {0x0000, 0x8000, 0x7C00, 0xFC00, 0x7E00, 0xFE5A,
                                            0x7C01, 0xFD23, 0x0001, 0x83FF, 0x3C00, 0xBC00,
                                            0x7BFF, 0x3555, 0xC800};

/// A special operand one time in three, otherwise an ordinary value.
half special_or_plain(Rng& rng) {
  if (rng.next_below(3) == 0) {
    return hb(kSpecialHalves[rng.next_below(std::size(kSpecialHalves))]);
  }
  return half(rng.next_float(-4.0f, 4.0f));
}

/// kIdealized oracle: the literal FP32 loop, rounded by the caller.
float float_loop(float c, const half* a, const half* b, int n) {
  for (int i = 0; i < n; ++i) c += a[i].to_float() * b[i].to_float();
  return c;
}

/// The oracle above is a separately compiled copy, which x86 allows to pick a
/// different NaN payload (docs/jit.md): NaN results agree as NaNs; all other
/// results agree bit for bit.
bool same_f32(float x, float y) {
  return (std::isnan(x) && std::isnan(y)) || f32_bits(x) == f32_bits(y);
}
bool same_f16(half x, half y) { return (x.is_nan() && y.is_nan()) || x.bits() == y.bits(); }

TEST(NumericsDot, IdealizedMatchesFloatLoop) {
  Rng rng(7101);
  for (int n = 0; n <= 8; ++n) {
    for (int trial = 0; trial < 2000; ++trial) {
      half a[8], b[8];
      for (int i = 0; i < 8; ++i) {
        a[i] = special_or_plain(rng);
        b[i] = special_or_plain(rng);
      }
      const half c16 = special_or_plain(rng);
      const float c32 = special_or_plain(rng).to_float();
      ASSERT_TRUE(same_f32(dot_f32(NumericsMode::kIdealized, c32, a, b, n),
                           float_loop(c32, a, b, n)))
          << "n=" << n << " trial " << trial;
      ASSERT_TRUE(same_f16(dot_f16(NumericsMode::kIdealized, c16, a, b, n),
                           half(float_loop(c16.to_float(), a, b, n))))
          << "n=" << n << " trial " << trial;
    }
  }
  // Signed zeros follow IEEE addition: all-negative-zero terms keep -0.
  const half nz = hb(0x8000);
  const half one = h(1.0f);
  EXPECT_EQ(dot_f16(NumericsMode::kIdealized, nz, &nz, &one, 1).bits(), 0x8000);
  EXPECT_EQ(dot_f16(NumericsMode::kIdealized, h(0.0f), &nz, &one, 1).bits(), 0x0000);
}

TEST(NumericsDot, BitAccurateMatchesStepChain) {
  // kBitAccurate is a chain of 4-wide fused steps; its NaNs are canonical, so
  // every result, NaN or not, must match the chain bit for bit.
  Rng rng(7102);
  for (int n = 0; n <= 8; ++n) {
    for (int trial = 0; trial < 2000; ++trial) {
      half a[8], b[8];
      for (int i = 0; i < 8; ++i) {
        a[i] = special_or_plain(rng);
        b[i] = special_or_plain(rng);
      }
      half c16 = special_or_plain(rng);
      float c32 = special_or_plain(rng).to_float();
      const float got32 = dot_f32(NumericsMode::kBitAccurate, c32, a, b, n);
      const half got16 = dot_f16(NumericsMode::kBitAccurate, c16, a, b, n);
      for (int kk = 0; kk < n; kk += 4) {
        c32 = fdp_step_f32(c32, a + kk, b + kk, std::min(4, n - kk));
        c16 = fdp_step_f16(c16, a + kk, b + kk, std::min(4, n - kk));
      }
      ASSERT_EQ(f32_bits(got32), f32_bits(c32)) << "n=" << n << " trial " << trial;
      ASSERT_EQ(got16.bits(), c16.bits()) << "n=" << n << " trial " << trial;
    }
  }
}

TEST(NumericsDot, RejectsWidthOutOfRange) {
  const half a[9] = {};
  for (const NumericsMode mode : {NumericsMode::kIdealized, NumericsMode::kBitAccurate}) {
    EXPECT_THROW((void)dot_f16(mode, h(0.0f), a, a, 9), Error);
    EXPECT_THROW((void)dot_f32(mode, 0.0f, a, a, -1), Error);
  }
}

// ---------------------------------------------------------------------------
// 2. Properties against a long-double oracle.
// ---------------------------------------------------------------------------

/// Round-toward-zero long double -> binary32, valid when |x| is within the
/// finite float range (the property tests keep it there). static_cast rounds
/// to nearest, so step back one ulp whenever the cast moved away from zero.
float rz32(long double x) {
  auto f = static_cast<float>(x);
  if (std::fabs(static_cast<long double>(f)) > std::fabs(x)) {
    f = std::nextafterf(f, 0.0f);
  }
  return f;
}

/// Nearest-even long double -> binary16 via exact quantum snapping, same
/// construction as test_half.cpp's float reference.
std::uint16_t rne16(long double x) {
  const std::uint16_t sign = x < 0.0L || (x == 0.0L && std::signbit(x)) ? 0x8000u : 0u;
  const long double mag = std::fabs(x);
  if (mag == 0.0L) return sign;
  const int e = std::max(std::ilogbl(mag), -14);
  const long double quantum = std::ldexp(1.0L, e - 10);
  const long double r = std::nearbyintl(mag / quantum) * quantum;
  if (r == 0.0L) return sign;
  if (r >= 65520.0L) return sign | 0x7C00u;
  if (r < std::ldexp(1.0L, -14)) {
    return sign | static_cast<std::uint16_t>(r / std::ldexp(1.0L, -24));
  }
  const int re = std::ilogbl(r);
  const auto mant = static_cast<std::uint16_t>(r / std::ldexp(1.0L, re - 10));
  return sign | static_cast<std::uint16_t>((re + 15) << 10) |
         static_cast<std::uint16_t>(mant - 1024u);
}

/// Random half in [0.25, 4): products land in [2^-4, 16], so a 5-term fused
/// sum spans < 64 bits of significand and the long-double sum is EXACT.
half narrow_half(Rng& rng, bool allow_negative) {
  float f = rng.next_float(0.25f, 4.0f);
  if (allow_negative && rng.next_below(2) == 0) f = -f;
  return half(f);
}

TEST(NumericsProperties, StepMatchesLongDoubleOracleExactly) {
  Rng rng(7001);
  for (int trial = 0; trial < 20000; ++trial) {
    const auto c32 = half(rng.next_float(-4.0f, 4.0f)).to_float();
    half a[4], b[4];
    long double exact = c32;
    for (int i = 0; i < 4; ++i) {
      a[i] = narrow_half(rng, true);
      b[i] = narrow_half(rng, true);
      exact += static_cast<long double>(a[i].to_float()) *
               static_cast<long double>(b[i].to_float());
    }
    ASSERT_EQ(f32_bits(fdp_step_f32(c32, a, b, 4)), f32_bits(rz32(exact)))
        << "trial " << trial;
    ASSERT_EQ(fdp_step_f16(half(c32), a, b, 4).bits(), rne16(exact))
        << "trial " << trial;
  }
}

TEST(NumericsProperties, PermutationWithinStepInvariant) {
  Rng rng(7002);
  for (int trial = 0; trial < 2000; ++trial) {
    half a[4], b[4];
    for (int i = 0; i < 4; ++i) {
      a[i] = half(rng.next_float(-8.0f, 8.0f));
      b[i] = half(rng.next_float(-8.0f, 8.0f));
    }
    const float c = rng.next_float(-8.0f, 8.0f);
    const float base32 = fdp_step_f32(c, a, b, 4);
    const std::uint16_t base16 = fdp_step_f16(half(c), a, b, 4).bits();
    int idx[4] = {0, 1, 2, 3};
    // All 24 permutations of the (a[i], b[i]) pairs.
    std::sort(idx, idx + 4);
    do {
      half pa[4], pb[4];
      for (int i = 0; i < 4; ++i) {
        pa[i] = a[idx[i]];
        pb[i] = b[idx[i]];
      }
      ASSERT_EQ(f32_bits(fdp_step_f32(c, pa, pb, 4)), f32_bits(base32));
      ASSERT_EQ(fdp_step_f16(half(c), pa, pb, 4).bits(), base16);
    } while (std::next_permutation(idx, idx + 4));
  }
}

TEST(NumericsProperties, MonotoneInEachOperand) {
  // With positive b[i], bumping a[i] up one half-ulp can never decrease the
  // step result: the exact sum is monotone and both RZ and RNE are monotone
  // roundings.
  Rng rng(7003);
  for (int trial = 0; trial < 5000; ++trial) {
    half a[4], b[4];
    for (int i = 0; i < 4; ++i) {
      a[i] = narrow_half(rng, true);
      b[i] = narrow_half(rng, false);  // strictly positive
    }
    const float c = half(rng.next_float(-16.0f, 16.0f)).to_float();
    const float base = fdp_step_f32(c, a, b, 4);
    const half base16 = fdp_step_f16(half(c), a, b, 4);
    const int i = static_cast<int>(rng.next_below(4));
    // Next representable half above a[i] (away from -inf): for negative
    // values the bit pattern decreases.
    const std::uint16_t bits = a[i].bits();
    a[i] = half::from_bits(static_cast<std::uint16_t>(
        a[i].signbit() ? bits - 1 : bits + 1));
    ASSERT_GE(fdp_step_f32(c, a, b, 4), base) << "trial " << trial;
    ASSERT_GE(fdp_step_f16(half(c), a, b, 4).to_float(), base16.to_float())
        << "trial " << trial;
  }
}

TEST(NumericsProperties, F32StepErrorBelowOneUlp) {
  // RZ error is strictly below 1 ulp of the result, toward zero.
  Rng rng(7004);
  for (int trial = 0; trial < 10000; ++trial) {
    half a[4], b[4];
    long double exact = 0.0L;
    const float c = half(rng.next_float(-2.0f, 2.0f)).to_float();
    exact += c;
    for (int i = 0; i < 4; ++i) {
      a[i] = narrow_half(rng, true);
      b[i] = narrow_half(rng, true);
      exact += static_cast<long double>(a[i].to_float()) *
               static_cast<long double>(b[i].to_float());
    }
    const float r = fdp_step_f32(c, a, b, 4);
    ASSERT_LE(std::fabs(static_cast<long double>(r)), std::fabs(exact));
    const float ulp = std::ldexp(1.0f, std::max(std::ilogb(r == 0.0f ? exact : r), -126) - 23);
    ASSERT_LT(std::fabs(static_cast<long double>(r) - exact), ulp) << "trial " << trial;
  }
}

// ---------------------------------------------------------------------------
// 3. Matrix level: idealized copy, golden curves, executor e2e.
// ---------------------------------------------------------------------------

/// rows x cols random values in [-2, 2] with specials mixed in: per element,
/// about 1 in 256 a NaN (quiet or signaling, either sign, random payload),
/// 1 in 256 an infinity, 1 in 8 a subnormal and 1 in 32 a signed zero.
HalfMatrix special_laden(Rng& rng, std::size_t rows, std::size_t cols) {
  HalfMatrix m(rows, cols);
  m.randomize(rng, -2.0f, 2.0f);
  for (std::size_t i = 0; i < m.size(); ++i) {
    const std::uint64_t r = rng.next_below(256);
    const auto sign = static_cast<std::uint16_t>(rng.next_below(2) << 15);
    if (r == 0) {
      const auto quiet = static_cast<std::uint16_t>(rng.next_below(2) << 9);
      const auto payload = static_cast<std::uint16_t>(1 + rng.next_below(0x1FF));
      m.data()[i] = hb(static_cast<std::uint16_t>(sign | 0x7C00u | quiet | payload));
    } else if (r == 1) {
      m.data()[i] = hb(static_cast<std::uint16_t>(sign | 0x7C00u));
    } else if (r < 34) {
      m.data()[i] = hb(static_cast<std::uint16_t>(sign | (1 + rng.next_below(0x3FF))));
    } else if (r < 42) {
      m.data()[i] = hb(sign);
    }
  }
  return m;
}

TEST(NumericsMatrix, IdealizedReferenceMatchesRecordedPins) {
  // FNV-1a pins of both references. core::gemm_ref_tc's were recorded while
  // it was still its own hand-written loop, independent of
  // numerics::dot_f16; gemm_bitacc_f16's and the special-operand pair below
  // while both still walked one output element at a time (dot_f16 per
  // k-chunk of 8, fdp_step_f16 per 4-term step). k = 129 ends on a
  // one-product chunk.
  struct Pin {
    std::size_t k;
    std::uint64_t idealized, bitacc;
  };
  Rng rng(8001);
  const Pin pins[] = {{8, 0x601927C4B5BEF123ull, 0xB1EFE22E9B52F71Eull},
                      {72, 0xB64188D1058E2A3Bull, 0x9C0357E72C1DFA34ull},
                      {129, 0x57BE208D2B055360ull, 0x8A5174668680EAA6ull}};
  for (const Pin& p : pins) {
    HalfMatrix a(48, p.k), bt(40, p.k);
    a.randomize(rng, -2.0f, 2.0f);
    bt.randomize(rng, -2.0f, 2.0f);
    EXPECT_EQ(testsupport::fnv1a_bits(core::gemm_ref_tc(a, bt)), p.idealized) << "k=" << p.k;
    EXPECT_EQ(testsupport::fnv1a_bits(gemm_bitacc_f16(a, bt)), p.bitacc) << "k=" << p.k;
  }

  // 64 x 64 x 64 with NaNs, infinities, subnormals and signed zeros in both
  // operands. The idealized pin holds the NaN payloads the one compiled
  // idealized_sum returns; the bit-accurate one, canonical NaNs.
  Rng special(8003);
  const HalfMatrix a = special_laden(special, 64, 64);
  const HalfMatrix bt = special_laden(special, 64, 64);
  const HalfMatrix bitacc = gemm_bitacc_f16(a, bt);
  std::size_t nans = 0;
  for (std::size_t i = 0; i < bitacc.size(); ++i) nans += bitacc.data()[i].is_nan() ? 1 : 0;
  ASSERT_GT(nans, bitacc.size() / 8);
  ASSERT_LT(nans, bitacc.size() * 7 / 8);
  EXPECT_EQ(testsupport::fnv1a_bits(core::gemm_ref_tc(a, bt)), 0x6042BA7D9BE740DCull);
  EXPECT_EQ(testsupport::fnv1a_bits(bitacc), 0xBDDC69B2879D7980ull);
}

/// The per-element walk both F16 references ran before they were blocked:
/// from +0, dot_f16 over k-chunks of 8 for kIdealized and fdp_step_f16 over
/// 4-term steps for kBitAccurate, the last chunk or step possibly shorter.
HalfMatrix per_element_chain(NumericsMode mode, const HalfMatrix& a, const HalfMatrix& bt) {
  const std::size_t k = a.cols();
  const std::size_t width = mode == NumericsMode::kIdealized ? 8 : 4;
  HalfMatrix c(a.rows(), bt.rows());
  for (std::size_t i = 0; i < a.rows(); ++i) {
    for (std::size_t j = 0; j < bt.rows(); ++j) {
      const half* x = a.data() + i * k;
      const half* y = bt.data() + j * k;
      half acc(0.0f);
      for (std::size_t l = 0; l < k; l += width) {
        const int w = static_cast<int>(std::min(width, k - l));
        acc = mode == NumericsMode::kIdealized ? dot_f16(mode, acc, x + l, y + l, w)
                                               : fdp_step_f16(acc, x + l, y + l, w);
      }
      c.at(i, j) = acc;
    }
  }
  return c;
}

TEST(NumericsMatrix, BlockedReferencesMatchPerElementChains) {
  // The F16 references run full 8x8 output tiles through dot_f16_block and
  // walk the k tail and the m and n edges one element at a time. Shapes with
  // every remainder mod 8, k = 0 and k = 1 among them, on plain and special
  // operands, must give the per-element walk's raw bits, NaN payloads and
  // zero signs included.
  struct Shape {
    std::size_t m, n, k;
  };
  const Shape shapes[] = {{1, 1, 0},   {9, 17, 0},  {13, 11, 1},  {8, 8, 7},   {16, 24, 8},
                          {17, 23, 29}, {24, 8, 33}, {31, 18, 66}, {25, 9, 129}, {40, 48, 64}};
  Rng rng(8004);
  std::size_t outputs = 0;
  for (const Shape& s : shapes) {
    for (const bool special : {false, true}) {
      HalfMatrix a(s.m, s.k), bt(s.n, s.k);
      if (special) {
        a = special_laden(rng, s.m, s.k);
        bt = special_laden(rng, s.n, s.k);
      } else {
        a.randomize(rng, -2.0f, 2.0f);
        bt.randomize(rng, -2.0f, 2.0f);
      }
      const HalfMatrix got[] = {gemm_idealized_f16(a, bt), gemm_bitacc_f16(a, bt)};
      const NumericsMode modes[] = {NumericsMode::kIdealized, NumericsMode::kBitAccurate};
      for (int mi = 0; mi < 2; ++mi) {
        const HalfMatrix want = per_element_chain(modes[mi], a, bt);
        ASSERT_EQ(got[mi].rows(), s.m);
        ASSERT_EQ(got[mi].cols(), s.n);
        for (std::size_t i = 0; i < want.size(); ++i) {
          ASSERT_EQ(got[mi].data()[i].bits(), want.data()[i].bits())
              << s.m << "x" << s.n << "x" << s.k << " special=" << special << " element " << i
              << " mode " << numerics_mode_name(modes[mi]);
        }
        outputs += want.size();
      }
      if (s.k == 0) {
        for (std::size_t i = 0; i < got[1].size(); ++i) EXPECT_EQ(got[1].data()[i].bits(), 0u);
      }

      // gemm_bitacc_f32 stays per element: dot_f32 over k-chunks of 8 is the
      // same chain of 4-term fdp_step_f32 calls.
      const FloatMatrix f32 = gemm_bitacc_f32(a, bt);
      for (std::size_t i = 0; i < s.m; ++i) {
        for (std::size_t j = 0; j < s.n; ++j) {
          float acc = 0.0f;
          for (std::size_t l = 0; l < s.k; l += 4) {
            acc = fdp_step_f32(acc, a.data() + i * s.k + l, bt.data() + j * s.k + l,
                               static_cast<int>(std::min<std::size_t>(4, s.k - l)));
          }
          ASSERT_EQ(f32_bits(f32.at(i, j)), f32_bits(acc))
              << s.m << "x" << s.n << "x" << s.k << " special=" << special << " f32 (" << i
              << ", " << j << ")";
        }
      }
    }
  }
  EXPECT_EQ(outputs, 2u * 2u * (1 + 153 + 143 + 64 + 384 + 391 + 192 + 558 + 225 + 1920));
}

/// 64 x 64 random values with about one element in 128 replaced by a NaN:
/// quiet or signaling, either sign, random nonzero payload.
HalfMatrix nan_laden(Rng& rng) {
  HalfMatrix m(64, 64);
  m.randomize(rng, -1.0f, 1.0f);
  for (std::size_t i = 0; i < m.size(); ++i) {
    if (rng.next_below(128) != 0) continue;
    const auto sign = static_cast<std::uint16_t>(rng.next_below(2) << 15);
    const auto quiet = static_cast<std::uint16_t>(rng.next_below(2) << 9);
    const auto payload = static_cast<std::uint16_t>(1 + rng.next_below(0x1FF));
    m.data()[i] = hb(static_cast<std::uint16_t>(sign | 0x7C00u | quiet | payload));
  }
  return m;
}

TEST(NumericsMatrix, NanPayloadsAgreeAcrossIdealizedCallers) {
  // x86 picks a NaN result's payload by operand order, so separately inlined
  // copies of the idealized sum disagreed on NaN inputs. Every caller now
  // goes through the one compiled dot_f16: the reference, the op-level
  // reference and both executor engines must agree on every raw bit
  // pattern, NaN payloads included.
  Rng rng(8002);
  const HalfMatrix a = nan_laden(rng);
  const HalfMatrix bt = nan_laden(rng);
  const HalfMatrix ref = core::gemm_ref_tc(a, bt);
  std::size_t nans = 0;
  for (std::size_t i = 0; i < ref.size(); ++i) nans += ref.data()[i].is_nan() ? 1 : 0;
  ASSERT_GT(nans, ref.size() / 4);
  ASSERT_LT(nans, ref.size());

  // Raw bit patterns, compared directly: NaN == NaN is exactly what must
  // not be forgiven here.
  const auto differing = [&ref](const half* got) {
    std::size_t count = 0;
    for (std::size_t i = 0; i < ref.size(); ++i) count += got[i].bits() != ref.data()[i].bits();
    return count;
  };

  op::GemmOp gemm;
  gemm.shape = {64, 64, 64};
  const op::OpInputs in{{a.data(), a.size()}, {bt.data(), bt.size()}, {}, {}};
  const std::vector<half> op_out =
      op::gemm_op_ref(gemm, in, core::HgemmConfig::optimized(), NumericsMode::kIdealized);
  EXPECT_EQ(differing(op_out.data()), 0u) << "gemm_op_ref";

  driver::Device dev(device::rtx2070());
  for (const sim::ExecEngine engine : {sim::ExecEngine::kInterpret, sim::ExecEngine::kJit}) {
    core::HgemmConfig cfg = core::HgemmConfig::optimized();
    cfg.engine = engine;
    EXPECT_EQ(differing(core::run_hgemm(dev, a, bt, cfg).data()), 0u)
        << "engine " << static_cast<int>(engine);
  }
}

TEST(NumericsMatrix, GoldenErrorCurves) {
  // Golden fixture: default CurveOptions (64 x 64, k = 64..1024, seed 1).
  // The engine is pure integer arithmetic and the references are IEEE
  // float/double, so these values are deterministic; the tolerance only
  // absorbs cross-platform libm noise in the mean reduction.
  const std::vector<ErrorPoint> pts = error_curves(CurveOptions{});
  ASSERT_EQ(pts.size(), 5u);
  struct Expect {
    std::size_t k;
    double ideal_max, ideal_mean, f16_max, f16_mean, f32_max, f32_mean;
  };
  const Expect want[] = {
      {64, 0.0010898792651602184, 0.0002948357286554726, 0.0019457886667466986,
       0.0003891772794782199, 6.094550168832144e-07, 3.3404411770312046e-07},
      {128, 0.001638972195518843, 0.0003833157047246195, 0.00227714954875734,
       0.0005252729646425997, 9.89195166725555e-07, 6.609170732987556e-07},
      {256, 0.002863860817933199, 0.0005227526406719382, 0.0031677977637762493,
       0.0007228361688871739, 1.820035376847275e-06, 1.313838314796215e-06},
      {512, 0.0036443573716600716, 0.0007134366827181125, 0.004748096294937227,
       0.0010044739335923853, 3.2941370152596313e-06, 2.5904907696074987e-06},
      {1024, 0.004520416764116547, 0.0009911726410547358, 0.0061428098778989046,
       0.001414562645113243, 6.003449354852573e-06, 5.158188169862526e-06},
  };
  for (std::size_t i = 0; i < pts.size(); ++i) {
    SCOPED_TRACE("k=" + std::to_string(want[i].k));
    EXPECT_EQ(pts[i].k, want[i].k);
    const auto near = [](double got, double exp) {
      EXPECT_NEAR(got, exp, std::fabs(exp) * 1e-9 + 1e-30);
    };
    near(pts[i].idealized_f16.max_rel, want[i].ideal_max);
    near(pts[i].idealized_f16.mean_rel, want[i].ideal_mean);
    near(pts[i].bitacc_f16.max_rel, want[i].f16_max);
    near(pts[i].bitacc_f16.mean_rel, want[i].f16_mean);
    near(pts[i].bitacc_f32.max_rel, want[i].f32_max);
    near(pts[i].bitacc_f32.mean_rel, want[i].f32_mean);
  }
  // The shape of the curves is the headline result: FP16 accumulation error
  // grows with k; FP32 accumulation stays two-plus orders of magnitude
  // lower at every point.
  for (std::size_t i = 1; i < pts.size(); ++i) {
    EXPECT_GT(pts[i].bitacc_f16.mean_rel, pts[i - 1].bitacc_f16.mean_rel);
  }
  for (const auto& p : pts) {
    EXPECT_LT(p.bitacc_f32.mean_rel * 100.0, p.bitacc_f16.mean_rel);
    // The idealized single-rounding model under-reports FP16-accumulate
    // error but stays in the same decade.
    EXPECT_GT(p.idealized_f16.mean_rel * 3.0, p.bitacc_f16.mean_rel);
  }
}

/// Runs the full HGEMM kernel through the functional executor in the given
/// mode and compares C bitwise against a host reference.
void expect_executor_matches(const core::HgemmConfig& base, std::size_t m, std::size_t n,
                             std::size_t k, NumericsMode mode, const HalfMatrix& want,
                             std::uint64_t seed) {
  core::HgemmConfig cfg = base;
  cfg.numerics = mode;
  Rng rng(seed);
  HalfMatrix a(m, k), bt(n, k);
  a.randomize(rng, -1.0f, 1.0f);
  bt.randomize(rng, -1.0f, 1.0f);
  driver::Device dev(device::rtx2070());
  const HalfMatrix got = core::run_hgemm(dev, a, bt, cfg);
  ASSERT_EQ(got.rows(), want.rows());
  ASSERT_EQ(got.cols(), want.cols());
  std::size_t mismatches = 0;
  for (std::size_t i = 0; i < got.size(); ++i) {
    mismatches += got.data()[i].bits() != want.data()[i].bits() ? 1 : 0;
  }
  EXPECT_EQ(mismatches, 0u) << cfg.name() << " mode=" << numerics_mode_name(mode);
}

TEST(NumericsExecutor, BitAccurateModeMatchesEngineBitwise) {
  // The kernel chains HMMA.1688 through a register accumulator in k order,
  // so the executor in kBitAccurate must reproduce gemm_bitacc_f16 exactly —
  // for ANY kernel config, since blocking changes the schedule but not the
  // per-element accumulation chain.
  const std::size_t k = 64;
  Rng rng(9001);
  HalfMatrix a(256, k), bt(256, k);
  a.randomize(rng, -1.0f, 1.0f);
  bt.randomize(rng, -1.0f, 1.0f);
  const HalfMatrix want = gemm_bitacc_f16(a, bt);

  driver::Device dev(device::rtx2070());
  core::HgemmConfig cfg = core::HgemmConfig::optimized();
  cfg.numerics = NumericsMode::kBitAccurate;
  const HalfMatrix got = core::run_hgemm(dev, a, bt, cfg);
  std::size_t mismatches = 0;
  for (std::size_t i = 0; i < got.size(); ++i) {
    mismatches += got.data()[i].bits() != want.data()[i].bits() ? 1 : 0;
  }
  EXPECT_EQ(mismatches, 0u) << "optimized";
}

TEST(NumericsExecutor, BitAccurateModeIsConfigInvariant) {
  const std::size_t k = 128;
  Rng rng(9002);
  HalfMatrix a(128, k), bt(128, k);
  a.randomize(rng, -1.0f, 1.0f);
  bt.randomize(rng, -1.0f, 1.0f);
  const HalfMatrix want = gemm_bitacc_f16(a, bt);
  expect_executor_matches(core::HgemmConfig::cublas_like(), 128, 128, k,
                          NumericsMode::kBitAccurate, want, 9002);
}

TEST(NumericsExecutor, IdealizedModeMatchesHistoricReference) {
  const std::size_t k = 64;
  Rng rng(9003);
  HalfMatrix a(256, k), bt(256, k);
  a.randomize(rng, -1.0f, 1.0f);
  bt.randomize(rng, -1.0f, 1.0f);
  const HalfMatrix want = core::gemm_ref_tc(a, bt);
  expect_executor_matches(core::HgemmConfig::optimized(), 256, 256, k,
                          NumericsMode::kIdealized, want, 9003);
}

TEST(NumericsExecutor, ModesActuallyDiffer) {
  // Sanity that the plumbing switches semantics at all: on random data the
  // two modes must disagree on at least one output bit pattern.
  const std::size_t k = 64;
  Rng rng(9004);
  HalfMatrix a(256, k), bt(256, k);
  a.randomize(rng, -1.0f, 1.0f);
  bt.randomize(rng, -1.0f, 1.0f);
  const HalfMatrix ideal = gemm_idealized_f16(a, bt);
  const HalfMatrix bitacc = gemm_bitacc_f16(a, bt);
  std::size_t diffs = 0;
  for (std::size_t i = 0; i < ideal.size(); ++i) {
    diffs += ideal.data()[i].bits() != bitacc.data()[i].bits() ? 1 : 0;
  }
  EXPECT_GT(diffs, 0u);
}

// ---------------------------------------------------------------------------
// 4. Differential oracle for the F16 step.
// ---------------------------------------------------------------------------

namespace acc320 {

// The F16-accumulate step as it was computed before it moved to one 128-bit
// integer: every term at unit 2^-149 in a 320-bit two's-complement
// accumulator, a full special-value scan first, and rounding by bit
// extraction over the limbs. Kept verbatim in semantics as the oracle.

constexpr int kScalePow = 149;
constexpr int kLimbs = 5;
using Mag = std::array<std::uint64_t, kLimbs>;

struct Acc {
  Mag w{};

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
    return std::all_of(w.begin(), w.end(), [](std::uint64_t limb) { return limb == 0; });
  }
  [[nodiscard]] bool negative() const { return (w[kLimbs - 1] >> 63) != 0; }
  [[nodiscard]] Mag magnitude() const {
    Mag m = w;
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

int top_bit(const Mag& m) {
  for (int i = kLimbs - 1; i >= 0; --i) {
    const std::uint64_t limb = m[static_cast<std::size_t>(i)];
    if (limb != 0) return i * 64 + (63 - std::countl_zero(limb));
  }
  return -1;
}

std::uint64_t bits_at(const Mag& m, int pos, int count) {
  const int limb = pos >> 6;
  const int off = pos & 63;
  std::uint64_t lo = limb < kLimbs ? m[static_cast<std::size_t>(limb)] >> off : 0;
  if (off != 0 && limb + 1 < kLimbs) lo |= m[static_cast<std::size_t>(limb + 1)] << (64 - off);
  return lo & ((std::uint64_t{1} << count) - 1);
}

bool bit_at(const Mag& m, int pos) { return bits_at(m, pos, 1) != 0; }

bool sticky_below(const Mag& m, int pos) {
  const int limb = pos >> 6;
  const int off = pos & 63;
  for (int i = 0; i < limb && i < kLimbs; ++i) {
    if (m[static_cast<std::size_t>(i)] != 0) return true;
  }
  return off != 0 && limb < kLimbs &&
         (m[static_cast<std::size_t>(limb)] & ((std::uint64_t{1} << off) - 1)) != 0;
}

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
  t.mag = exp == 0 ? man : man | 0x400u;
  t.shift = exp == 0 ? kScalePow - 24 : kScalePow + static_cast<int>(exp) - 25;
  return t;
}

std::uint16_t round_f16_bits(const Mag& m, bool sign, const GenerationModel& model) {
  const std::uint16_t sbit = sign ? 0x8000u : 0u;
  const int msb = top_bit(m);
  int e = msb - kScalePow;
  std::uint32_t kept;
  std::uint16_t out;
  if (e >= -14) {
    const int sh = msb - 10;
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
    if (e > 15) return sbit | 0x7C00u;
    out = static_cast<std::uint16_t>((static_cast<std::uint32_t>(e + 15) << 10) |
                                     (kept & 0x3FFu));
  } else {
    kept = static_cast<std::uint32_t>(bits_at(m, 125, 11));
    const bool round = bit_at(m, 124);
    const bool sticky = sticky_below(m, 124);
    if (round && (sticky || (kept & 1u))) ++kept;
    out = static_cast<std::uint16_t>(kept);
  }
  if (model.f16_ftz_out && (out & 0x7C00u) == 0) out = 0;
  return sbit | out;
}

struct Scan {
  bool nan = false;
  bool pos_inf = false;
  bool neg_inf = false;
  bool all_zero = true;
  bool all_neg = true;
};

void scan_product(half a, half b, Scan& s) {
  const bool a_inf = a.is_inf();
  const bool b_inf = b.is_inf();
  if (a.is_nan() || b.is_nan() || (a_inf && b.is_zero()) || (b_inf && a.is_zero())) {
    s.nan = true;
    return;
  }
  if (a_inf || b_inf) {
    (a.signbit() != b.signbit() ? s.neg_inf : s.pos_inf) = true;
    s.all_zero = false;
    return;
  }
  if (a.is_zero() || b.is_zero()) {
    s.all_neg = s.all_neg && (a.signbit() != b.signbit());
  } else {
    s.all_zero = false;
  }
}

half step_f16(half c, const half* a, const half* b, int n, const GenerationModel& model) {
  Scan scan;
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
  if (scan.nan || (scan.pos_inf && scan.neg_inf)) return hb(model.qnan16);
  if (scan.pos_inf || scan.neg_inf) return hb(scan.neg_inf ? 0xFC00 : 0x7C00);

  Acc acc;
  const Term tc = decode_half(c.bits());
  acc.add(tc.mag, tc.shift, tc.neg);
  for (int i = 0; i < n; ++i) {
    const Term ta = decode_half(a[i].bits());
    const Term tb = decode_half(b[i].bits());
    acc.add(ta.mag * tb.mag, ta.shift + tb.shift - kScalePow, ta.neg != tb.neg);
  }
  if (acc.is_zero()) return hb((scan.all_zero && scan.all_neg) ? 0x8000 : 0x0000);
  return hb(round_f16_bits(acc.magnitude(), acc.negative(), model));
}

}  // namespace acc320

/// Operand classes the 128-bit step must agree with the oracle on. kRaw is
/// any 16-bit pattern, so it holds NaNs, infinities and subnormals too.
enum class Draw { kRaw, kZero, kSubnormal, kMax, kNearOne, kPlain, kInfNan, kMixed };

/// One raw bit pattern of class `d`. kMixed picks a class per operand, an
/// infinity or NaN one time in 32, so that most steps stay finite.
half draw_operand(Rng& rng, Draw d) {
  if (d == Draw::kMixed) {
    d = rng.next_below(32) == 0 ? Draw::kInfNan : static_cast<Draw>(rng.next_below(6));
  }
  const auto sign = static_cast<std::uint16_t>(rng.next_below(2) << 15);
  switch (d) {
    case Draw::kRaw:
      return hb(static_cast<std::uint16_t>(rng.next_below(0x10000)));
    case Draw::kZero:
      return hb(sign);
    case Draw::kSubnormal:
      return hb(static_cast<std::uint16_t>(sign | (1 + rng.next_below(0x3FF))));
    case Draw::kMax:  // +-65504: eight such products come near the 2^84 bound
      return hb(static_cast<std::uint16_t>(sign | 0x7BFFu));
    case Draw::kNearOne:  // within a few ulps of +-1, where sums cancel to ties
      return hb(static_cast<std::uint16_t>(sign | (0x3BFCu + rng.next_below(8))));
    case Draw::kPlain:
      return half(rng.next_float(-4.0f, 4.0f));
    case Draw::kInfNan:
    case Draw::kMixed:
      break;
  }
  return hb(static_cast<std::uint16_t>(sign | 0x7C00u |
                                       (rng.next_below(2) == 0 ? 0u : rng.next_below(0x400))));
}

/// A step's operands from one class (one step in three draws every operand
/// from the same class, so whole steps of maxima, zeros or subnormals occur).
Draw draw_class(Rng& rng) {
  return rng.next_below(3) == 0 ? static_cast<Draw>(rng.next_below(7)) : Draw::kMixed;
}

TEST(NumericsOracle, Int128StepMatchesAcc320StepOnRawPatterns) {
  Rng rng(9101);
  GenerationModel ftz = turing_model();
  ftz.f16_ftz_out = true;
  std::size_t steps = 0;
  std::size_t nonfinite = 0;
  for (int trial = 0; trial < 56000; ++trial) {
    for (int n = 0; n <= 8; ++n) {
      const Draw d = draw_class(rng);
      half a[8];
      half b[8];
      for (int i = 0; i < 8; ++i) {
        a[i] = draw_operand(rng, d);
        b[i] = draw_operand(rng, d);
      }
      const half c = draw_operand(rng, d);
      for (const GenerationModel& model : {turing_model(), ftz}) {
        const half got = fdp_step_f16(c, a, b, n, model);
        ASSERT_EQ(got.bits(), acc320::step_f16(c, a, b, n, model).bits())
            << "trial " << trial << " n=" << n << " ftz=" << model.f16_ftz_out;
        nonfinite += (got.bits() & 0x7C00u) == 0x7C00u ? 1 : 0;
        ++steps;
      }
    }
  }
  EXPECT_GE(steps, 1'000'000u);
  // Every class of result occurs: overflow and NaN alongside finite sums.
  EXPECT_GT(nonfinite, steps / 20);
  EXPECT_LT(nonfinite, steps / 2);
}

TEST(NumericsOracle, LargestStepsStayExact) {
  // c + 8 * 65504^2 is the largest step sum, about 2^83 at unit 2^-48: it
  // rounds to infinity, and with alternating signs the same products cancel
  // exactly to c.
  const half mx = hb(0x7BFF);
  const half neg_mx = hb(0xFBFF);
  half a[8];
  half b[8];
  half alt[8];
  for (int i = 0; i < 8; ++i) {
    a[i] = mx;
    b[i] = mx;
    alt[i] = i % 2 == 0 ? mx : neg_mx;
  }
  for (const half c : {mx, neg_mx, hb(0x0001), hb(0x8000)}) {
    for (const half* bb : {static_cast<const half*>(b), static_cast<const half*>(alt)}) {
      for (const half* aa : {static_cast<const half*>(a), static_cast<const half*>(alt)}) {
        EXPECT_EQ(fdp_step_f16(c, aa, bb, 8).bits(),
                  acc320::step_f16(c, aa, bb, 8, GenerationModel{}).bits());
      }
    }
  }
  EXPECT_EQ(fdp_step_f16(mx, a, b, 8).bits(), 0x7C00u);
  EXPECT_EQ(fdp_step_f16(mx, a, alt, 8).bits(), 0x7BFFu);
}

TEST(NumericsOracle, BlockMatchesPerElementDotInBothModes) {
  // dot_f16_block is defined as dot_f16 for every (i, j): compare raw bits,
  // NaN payloads included, since both run the same compiled idealized_sum.
  Rng rng(9102);
  std::size_t outputs = 0;
  std::size_t nans = 0;
  for (int block = 0; block < 2000; ++block) {
    const Draw d = draw_class(rng);
    half a[64];
    half b[64];
    half c[64];
    for (int i = 0; i < 64; ++i) {
      a[i] = draw_operand(rng, d);
      b[i] = draw_operand(rng, d);
      c[i] = draw_operand(rng, d);
    }
    for (const NumericsMode mode : {NumericsMode::kIdealized, NumericsMode::kBitAccurate}) {
      half d_out[64];
      dot_f16_block(mode, c, a, b, d_out);
      for (int i = 0; i < 8; ++i) {
        for (int j = 0; j < 8; ++j) {
          const half want = dot_f16(mode, c[i * 8 + j], a + i * 8, b + j * 8, 8);
          ASSERT_EQ(d_out[i * 8 + j].bits(), want.bits())
              << "block " << block << " (" << i << ", " << j << ") mode "
              << numerics_mode_name(mode);
          nans += want.is_nan() ? 1 : 0;
          ++outputs;
        }
      }
      // In place: d may be c.
      half inplace[64];
      std::copy(std::begin(c), std::end(c), std::begin(inplace));
      dot_f16_block(mode, inplace, a, b, inplace);
      for (int ij = 0; ij < 64; ++ij) ASSERT_EQ(inplace[ij].bits(), d_out[ij].bits());
    }
  }
  EXPECT_EQ(outputs, 256'000u);
  EXPECT_GT(nans, outputs / 20);
}

}  // namespace
}  // namespace tc::numerics
