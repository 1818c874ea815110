// Matrix-level bit-accurate GEMM references and error-vs-shape curves.
//
// These lift the per-element step semantics of numerics.hpp to whole
// matrices using the repo's GEMM convention (A is m x k row-major, B is
// supplied transposed as an n x k row-major matrix). A kernel that chains
// HMMA.1688 over k in wk = 8 chunks through a register accumulator computes
// exactly a sequential walk of fused steps per output element, so these
// functions are the bit-exact oracle for the functional executor running in
// NumericsMode::kBitAccurate (tests/test_numerics.cpp proves the e2e match).
//
// error_curves() reproduces the FP16- vs FP32-accumulate precision
// observations of the related work ("Accurate Models of NVIDIA Tensor
// Cores"): FP16 accumulation loses accuracy roughly with k while FP32
// accumulation stays flat. `tcgemm_cli numerics` emits them as tc-cli-v1
// JSON; the golden fixtures live in tests/test_numerics.cpp.
#pragma once

#include <cstdint>
#include <vector>

#include "common/matrix.hpp"
#include "numerics/numerics.hpp"

namespace tc::numerics {

/// C = A * B^T' with bit-accurate FP16 accumulation: each output element is
/// a left-to-right chain of the Turing model's 4-wide fused steps
/// (dot_f16(kBitAccurate) over k-chunks of 8), the accumulator rounding to
/// binary16 at every step boundary.
[[nodiscard]] HalfMatrix gemm_bitacc_f16(const HalfMatrix& a, const HalfMatrix& bt);

/// Same walk with a binary32 accumulator (dot_f32(kBitAccurate): round-
/// toward-zero per step), rounded to FP16 once at the very end — the HMMA
/// .F32 epilogue-store semantics.
[[nodiscard]] FloatMatrix gemm_bitacc_f32(const HalfMatrix& a, const HalfMatrix& bt);

/// The idealized semantics: a chain of dot_f16(kIdealized) over k-chunks of
/// 8 (one FP32 dot per chunk, rounded once to FP16; the last chunk may be
/// shorter). The one matrix-level idealized loop: core::gemm_ref_tc is this
/// function, and it lives here so error_curves() can use it below tc_core.
///
/// Both F16 references run each full 8x8 output tile's full k-chunks through
/// dot_f16_block, which decodes every operand once per tile, and walk the k
/// tail and the m and n edges one element at a time; the result is the
/// per-element chain's, bit for bit.
[[nodiscard]] HalfMatrix gemm_idealized_f16(const HalfMatrix& a, const HalfMatrix& bt);

/// Double-precision oracle (exact products, double accumulation).
[[nodiscard]] std::vector<double> gemm_oracle_f64(const HalfMatrix& a, const HalfMatrix& bt);

struct ErrorStats {
  double max_rel = 0.0;
  double mean_rel = 0.0;
};

/// One point of the error-vs-k curve: all three semantics against the
/// double oracle at the same inputs.
struct ErrorPoint {
  std::size_t k = 0;
  ErrorStats idealized_f16;
  ErrorStats bitacc_f16;
  ErrorStats bitacc_f32;
};

struct CurveOptions {
  std::size_t m = 64;
  std::size_t n = 64;
  std::vector<std::size_t> ks = {64, 128, 256, 512, 1024};
  std::uint64_t seed = 1;
  // Positive operands by default: with sign cancellation the oracle passes
  // near zero and relative error is dominated by a handful of catastrophic
  // cases, burying the accumulate-width signal the curves exist to show.
  float lo = 0.0f;
  float hi = 1.0f;
};

/// Sweeps k, drawing fresh deterministic inputs per point (seed + k).
[[nodiscard]] std::vector<ErrorPoint> error_curves(const CurveOptions& opts);

}  // namespace tc::numerics
