// Reference GEMM implementations used to validate the simulated kernels.
//
// Conventions (paper Section VII): A is m x k row-major, B is supplied as
// B^T, an n x k row-major matrix (i.e. B column-major), C is m x n row-major.
//
// Two references:
//  * gemm_ref_f32   — FP32 accumulation throughout; the "ground truth" the
//    kernels are compared against with a tolerance.
//  * gemm_ref_tc    — bit-exact model of the Tensor-Core kernels in the
//    idealized numerics: k is consumed in chunks of 8; each chunk's dot
//    product is accumulated in FP32 and rounded once to FP16, matching
//    HMMA.1688.F16 semantics and accumulation order. It is
//    numerics::gemm_idealized_f16 under its historic name; both run the
//    same compiled numerics::dot_f16 as the executor, so simulated kernel
//    outputs equal it bit for bit, NaN payloads included.
#pragma once

#include "common/matrix.hpp"

namespace tc::core {

/// C = A * B^T' with FP32 accumulation (bt is n x k: bt(j, l) = B(l, j)).
[[nodiscard]] FloatMatrix gemm_ref_f32(const HalfMatrix& a, const HalfMatrix& bt);

/// Bit-exact Tensor Core reference (see header comment).
[[nodiscard]] HalfMatrix gemm_ref_tc(const HalfMatrix& a, const HalfMatrix& bt);

/// Bit-exact model of the scaled-epilogue kernel: for each element,
/// acc = gemm_ref_tc value, then round16(beta * c0), then
/// fma_round_half(alpha, acc, that) — matching the HMUL2/HFMA2 epilogue.
[[nodiscard]] HalfMatrix gemm_ref_tc_axpby(const HalfMatrix& a, const HalfMatrix& bt,
                                           const HalfMatrix& c0, float alpha, float beta);

/// Largest absolute elementwise difference |c - ref|.
[[nodiscard]] double max_abs_diff(const HalfMatrix& c, const FloatMatrix& ref);

/// Count of elements whose raw FP16 bit patterns differ. Strict: two NaNs
/// with different payloads or signs differ, and so do +0 and -0.
[[nodiscard]] std::size_t mismatch_count(const HalfMatrix& c, const HalfMatrix& ref);

}  // namespace tc::core
