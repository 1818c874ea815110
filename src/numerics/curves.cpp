#include "numerics/curves.hpp"

#include <algorithm>
#include <cmath>
#include <cstddef>

#include "common/error.hpp"

namespace tc::numerics {

namespace {

void check_shapes(const HalfMatrix& a, const HalfMatrix& bt) {
  TC_CHECK(a.cols() == bt.cols(), "A is m x k and B^T is n x k: k must match");
  TC_CHECK(a.layout() == Layout::kRowMajor && bt.layout() == Layout::kRowMajor,
           "numerics references expect row-major A and B^T");
}

double rel_err(double v, double ref) {
  const double denom = std::max(std::abs(ref), 1e-30);
  return std::abs(v - ref) / denom;
}

/// `acc` chained left to right through dot_f16 over x[from, k) and
/// y[from, k) in k-chunks of 8, the last one possibly shorter: the walk of
/// one output element.
half chain_f16(NumericsMode mode, half acc, const half* x, const half* y, std::size_t from,
               std::size_t k) {
  for (std::size_t l = from; l < k; l += 8) {
    acc = dot_f16(mode, acc, x + l, y + l, static_cast<int>(std::min<std::size_t>(8, k - l)));
  }
  return acc;
}

/// C = A * B^T' in F16-accumulate HMMA math: each output element is
/// chain_f16 from +0 over all of k. A full 8x8 output tile runs each full
/// k-chunk through dot_f16_block on copied 8x8 tiles of A and B^T, so every
/// operand is decoded once per tile instead of once per output element; the
/// k tail, and every k-chunk of a tile on the m or n edge, take chain_f16
/// per element. dot_f16_block is dot_f16 on every element, so the result is
/// the same bit for bit.
HalfMatrix gemm_f16(NumericsMode mode, const HalfMatrix& a, const HalfMatrix& bt) {
  check_shapes(a, bt);
  const std::size_t m = a.rows();
  const std::size_t n = bt.rows();
  const std::size_t k = a.cols();
  HalfMatrix c(m, n);
  half* out = c.data();  // row-major, like A and B^T
  for (std::size_t i0 = 0; i0 < m; i0 += 8) {
    for (std::size_t j0 = 0; j0 < n; j0 += 8) {
      const std::size_t rows = std::min<std::size_t>(8, m - i0);
      const std::size_t cols = std::min<std::size_t>(8, n - j0);
      const std::size_t blocked_k = rows == 8 && cols == 8 ? k - k % 8 : 0;
      half acc[64] = {};  // +0
      half ta[64];
      half tb[64];
      for (std::size_t l = 0; l < blocked_k; l += 8) {
        for (std::size_t r = 0; r < 8; ++r) {
          std::copy_n(a.data() + (i0 + r) * k + l, 8, ta + r * 8);
          std::copy_n(bt.data() + (j0 + r) * k + l, 8, tb + r * 8);
        }
        dot_f16_block(mode, acc, ta, tb, acc);
      }
      for (std::size_t r = 0; r < rows; ++r) {
        for (std::size_t s = 0; s < cols; ++s) {
          out[(i0 + r) * n + j0 + s] = chain_f16(mode, acc[r * 8 + s], a.data() + (i0 + r) * k,
                                                 bt.data() + (j0 + s) * k, blocked_k, k);
        }
      }
    }
  }
  return c;
}

}  // namespace

HalfMatrix gemm_bitacc_f16(const HalfMatrix& a, const HalfMatrix& bt) {
  return gemm_f16(NumericsMode::kBitAccurate, a, bt);
}

FloatMatrix gemm_bitacc_f32(const HalfMatrix& a, const HalfMatrix& bt) {
  check_shapes(a, bt);
  const std::size_t m = a.rows();
  const std::size_t n = bt.rows();
  const std::size_t k = a.cols();
  FloatMatrix c(m, n);
  for (std::size_t i = 0; i < m; ++i) {
    const half* arow = a.data() + i * k;  // rows are contiguous (row-major)
    for (std::size_t j = 0; j < n; ++j) {
      const half* brow = bt.data() + j * k;
      float acc = 0.0f;
      for (std::size_t l = 0; l < k; l += 8) {
        acc = dot_f32(NumericsMode::kBitAccurate, acc, arow + l, brow + l,
                      static_cast<int>(std::min<std::size_t>(8, k - l)));
      }
      c.at(i, j) = acc;
    }
  }
  return c;
}

HalfMatrix gemm_idealized_f16(const HalfMatrix& a, const HalfMatrix& bt) {
  return gemm_f16(NumericsMode::kIdealized, a, bt);
}

std::vector<double> gemm_oracle_f64(const HalfMatrix& a, const HalfMatrix& bt) {
  check_shapes(a, bt);
  const std::size_t m = a.rows();
  const std::size_t n = bt.rows();
  const std::size_t k = a.cols();
  std::vector<double> c(m * n, 0.0);
  for (std::size_t i = 0; i < m; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      double acc = 0.0;
      for (std::size_t l = 0; l < k; ++l) {
        // FP16 -> double is exact and the product of two 11-bit significands
        // is exact in double, so the only oracle error is the final sum's
        // double rounding — ~2^-52 per term, negligible against FP16/FP32.
        acc += static_cast<double>(a.at(i, l).to_float()) *
               static_cast<double>(bt.at(j, l).to_float());
      }
      c[i * n + j] = acc;
    }
  }
  return c;
}

std::vector<ErrorPoint> error_curves(const CurveOptions& opts) {
  std::vector<ErrorPoint> points;
  points.reserve(opts.ks.size());
  for (const std::size_t k : opts.ks) {
    Rng rng(opts.seed + k);
    HalfMatrix a(opts.m, k);
    HalfMatrix bt(opts.n, k);
    a.randomize(rng, opts.lo, opts.hi);
    bt.randomize(rng, opts.lo, opts.hi);

    const std::vector<double> oracle = gemm_oracle_f64(a, bt);
    const HalfMatrix ideal = gemm_idealized_f16(a, bt);
    const HalfMatrix bit16 = gemm_bitacc_f16(a, bt);
    const FloatMatrix bit32 = gemm_bitacc_f32(a, bt);

    ErrorPoint p;
    p.k = k;
    const std::size_t count = opts.m * opts.n;
    for (std::size_t i = 0; i < opts.m; ++i) {
      for (std::size_t j = 0; j < opts.n; ++j) {
        const double ref = oracle[i * opts.n + j];
        const double e_ideal = rel_err(static_cast<double>(ideal.at(i, j).to_float()), ref);
        const double e_b16 = rel_err(static_cast<double>(bit16.at(i, j).to_float()), ref);
        const double e_b32 = rel_err(static_cast<double>(bit32.at(i, j)), ref);
        p.idealized_f16.max_rel = std::max(p.idealized_f16.max_rel, e_ideal);
        p.bitacc_f16.max_rel = std::max(p.bitacc_f16.max_rel, e_b16);
        p.bitacc_f32.max_rel = std::max(p.bitacc_f32.max_rel, e_b32);
        p.idealized_f16.mean_rel += e_ideal;
        p.bitacc_f16.mean_rel += e_b16;
        p.bitacc_f32.mean_rel += e_b32;
      }
    }
    p.idealized_f16.mean_rel /= static_cast<double>(count);
    p.bitacc_f16.mean_rel /= static_cast<double>(count);
    p.bitacc_f32.mean_rel /= static_cast<double>(count);
    points.push_back(p);
  }
  return points;
}

}  // namespace tc::numerics
