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

/// C(i, j) = `step` chained left to right over row i of A and row j of B^T
/// in k-chunks of `width` (the last one may be shorter), starting from +0.
template <typename Acc, typename Step>
HostMatrix<Acc> chain_k(const HalfMatrix& a, const HalfMatrix& bt, std::size_t width,
                        Step step) {
  check_shapes(a, bt);
  const std::size_t m = a.rows();
  const std::size_t n = bt.rows();
  const std::size_t k = a.cols();
  HostMatrix<Acc> c(m, n);
  for (std::size_t i = 0; i < m; ++i) {
    const half* arow = a.data() + i * k;  // rows are contiguous (row-major)
    for (std::size_t j = 0; j < n; ++j) {
      const half* brow = bt.data() + j * k;
      Acc acc(0.0f);
      for (std::size_t l = 0; l < k; l += width) {
        acc = step(acc, arow + l, brow + l, static_cast<int>(std::min(width, k - l)));
      }
      c.at(i, j) = acc;
    }
  }
  return c;
}

}  // namespace

HalfMatrix gemm_bitacc_f16(const HalfMatrix& a, const HalfMatrix& bt,
                           const GenerationModel& model) {
  return chain_k<half>(a, bt, static_cast<std::size_t>(model.terms_per_step),
                       [&](half acc, const half* x, const half* y, int width) {
                         return fdp_step_f16(acc, x, y, width, model);
                       });
}

FloatMatrix gemm_bitacc_f32(const HalfMatrix& a, const HalfMatrix& bt,
                            const GenerationModel& model) {
  return chain_k<float>(a, bt, static_cast<std::size_t>(model.terms_per_step),
                        [&](float acc, const half* x, const half* y, int width) {
                          return fdp_step_f32(acc, x, y, width, model);
                        });
}

HalfMatrix gemm_idealized_f16(const HalfMatrix& a, const HalfMatrix& bt) {
  return chain_k<half>(a, bt, 8, [](half acc, const half* x, const half* y, int width) {
    return dot_f16(NumericsMode::kIdealized, acc, x, y, width);
  });
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
    const HalfMatrix bit16 = gemm_bitacc_f16(a, bt, opts.model);
    const FloatMatrix bit32 = gemm_bitacc_f32(a, bt, opts.model);

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
