#include "core/reference.hpp"

#include "common/error.hpp"
#include "numerics/curves.hpp"

namespace tc::core {

namespace {
void check_shapes(const HalfMatrix& a, const HalfMatrix& bt) {
  TC_CHECK(a.cols() == bt.cols(), "A is m x k and B^T is n x k: k must match");
  TC_CHECK(a.layout() == Layout::kRowMajor && bt.layout() == Layout::kRowMajor,
           "references expect row-major A and B^T");
}
}  // namespace

FloatMatrix gemm_ref_f32(const HalfMatrix& a, const HalfMatrix& bt) {
  check_shapes(a, bt);
  const std::size_t m = a.rows();
  const std::size_t n = bt.rows();
  const std::size_t k = a.cols();
  FloatMatrix c(m, n);
  for (std::size_t i = 0; i < m; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      float acc = 0.0f;
      for (std::size_t l = 0; l < k; ++l) {
        acc += a.at(i, l).to_float() * bt.at(j, l).to_float();
      }
      c.at(i, j) = acc;
    }
  }
  return c;
}

HalfMatrix gemm_ref_tc(const HalfMatrix& a, const HalfMatrix& bt) {
  return numerics::gemm_idealized_f16(a, bt);
}

HalfMatrix gemm_ref_tc_axpby(const HalfMatrix& a, const HalfMatrix& bt, const HalfMatrix& c0,
                             float alpha, float beta) {
  TC_CHECK(c0.rows() == a.rows() && c0.cols() == bt.rows(), "C shape mismatch");
  HalfMatrix c = gemm_ref_tc(a, bt);
  const half ah(alpha);
  const half bh(beta);
  for (std::size_t i = 0; i < c.rows(); ++i) {
    for (std::size_t j = 0; j < c.cols(); ++j) {
      const half scaled_c = bh.to_float() == 0.0f ? half(0.0f) : bh * c0.at(i, j);
      c.at(i, j) = fma_round_half(ah, c.at(i, j), scaled_c);
    }
  }
  return c;
}

double max_abs_diff(const HalfMatrix& c, const FloatMatrix& ref) {
  TC_CHECK(c.rows() == ref.rows() && c.cols() == ref.cols(), "shape mismatch");
  double worst = 0.0;
  for (std::size_t i = 0; i < c.rows(); ++i) {
    for (std::size_t j = 0; j < c.cols(); ++j) {
      const double d = std::abs(static_cast<double>(c.at(i, j).to_float()) - ref.at(i, j));
      worst = std::max(worst, d);
    }
  }
  return worst;
}

std::size_t mismatch_count(const HalfMatrix& c, const HalfMatrix& ref) {
  TC_CHECK(c.rows() == ref.rows() && c.cols() == ref.cols(), "shape mismatch");
  std::size_t count = 0;
  for (std::size_t i = 0; i < c.rows(); ++i) {
    for (std::size_t j = 0; j < c.cols(); ++j) {
      count += c.at(i, j).bits() != ref.at(i, j).bits() ? 1 : 0;
    }
  }
  return count;
}

}  // namespace tc::core
