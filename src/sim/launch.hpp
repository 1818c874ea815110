// Kernel launch description shared by the functional and timing engines.
#pragma once

#include <cstdint>
#include <vector>

#include "numerics/numerics.hpp"
#include "sass/program.hpp"
#include "sim/cta_order.hpp"
#include "sim/engine.hpp"

namespace tc::sim {

/// Grid of CTAs (2D tile grid plus a z axis for batched / split-K GemmOp
/// launches) plus kernel parameters.
/// Parameters are 32-bit words read by MOV.PARAM — device pointers, matrix
/// dimensions, leading strides.
struct Launch {
  const sass::Program* program = nullptr;
  std::uint32_t grid_x = 1;
  std::uint32_t grid_y = 1;
  /// Batch / split-K slice axis (SR_CTAID.Z); dispatch is z-outer, so each
  /// z plane is walked in the configured 2D launch order before the next.
  std::uint32_t grid_z = 1;
  std::vector<std::uint32_t> params;
  /// CTA dispatch order, walked by sim::CtaSource. kRowMajor and kSwizzled
  /// both dispatch in hardware row-major order (kSwizzled is an analytic
  /// model patch, not a concrete walk).
  LaunchOrder launch_order = LaunchOrder::kRowMajor;
  /// Panel width for kSupertile; ignored by every other order.
  int supertile_width = 8;
  /// HMMA math semantics for this launch (both the functional and timed
  /// engines honor it): the historic idealized single-rounding model, or
  /// the bit-accurate SMT-formalization model (numerics/numerics.hpp).
  numerics::NumericsMode numerics = numerics::NumericsMode::kIdealized;
  /// Functional execution engine: the instruction interpreter (the oracle)
  /// or the block JIT. Bitwise-identical results by contract; the timing
  /// engine ignores this field (it models issue, not results).
  ExecEngine engine = ExecEngine::kInterpret;

  [[nodiscard]] std::uint64_t num_ctas() const {
    return static_cast<std::uint64_t>(grid_x) * grid_y * grid_z;
  }
  [[nodiscard]] std::uint32_t cta_threads() const { return program->cta_threads; }
  [[nodiscard]] std::uint32_t warps_per_cta() const { return program->cta_threads / 32; }
};

}  // namespace tc::sim
