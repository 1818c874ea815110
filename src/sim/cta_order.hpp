// CTA launch orders: how the GigaThread engine walks the 2D grid.
//
// The order a grid is dispatched in decides which CTA tiles are co-resident
// during a wave, and therefore which A-row / B-column slabs can share L2.
// Row-major (the hardware default) keeps a wave inside one long grid row on
// wide grids, so B reuse collapses once grid_x exceeds the wave size — the
// cuBLAS W~12032 cliff the paper autopsies. The locality-preserving orders
// below (supertile / serpentine / Hilbert) keep the wave's footprint closer
// to square, holding per-wave L2 reuse through arbitrarily wide grids.
//
// The same orders exist twice in the tree on purpose: here as the CtaSource
// driving TimedDevice, and independently as trace generators feeding the
// model's stack-distance sampler (model/stack_distance.*). A property test
// pins both implementations to the identical permutation of the grid.
#pragma once

#include <cstdint>
#include <optional>
#include <string>

namespace tc::sim {

/// CTA dispatch order over the grid.
enum class LaunchOrder {
  /// Hardware launch order: x fastest, then y.
  kRowMajor,
  /// Abstract cuBLAS-style L2 swizzle: modeled with the closed-form
  /// `model::l2_reuse` heuristic (including its grid_x cliff), dispatched
  /// row-major in simulation. This is the legacy default everywhere.
  kSwizzled,
  /// Width-S column panels: the grid is cut into vertical panels of
  /// `supertile_width` columns; each panel is walked row-major (x fastest
  /// within the panel) before the next panel starts.
  kSupertile,
  /// Row-major with every odd row traversed right-to-left (boustrophedon).
  kSerpentine,
  /// Hilbert curve over the smallest bounding 2^k square; cells outside the
  /// grid are skipped, preserving bijectivity on non-square grids.
  kHilbert,
};

[[nodiscard]] const char* launch_order_name(LaunchOrder order);

/// Inverse of launch_order_name; throws on an unknown name.
[[nodiscard]] LaunchOrder launch_order_from_name(const std::string& name);

/// CTA coordinates within a launch's grid.
struct CtaCoord {
  std::uint32_t x = 0;
  std::uint32_t y = 0;
  std::uint32_t z = 0;
};

struct Launch;

/// Hands out a launch's CTAs to SMs as their resident slots free up — the
/// GigaThread engine of a full-device simulation. Dispatch is z-outer: each
/// z plane is walked in the launch's order, from its start, before the next;
/// every CTA is emitted exactly once. The SMs of one TimedDevice share one
/// source and call it from one host thread, in lockstep order.
class CtaSource {
 public:
  explicit CtaSource(const Launch& launch);

  /// Next CTA to place in a freed slot, or nullopt when the grid is drained.
  std::optional<CtaCoord> next();
  /// How many CTAs have been handed out so far.
  [[nodiscard]] std::uint64_t issued() const { return issued_; }

 private:
  LaunchOrder order_;
  std::uint32_t grid_x_;
  std::uint32_t grid_y_;
  std::uint32_t supertile_width_;
  std::uint64_t plane_;  // CTAs per z plane
  std::uint64_t total_;
  std::uint64_t issued_ = 0;
  // Hilbert cursor: side of the bounding square and the next curve index.
  std::uint64_t hilbert_side_ = 1;
  std::uint64_t hilbert_d_ = 0;
};

}  // namespace tc::sim
