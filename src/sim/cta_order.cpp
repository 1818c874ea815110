#include "sim/cta_order.hpp"

#include <algorithm>
#include <utility>

#include "common/error.hpp"
#include "sim/launch.hpp"

namespace tc::sim {
namespace {

/// One quadrant rotation/reflection step of the Hilbert curve.
void hilbert_rot(std::uint64_t s, std::uint64_t& x, std::uint64_t& y, std::uint64_t rx,
                 std::uint64_t ry) {
  if (ry == 0) {
    if (rx == 1) {
      x = s - 1 - x;
      y = s - 1 - y;
    }
    std::swap(x, y);
  }
}

/// Curve index -> (x, y) on a side x side Hilbert curve (side a power of 2).
/// The model-side trace generator uses the inverse map (xy2d); the property
/// suite pins the two against each other.
std::pair<std::uint64_t, std::uint64_t> hilbert_d2xy(std::uint64_t side, std::uint64_t d) {
  std::uint64_t x = 0;
  std::uint64_t y = 0;
  std::uint64_t t = d;
  for (std::uint64_t s = 1; s < side; s <<= 1) {
    const std::uint64_t rx = 1 & (t / 2);
    const std::uint64_t ry = 1 & (t ^ rx);
    hilbert_rot(s, x, y, rx, ry);
    x += s * rx;
    y += s * ry;
    t >>= 2;
  }
  return {x, y};
}

}  // namespace

const char* launch_order_name(LaunchOrder order) {
  switch (order) {
    case LaunchOrder::kRowMajor:
      return "rowmajor";
    case LaunchOrder::kSwizzled:
      return "swizzled";
    case LaunchOrder::kSupertile:
      return "supertile";
    case LaunchOrder::kSerpentine:
      return "serpentine";
    case LaunchOrder::kHilbert:
      return "hilbert";
  }
  return "unknown";
}

LaunchOrder launch_order_from_name(const std::string& name) {
  if (name == "rowmajor") return LaunchOrder::kRowMajor;
  if (name == "swizzled") return LaunchOrder::kSwizzled;
  if (name == "supertile") return LaunchOrder::kSupertile;
  if (name == "serpentine") return LaunchOrder::kSerpentine;
  if (name == "hilbert") return LaunchOrder::kHilbert;
  TC_CHECK(false, "unknown launch order name: " + name);
  return LaunchOrder::kRowMajor;
}

CtaSource::CtaSource(const Launch& launch)
    : order_(launch.launch_order),
      grid_x_(launch.grid_x),
      grid_y_(launch.grid_y),
      supertile_width_(static_cast<std::uint32_t>(launch.supertile_width)),
      plane_(static_cast<std::uint64_t>(launch.grid_x) * launch.grid_y),
      total_(launch.num_ctas()) {
  TC_CHECK(grid_x_ >= 1 && grid_y_ >= 1, "CtaSource: empty grid");
  TC_CHECK(launch.supertile_width >= 1, "CtaSource: supertile width must be >= 1");
  while (hilbert_side_ < grid_x_ || hilbert_side_ < grid_y_) hilbert_side_ <<= 1;
}

std::optional<CtaCoord> CtaSource::next() {
  if (issued_ >= total_) return std::nullopt;
  const std::uint64_t i = issued_ % plane_;  // index inside the z plane
  const auto z = static_cast<std::uint32_t>(issued_ / plane_);
  ++issued_;
  if (i == 0) hilbert_d_ = 0;  // each z plane re-walks the curve from its start
  switch (order_) {
    case LaunchOrder::kRowMajor:
    case LaunchOrder::kSwizzled: {
      // kSwizzled is an analytic patch shape, not a concrete dispatch order;
      // the simulator realizes it as the hardware row-major walk.
      return CtaCoord{static_cast<std::uint32_t>(i % grid_x_),
                      static_cast<std::uint32_t>(i / grid_x_), z};
    }
    case LaunchOrder::kSerpentine: {
      const std::uint64_t y = i / grid_x_;
      const std::uint64_t r = i % grid_x_;
      const std::uint64_t x = (y % 2 == 1) ? grid_x_ - 1 - r : r;
      return CtaCoord{static_cast<std::uint32_t>(x), static_cast<std::uint32_t>(y), z};
    }
    case LaunchOrder::kSupertile: {
      const std::uint64_t w = std::min<std::uint64_t>(supertile_width_, grid_x_);
      const std::uint64_t full_panels = grid_x_ / w;
      const std::uint64_t full_cells = full_panels * w * grid_y_;
      if (i < full_cells) {
        const std::uint64_t panel = i / (w * grid_y_);
        const std::uint64_t r = i % (w * grid_y_);
        return CtaCoord{static_cast<std::uint32_t>(panel * w + r % w),
                        static_cast<std::uint32_t>(r / w), z};
      }
      // Trailing partial panel of grid_x % w columns.
      const std::uint64_t j = i - full_cells;
      const std::uint64_t rem = grid_x_ - full_panels * w;
      return CtaCoord{static_cast<std::uint32_t>(full_panels * w + j % rem),
                      static_cast<std::uint32_t>(j / rem), z};
    }
    case LaunchOrder::kHilbert: {
      for (;;) {
        const auto [x, y] = hilbert_d2xy(hilbert_side_, hilbert_d_++);
        if (x < grid_x_ && y < grid_y_) {
          return CtaCoord{static_cast<std::uint32_t>(x), static_cast<std::uint32_t>(y), z};
        }
      }
    }
  }
  TC_CHECK(false, "CtaSource: unhandled launch order");
  return std::nullopt;
}

}  // namespace tc::sim
