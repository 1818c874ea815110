#include "mem/coalescer.hpp"

#include <algorithm>

#include "common/error.hpp"
#include "mem/sector_cache.hpp"

namespace tc::mem {

void SectorList::push(std::uint64_t sector) {
  TC_ASSERT(size_ < kMaxWarpSectors, "warp access touches too many sectors");
  data_[size_++] = sector;
}

void SectorList::sort_unique() {
  std::uint64_t* const first = data_.data();
  std::sort(first, first + size_);
  size_ = static_cast<std::size_t>(std::unique(first, first + size_) - first);
}

SectorList coalesce_sectors(std::span<const std::uint32_t> lane_addrs,
                            std::span<const bool> active, sass::MemWidth width) {
  TC_CHECK(lane_addrs.size() == 32 && active.size() == 32, "warp access needs 32 lanes");
  const auto bytes = static_cast<std::uint32_t>(sass::width_bytes(width));

  SectorList sectors;
  for (std::size_t lane = 0; lane < 32; ++lane) {
    if (!active[lane]) continue;
    const std::uint64_t lo = lane_addrs[lane] / kSectorBytes;
    const std::uint64_t hi = (lane_addrs[lane] + bytes - 1) / kSectorBytes;
    for (std::uint64_t s = lo; s <= hi; ++s) sectors.push(s * kSectorBytes);
  }
  sectors.sort_unique();
  return sectors;
}

}  // namespace tc::mem
