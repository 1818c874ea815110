// Global-access coalescer: maps a warp's LDG/STG lane addresses onto the set
// of distinct 32-byte sectors the memory system must move.
//
// Coalescing is what makes the paper's Eq. (4) work: a warp-wide LDG.128 of
// consecutive lanes touches 512 bytes = 16 sectors, and the MIO/L2 cost is
// proportional to sectors, not lanes.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <span>

#include "sass/isa.hpp"

namespace tc::mem {

/// Most sectors one warp access can touch: 32 lanes of at most 16 B, and a
/// 16 B span crosses at most one 32 B sector boundary.
inline constexpr std::size_t kMaxWarpSectors = 64;

/// Sector base addresses of one warp access, held by value so costing an
/// access allocates nothing.
class SectorList {
 public:
  [[nodiscard]] std::size_t size() const { return size_; }
  [[nodiscard]] const std::uint64_t* begin() const { return data_.data(); }
  [[nodiscard]] const std::uint64_t* end() const { return data_.data() + size_; }

  /// Appends `sector`; a warp access never exceeds kMaxWarpSectors.
  void push(std::uint64_t sector);
  /// Sorts ascending and drops repeats.
  void sort_unique();

 private:
  std::array<std::uint64_t, kMaxWarpSectors> data_{};
  std::size_t size_ = 0;
};

/// Distinct 32B sector base addresses touched by one warp access, ascending.
[[nodiscard]] SectorList coalesce_sectors(std::span<const std::uint32_t> lane_addrs,
                                          std::span<const bool> active, sass::MemWidth width);

}  // namespace tc::mem
