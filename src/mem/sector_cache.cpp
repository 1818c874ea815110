#include "mem/sector_cache.hpp"

#include <bit>

#include "common/error.hpp"

namespace tc::mem {

SectorCache::SectorCache(std::uint64_t size_bytes, int ways)
    : size_bytes_(size_bytes), ways_(ways) {
  TC_CHECK(ways_ > 0, "cache needs at least one way");
  const std::uint64_t lines = size_bytes_ / kLineBytes;
  TC_CHECK(lines % static_cast<std::uint64_t>(ways_) == 0, "cache size not divisible by ways");
  num_sets_ = static_cast<int>(lines / static_cast<std::uint64_t>(ways_));
  TC_CHECK(std::has_single_bit(static_cast<std::uint64_t>(num_sets_)),
           "number of sets must be a power of two");
  lines_.resize(lines);
}

HitLevel SectorCache::access(std::uint64_t addr) {
  const std::uint64_t line_addr = addr / kLineBytes;
  const auto sector = static_cast<int>((addr / kSectorBytes) % kSectorsPerLine);
  const auto set = static_cast<std::uint64_t>(line_addr & (static_cast<std::uint64_t>(num_sets_) - 1));
  const std::uint64_t tag = line_addr >> std::countr_zero(static_cast<std::uint64_t>(num_sets_));
  const std::uint8_t sector_bit = static_cast<std::uint8_t>(1u << sector);

  Line* base = &lines_[set * static_cast<std::uint64_t>(ways_)];
  ++tick_;

  Line* victim = base;
  for (int w = 0; w < ways_; ++w) {
    Line& line = base[w];
    if (line.tag == tag) {
      line.lru = tick_;
      if (line.sector_valid & sector_bit) {
        ++stats_.sector_hits;
        return HitLevel::kHit;
      }
      line.sector_valid |= sector_bit;
      ++stats_.sector_misses;
      return HitLevel::kMiss;
    }
    if (line.lru < victim->lru) victim = &base[w];
  }

  // Line miss: evict LRU way, fill only the touched sector.
  victim->tag = tag;
  victim->sector_valid = sector_bit;
  victim->lru = tick_;
  ++stats_.sector_misses;
  return HitLevel::kMiss;
}

bool SectorCache::contains(std::uint64_t addr) const {
  const std::uint64_t line_addr = addr / kLineBytes;
  const auto sector = static_cast<int>((addr / kSectorBytes) % kSectorsPerLine);
  const auto set = static_cast<std::uint64_t>(line_addr & (static_cast<std::uint64_t>(num_sets_) - 1));
  const std::uint64_t tag = line_addr >> std::countr_zero(static_cast<std::uint64_t>(num_sets_));
  const Line* base = &lines_[set * static_cast<std::uint64_t>(ways_)];
  for (int w = 0; w < ways_; ++w) {
    if (base[w].tag == tag && (base[w].sector_valid & (1u << sector))) return true;
  }
  return false;
}

}  // namespace tc::mem
