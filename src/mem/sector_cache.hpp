// Set-associative sector cache model, used for both L1 (per SM) and L2
// (device-wide) hit/miss classification.
//
// NVIDIA caches since Pascal manage 128-byte lines split into four 32-byte
// sectors; a miss fills only the touched sector. This model keeps tags per
// line, a presence bit per sector, and LRU replacement per set. It is a
// timing classifier: data always lives in GlobalMemory; the cache decides
// which level serves each sector and what bandwidth it consumes.
#pragma once

#include <cstdint>
#include <vector>

namespace tc::mem {

inline constexpr std::uint32_t kLineBytes = 128;
inline constexpr std::uint32_t kSectorBytes = 32;
inline constexpr int kSectorsPerLine = 4;

enum class HitLevel { kHit, kMiss };

/// Statistics for bandwidth accounting and tests.
struct CacheStats {
  std::uint64_t sector_hits = 0;
  std::uint64_t sector_misses = 0;
  [[nodiscard]] double hit_rate() const {
    const double total = static_cast<double>(sector_hits + sector_misses);
    return total == 0 ? 0.0 : static_cast<double>(sector_hits) / total;
  }
};

class SectorCache {
 public:
  /// `size_bytes` total capacity, `ways` associativity.
  SectorCache(std::uint64_t size_bytes, int ways);

  /// Looks up one 32-byte sector (by any byte address inside it); on miss the
  /// sector is filled (allocate-on-miss for both loads and stores).
  HitLevel access(std::uint64_t addr);

  /// Non-allocating probe (for tests).
  [[nodiscard]] bool contains(std::uint64_t addr) const;

  [[nodiscard]] const CacheStats& stats() const { return stats_; }

  [[nodiscard]] std::uint64_t size_bytes() const { return size_bytes_; }
  [[nodiscard]] int num_sets() const { return num_sets_; }

 private:
  struct Line {
    std::uint64_t tag = ~std::uint64_t{0};
    std::uint8_t sector_valid = 0;  // bit per sector
    std::uint64_t lru = 0;
  };

  std::uint64_t size_bytes_;
  int ways_;
  int num_sets_;
  std::uint64_t tick_ = 0;
  std::vector<Line> lines_;  // num_sets_ * ways_
  CacheStats stats_;
};

}  // namespace tc::mem
