// Unit tests for the memory system: banked shared memory, sector caches,
// coalescer, token buckets, paged global memory.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <bit>
#include <cstdint>
#include <numeric>
#include <vector>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "device/spec.hpp"
#include "mem/banked_smem.hpp"
#include "mem/coalescer.hpp"
#include "mem/global_mem.hpp"
#include "mem/sector_cache.hpp"
#include "mem/token_bucket.hpp"

namespace tc::mem {
namespace {

std::array<bool, 32> all_active() {
  std::array<bool, 32> a{};
  a.fill(true);
  return a;
}

TEST(BankConflict, LaneLinear32IsConflictFree) {
  std::array<std::uint32_t, 32> addrs{};
  for (int l = 0; l < 32; ++l) addrs[static_cast<std::size_t>(l)] = static_cast<std::uint32_t>(l) * 4;
  const auto active = all_active();
  const auto cost = smem_access_cost(addrs, active, sass::MemWidth::k32, false);
  EXPECT_TRUE(cost.conflict_free());
  EXPECT_EQ(cost.phases, 1);
}

TEST(BankConflict, StrideTwoWordsIsTwoWay) {
  std::array<std::uint32_t, 32> addrs{};
  for (int l = 0; l < 32; ++l) addrs[static_cast<std::size_t>(l)] = static_cast<std::uint32_t>(l) * 8;
  const auto active = all_active();
  const auto cost = smem_access_cost(addrs, active, sass::MemWidth::k32, false);
  EXPECT_DOUBLE_EQ(cost.conflict_factor(), 2.0);
}

TEST(BankConflict, StrideThirtyTwoWordsIsFullSerialization) {
  std::array<std::uint32_t, 32> addrs{};
  for (int l = 0; l < 32; ++l) {
    addrs[static_cast<std::size_t>(l)] = static_cast<std::uint32_t>(l) * 32 * 4;
  }
  const auto active = all_active();
  const auto cost = smem_access_cost(addrs, active, sass::MemWidth::k32, false);
  EXPECT_DOUBLE_EQ(cost.conflict_factor(), 32.0);
}

TEST(BankConflict, BroadcastReadsAreFree) {
  std::array<std::uint32_t, 32> addrs{};  // all lanes read word 0
  const auto active = all_active();
  const auto load = smem_access_cost(addrs, active, sass::MemWidth::k32, false);
  EXPECT_TRUE(load.conflict_free());
  // Stores to the same word serialize instead.
  const auto store = smem_access_cost(addrs, active, sass::MemWidth::k32, true);
  EXPECT_GT(store.conflict_factor(), 1.0);
}

TEST(BankConflict, Width128LaneLinearConflictFree) {
  std::array<std::uint32_t, 32> addrs{};
  for (int l = 0; l < 32; ++l) addrs[static_cast<std::size_t>(l)] = static_cast<std::uint32_t>(l) * 16;
  const auto active = all_active();
  const auto cost = smem_access_cost(addrs, active, sass::MemWidth::k128, false);
  EXPECT_TRUE(cost.conflict_free());
  EXPECT_EQ(cost.phases, 4);
}

TEST(BankConflict, InactiveLanesIgnored) {
  std::array<std::uint32_t, 32> addrs{};
  for (int l = 0; l < 32; ++l) addrs[static_cast<std::size_t>(l)] = 0;  // would conflict as stores
  std::array<bool, 32> active{};
  active[0] = true;  // only one lane
  const auto cost = smem_access_cost(addrs, active, sass::MemWidth::k32, true);
  EXPECT_TRUE(cost.conflict_free());
}

TEST(BankConflict, MisalignedAccessThrows) {
  std::array<std::uint32_t, 32> addrs{};
  addrs[3] = 2;  // not 4-byte aligned
  const auto active = all_active();
  EXPECT_THROW(smem_access_cost(addrs, active, sass::MemWidth::k32, false), Error);
}

TEST(SharedMemory, ReadWriteRoundTrip) {
  SharedMemory smem(1024);
  smem.write_u32(64, 0xDEADBEEF);
  EXPECT_EQ(smem.read_u32(64), 0xDEADBEEF);
  EXPECT_EQ(smem.read_u32(68), 0u);  // untouched is zero
}

TEST(SharedMemory, OutOfRangeThrows) {
  SharedMemory smem(128);
  EXPECT_THROW(smem.read_u32(128), Error);
  EXPECT_THROW(smem.write_u32(126, 1), Error);
}

TEST(GlobalMemory, AllocAlignmentAndGrowth) {
  GlobalMemory g;
  const auto a = g.alloc(100);
  const auto b = g.alloc(100);
  EXPECT_EQ(a % 256, 0u);
  EXPECT_EQ(b % 256, 0u);
  EXPECT_GT(b, a);
}

TEST(GlobalMemory, NullPointerFaults) {
  GlobalMemory g;
  std::uint8_t buf[4];
  EXPECT_THROW(g.read(0, std::span(buf, 4)), Error);
}

TEST(GlobalMemory, SparsePagesStaySparse) {
  GlobalMemory g;
  const auto base = g.alloc(1ull << 30);  // 1 GiB logical
  std::uint8_t v = 42;
  g.write(base, std::span(&v, 1));
  g.write(base + (1u << 29), std::span(&v, 1));
  EXPECT_LE(g.resident_pages(), 2u);  // only touched pages exist
  std::uint8_t out = 0;
  g.read(base + (1u << 29), std::span(&out, 1));
  EXPECT_EQ(out, 42);
  g.read(base + 12345, std::span(&out, 1));
  EXPECT_EQ(out, 0);  // untouched reads as zero
}

TEST(GlobalMemory, CrossPageAccess) {
  GlobalMemory g;
  const auto base = g.alloc(2 * kPageBytes);
  std::vector<std::uint8_t> data(kPageBytes + 100, 0xAB);
  g.write(base + 50, std::span(data.data(), data.size()));
  std::vector<std::uint8_t> out(data.size());
  g.read(base + 50, std::span(out.data(), out.size()));
  EXPECT_EQ(out, data);
}

TEST(GlobalMemory, OutOfMemoryThrows) {
  GlobalMemory g(1 << 20);
  EXPECT_THROW(g.alloc(2 << 20), Error);
}

TEST(SectorCache, HitAfterFill) {
  SectorCache c(4096, 4);
  EXPECT_EQ(c.access(0x1000), HitLevel::kMiss);
  EXPECT_EQ(c.access(0x1000), HitLevel::kHit);
  EXPECT_EQ(c.access(0x1010), HitLevel::kHit);  // same 32B sector
  EXPECT_EQ(c.access(0x1020), HitLevel::kMiss);  // next sector, same line
  EXPECT_EQ(c.access(0x1020), HitLevel::kHit);
}

TEST(SectorCache, LruEviction) {
  SectorCache c(4096, 2);  // 16 sets, 2 ways
  const int sets = c.num_sets();
  const auto set_stride = static_cast<std::uint64_t>(sets) * kLineBytes;
  // Three lines mapping to set 0: third evicts the first.
  EXPECT_EQ(c.access(0 * set_stride), HitLevel::kMiss);
  EXPECT_EQ(c.access(1 * set_stride), HitLevel::kMiss);
  EXPECT_EQ(c.access(2 * set_stride), HitLevel::kMiss);
  EXPECT_FALSE(c.contains(0 * set_stride));
  EXPECT_TRUE(c.contains(1 * set_stride));
  EXPECT_TRUE(c.contains(2 * set_stride));
}

TEST(SectorCache, StatsTrackHitRate) {
  SectorCache c(4096, 4);
  c.access(0);
  c.access(0);
  c.access(0);
  EXPECT_DOUBLE_EQ(c.stats().hit_rate(), 2.0 / 3.0);
}

TEST(Coalescer, FullyCoalescedWarp128) {
  std::array<std::uint32_t, 32> addrs{};
  for (int l = 0; l < 32; ++l) addrs[static_cast<std::size_t>(l)] = static_cast<std::uint32_t>(l) * 16;
  std::array<bool, 32> active{};
  active.fill(true);
  const auto sectors = coalesce_sectors(addrs, active, sass::MemWidth::k128);
  EXPECT_EQ(sectors.size(), 16u);  // 512 B / 32 B
}

TEST(Coalescer, StridedAccessExplodes) {
  std::array<std::uint32_t, 32> addrs{};
  for (int l = 0; l < 32; ++l) {
    addrs[static_cast<std::size_t>(l)] = static_cast<std::uint32_t>(l) * 256;
  }
  std::array<bool, 32> active{};
  active.fill(true);
  const auto sectors = coalesce_sectors(addrs, active, sass::MemWidth::k32);
  EXPECT_EQ(sectors.size(), 32u);  // one sector per lane
}

TEST(Coalescer, DuplicateAddressesMergeAndInactiveSkip) {
  std::array<std::uint32_t, 32> addrs{};  // all lanes load address 0
  std::array<bool, 32> active{};
  active.fill(true);
  active[7] = false;
  const auto sectors = coalesce_sectors(addrs, active, sass::MemWidth::k32);
  EXPECT_EQ(sectors.size(), 1u);
}

// ---------------------------------------------------------------------------
// Differential oracles for the heap-free costing: the bank-conflict cost and
// the coalescer as written with a std::vector per bank and a sorted
// std::vector of sectors, run against the library on seeded random accesses.
// ---------------------------------------------------------------------------

SmemAccessCost per_bank_vector_cost(std::span<const std::uint32_t> addrs,
                                    std::span<const bool> active, sass::MemWidth width,
                                    bool is_store) {
  const int bytes = sass::width_bytes(width);
  const int lanes_per_phase = 128 / bytes;
  const int num_phases = 32 / lanes_per_phase;
  SmemAccessCost cost;
  cost.phases = num_phases;
  for (int phase = 0; phase < num_phases; ++phase) {
    std::array<std::vector<std::uint32_t>, kNumBanks> words_per_bank;
    bool any_active = false;
    for (int l = 0; l < lanes_per_phase; ++l) {
      const int lane = phase * lanes_per_phase + l;
      if (!active[static_cast<std::size_t>(lane)]) continue;
      any_active = true;
      const std::uint32_t base = addrs[static_cast<std::size_t>(lane)];
      for (int wword = 0; wword < bytes / kBankWidthBytes; ++wword) {
        const std::uint32_t word_addr = base / kBankWidthBytes + static_cast<std::uint32_t>(wword);
        auto& v = words_per_bank[word_addr % kNumBanks];
        if (is_store || std::find(v.begin(), v.end(), word_addr) == v.end()) {
          v.push_back(word_addr);
        }
      }
    }
    if (!any_active) {
      cost.beats += 1;
      continue;
    }
    int ways = 1;
    for (const auto& v : words_per_bank) ways = std::max(ways, static_cast<int>(v.size()));
    cost.beats += ways;
  }
  return cost;
}

std::vector<std::uint64_t> sorted_vector_sectors(std::span<const std::uint32_t> lane_addrs,
                                                 std::span<const bool> active,
                                                 sass::MemWidth width) {
  const auto bytes = static_cast<std::uint32_t>(sass::width_bytes(width));
  std::vector<std::uint64_t> sectors;
  for (std::size_t lane = 0; lane < 32; ++lane) {
    if (!active[lane]) continue;
    const std::uint64_t lo = lane_addrs[lane] / kSectorBytes;
    const std::uint64_t hi = (lane_addrs[lane] + bytes - 1) / kSectorBytes;
    for (std::uint64_t s = lo; s <= hi; ++s) sectors.push_back(s * kSectorBytes);
  }
  std::sort(sectors.begin(), sectors.end());
  sectors.erase(std::unique(sectors.begin(), sectors.end()), sectors.end());
  return sectors;
}

/// One seeded random warp access: width 32/64/128, a broadcast-heavy,
/// conflict-heavy (128 B stride) or random aligned address pattern, and an
/// active mask that is full, random, random with whole phases off, or empty.
struct RandomAccess {
  std::array<std::uint32_t, 32> addrs{};
  std::array<bool, 32> active{};
  sass::MemWidth width = sass::MemWidth::k32;
  bool is_store = false;

  RandomAccess(Rng& rng, std::uint32_t space_bytes) {
    constexpr sass::MemWidth kWidths[] = {sass::MemWidth::k32, sass::MemWidth::k64,
                                          sass::MemWidth::k128};
    width = kWidths[rng.next_below(3)];
    is_store = rng.next_below(2) == 1;
    const auto bytes = static_cast<std::uint32_t>(sass::width_bytes(width));
    const auto aligned = [&](std::uint32_t below) {
      return static_cast<std::uint32_t>(rng.next_below(below / bytes)) * bytes;
    };
    const std::uint32_t base = aligned(space_bytes / 2);
    std::array<std::uint32_t, 3> hot{};
    for (auto& h : hot) h = aligned(space_bytes);
    const auto pattern = rng.next_below(3);
    for (auto& a : addrs) {
      if (pattern == 0) {
        a = hot[rng.next_below(hot.size())];  // broadcast-heavy
      } else if (pattern == 1) {
        a = base + static_cast<std::uint32_t>(rng.next_below(16)) * 128;  // conflict-heavy
      } else {
        a = aligned(space_bytes);  // random aligned
      }
    }
    const auto mask = rng.next_below(4);
    const int lanes_per_phase = 128 / static_cast<int>(bytes);
    for (std::size_t l = 0; l < 32; ++l) active[l] = mask == 0 || rng.next_below(2) == 1;
    if (mask == 2) {
      for (int p = 0; p < 32 / lanes_per_phase; ++p) {
        if (rng.next_below(2) == 0) continue;
        for (int l = 0; l < lanes_per_phase; ++l) {
          active[static_cast<std::size_t>(p * lanes_per_phase + l)] = false;
        }
      }
    }
    if (mask == 3) active.fill(false);
  }
};

TEST(BankConflict, MatchesPerBankVectorOracle) {
  Rng rng(0xBA4C);
  int conflicted = 0;
  for (int i = 0; i < 20000; ++i) {
    const RandomAccess a(rng, 48 * 1024);
    const auto want = per_bank_vector_cost(a.addrs, a.active, a.width, a.is_store);
    const auto got = smem_access_cost(a.addrs, a.active, a.width, a.is_store);
    ASSERT_EQ(got.beats, want.beats) << "access " << i;
    ASSERT_EQ(got.phases, want.phases) << "access " << i;
    conflicted += want.conflict_free() ? 0 : 1;
  }
  // The patterns reach both regimes.
  EXPECT_GT(conflicted, 2000);
  EXPECT_LT(conflicted, 18000);
}

TEST(Coalescer, MatchesSortedVectorOracle) {
  Rng rng(0xC0A1);
  std::size_t most = 0;
  for (int i = 0; i < 20000; ++i) {
    RandomAccess a(rng, i % 2 == 0 ? 1u << 16 : 0xFFFFFFF0u);
    // Every fourth access is byte-misaligned, so a lane can straddle two
    // sectors.
    if (i % 4 == 3) {
      for (auto& addr : a.addrs) addr += static_cast<std::uint32_t>(rng.next_below(32));
    }
    const auto want = sorted_vector_sectors(a.addrs, a.active, a.width);
    const auto got = coalesce_sectors(a.addrs, a.active, a.width);
    ASSERT_EQ(std::vector<std::uint64_t>(got.begin(), got.end()), want) << "access " << i;
    most = std::max(most, want.size());
  }
  EXPECT_GT(most, 32u);

  // The capacity bound: 32 lanes of 16 B, each straddling two sectors.
  std::array<std::uint32_t, 32> addrs{};
  for (std::uint32_t l = 0; l < 32; ++l) addrs[l] = 64 * l + 24;
  const auto full = coalesce_sectors(addrs, all_active(), sass::MemWidth::k128);
  EXPECT_EQ(std::vector<std::uint64_t>(full.begin(), full.end()),
            sorted_vector_sectors(addrs, all_active(), sass::MemWidth::k128));
  EXPECT_EQ(full.size(), 64u);
}

TEST(TokenBucket, ConsumeWithDebtDelaysByDebtOverRate) {
  TokenBucket tb(4.0);  // 4 B/cycle, burst floored to 1024 B, full at start
  EXPECT_EQ(tb.consume(1000.0, 0), 0.0);  // covered by the burst credit
  EXPECT_EQ(tb.consume(64.0, 0), 10.0);   // 40 B of debt at 4 B/cycle
  EXPECT_EQ(tb.consume(0.0, 1), 9.0);     // one cycle repays 4 B
}

TEST(TokenBucket, SustainedWithdrawalConvergesToRate) {
  // One 64 B request per cycle against an 8 B/cycle budget: the issuing side
  // never blocks, but completions slip with the growing debt, so delivered
  // bytes over completion time converge to the rate.
  TokenBucket tb(8.0);
  const int n = 10000;
  double last_done = 0.0;
  for (int cycle = 0; cycle < n; ++cycle) {
    last_done = cycle + tb.consume(64.0, static_cast<std::uint64_t>(cycle));
  }
  EXPECT_NEAR(64.0 * n / last_done, 8.0, 0.05);
}

/// The bucket a standalone timed SM used to own: tick() at the top of every
/// simulated cycle, then withdraw.
class PerCycleBucket {
 public:
  explicit PerCycleBucket(double rate)
      : rate_(rate), cap_(std::max(rate * 64.0, 1024.0)), credit_(cap_) {}
  void tick() { credit_ = std::min(cap_, credit_ + rate_); }
  double withdraw(double bytes) {
    credit_ -= bytes;
    return credit_ >= 0.0 ? 0.0 : -credit_ / rate_;
  }
  [[nodiscard]] double cap() const { return cap_; }
  [[nodiscard]] double credit() const { return credit_; }

 private:
  double rate_;
  double cap_;
  double credit_;
};

TEST(TokenBucket, ConsumeMatchesPerCycleTicksBitwise) {
  // consume() accrues the cycles since its last call one at a time, so it
  // returns exactly the delays of a bucket ticked every cycle. The rates are
  // the fractional budgets the simulator runs (per SM and whole device), at
  // which a closed-form `rate * gap` refill rounds differently.
  std::vector<double> rates;
  for (const auto& spec : {device::rtx2070(), device::t4()}) {
    rates.insert(rates.end(), {spec.dram_bytes_per_cycle(), spec.dram_bytes_per_cycle_per_sm(),
                               spec.l2_bytes_per_cycle(), spec.l2_bytes_per_cycle_per_sm()});
  }
  Rng rng(24);
  for (const double rate : rates) {
    TokenBucket bucket(rate);
    PerCycleBucket ref(rate);
    const double cap = ref.cap();
    std::uint64_t now = 0;
    int refilled_to_cap = 0;
    int in_debt = 0;
    for (int i = 0; i < 4000; ++i) {
      std::uint64_t gap = 0;  // a second request in the same cycle
      switch (rng.next_below(4)) {
        case 0:
          break;
        case 1:
          gap = 1;
          break;
        case 2:
          gap = 2 + rng.next_below(7);
          break;
        default:  // past the refill to the cap
          gap = static_cast<std::uint64_t>((cap - ref.credit()) / rate) + 1 + rng.next_below(64);
          break;
      }
      double bytes = 0.0;
      switch (rng.next_below(3)) {
        case 0:
          break;
        case 1:  // below the cap, in 4 B lane granules
          bytes = 4.0 * static_cast<double>(rng.next_below(static_cast<std::uint64_t>(cap / 4)));
          break;
        default:  // above the cap
          bytes = cap + 4.0 * static_cast<double>(
                                  rng.next_below(static_cast<std::uint64_t>(2 * cap / 4)));
          break;
      }
      for (std::uint64_t c = 0; c < gap; ++c) ref.tick();
      now += gap;
      refilled_to_cap += ref.credit() == cap ? 1 : 0;
      const double want = ref.withdraw(bytes);
      const double got = bucket.consume(bytes, now);
      in_debt += want > 0.0 ? 1 : 0;
      ASSERT_EQ(std::bit_cast<std::uint64_t>(got), std::bit_cast<std::uint64_t>(want))
          << "rate " << rate << ", request " << i << ": " << got << " vs " << want;
    }
    // The draws do reach both regimes.
    EXPECT_GT(refilled_to_cap, 100) << rate;
    EXPECT_GT(in_debt, 100) << rate;
  }
}

TEST(TokenBucket, CreditAccruesFromTimestampGap) {
  TokenBucket b(4.0);  // 4 B/cycle, burst floored to 1024 B
  EXPECT_EQ(b.consume(1024.0, 0), 0.0);  // drains the burst credit
  EXPECT_EQ(b.consume(40.0, 10), 0.0);   // 10 elapsed cycles accrued 40 B
  EXPECT_EQ(b.consume(8.0, 10), 2.0);    // same cycle: nothing accrues
  EXPECT_EQ(b.consume(0.0, 12), 0.0);    // two more cycles repay the debt
}

TEST(TokenBucket, CreditStopsAtBurstCap) {
  TokenBucket b(4.0);
  EXPECT_EQ(b.consume(1024.0, 0), 0.0);
  // 10000 idle cycles would accrue 40000 B; the cap keeps 1024 B, so the
  // 40 B beyond it is debt.
  EXPECT_EQ(b.consume(1064.0, 10000), 10.0);
}

}  // namespace
}  // namespace tc::mem
