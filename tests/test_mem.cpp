// Unit tests for the memory system: banked shared memory, sector caches,
// coalescer, token buckets, paged global memory.
#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <numeric>

#include "common/error.hpp"
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

TEST(TokenBucket, ConsumeWithDebtDelaysByDebtOverRate) {
  TokenBucket tb(4.0, 1.0);  // 4 B/cycle, burst floored to 1024 B, full at start
  EXPECT_EQ(tb.consume_with_debt(1000.0), 0.0);  // covered by the burst credit
  EXPECT_EQ(tb.consume_with_debt(64.0), 10.0);   // 40 B of debt at 4 B/cycle
  tb.tick();                                      // one cycle repays 4 B
  EXPECT_EQ(tb.consume_with_debt(0.0), 9.0);
}

TEST(TokenBucket, SustainedWithdrawalConvergesToRate) {
  // One 64 B request per cycle against an 8 B/cycle budget: the issuing side
  // never blocks, but completions slip with the growing debt, so delivered
  // bytes over completion time converge to the rate.
  TokenBucket tb(8.0);
  const int n = 10000;
  double last_done = 0.0;
  for (int cycle = 0; cycle < n; ++cycle) {
    tb.tick();
    last_done = cycle + tb.consume_with_debt(64.0);
  }
  EXPECT_NEAR(64.0 * n / last_done, 8.0, 0.05);
}

TEST(TokenBucket, MultiCycleTickEqualsSingleTicksBitwise) {
  // The timed engine replays a skipped idle stretch with tick(n), so it must
  // land on exactly the credit n single ticks reach. A per-SM DRAM share is
  // a fractional rate, where rate * n rounds differently from a running sum.
  const double rate = device::rtx2070().dram_bytes_per_cycle_per_sm();
  struct Start {
    const char* name;
    double withdrawn;  // taken from the full bucket before the window
    std::uint64_t window;
  };
  const Start starts[] = {
      {"full credit", 0.0, 500},
      {"deep debt", 1e6, 5000},             // still in debt after the window
      {"crossing the cap", 4096.0, 1000},   // refills to the cap mid-window
  };
  for (const Start& s : starts) {
    for (const std::uint64_t n : {std::uint64_t{0}, std::uint64_t{1}, std::uint64_t{3},
                                  s.window / 2, s.window}) {
      TokenBucket bulk(rate);
      TokenBucket single(rate);
      (void)bulk.consume_with_debt(s.withdrawn);
      (void)single.consume_with_debt(s.withdrawn);
      bulk.tick(n);
      for (std::uint64_t i = 0; i < n; ++i) single.tick();
      EXPECT_EQ(bulk.credit(), single.credit()) << s.name << ", " << n << " cycles";
    }
  }
  // The windows do reach the regimes they are named for.
  TokenBucket debt(rate);
  (void)debt.consume_with_debt(1e6);
  debt.tick(5000);
  EXPECT_LT(debt.credit(), 0.0);
  TokenBucket refill(rate);
  const double cap = refill.credit();
  (void)refill.consume_with_debt(4096.0);
  refill.tick(1000);
  EXPECT_EQ(refill.credit(), cap);
}

TEST(MultiClientBucket, CreditAccruesFromTimestampGap) {
  MultiClientBucket b(4.0, 1.0);  // 4 B/cycle, burst floored to 1024 B
  EXPECT_EQ(b.consume(1024.0, 0.0), 0.0);  // drains the burst credit
  EXPECT_EQ(b.consume(40.0, 10.0), 0.0);   // 10 elapsed cycles accrued 40 B
  EXPECT_EQ(b.consume(8.0, 10.0), 2.0);    // same cycle: nothing accrues
  EXPECT_EQ(b.consume(0.0, 12.0), 0.0);    // two more cycles repay the debt
}

TEST(MultiClientBucket, CreditStopsAtBurstCap) {
  MultiClientBucket b(4.0, 1.0);
  EXPECT_EQ(b.consume(1024.0, 0.0), 0.0);
  // 10000 idle cycles would accrue 40000 B; the cap keeps 1024 B, so the
  // 40 B beyond it is debt.
  EXPECT_EQ(b.consume(1064.0, 10000.0), 10.0);
}

}  // namespace
}  // namespace tc::mem
