// Field-by-field equality of what the timed engine reports, for the tests
// that hold its event skip to stepping every cycle (test_scheduling.cpp,
// test_device_xval.cpp, test_fuzz.cpp), and the word list the counter pin in
// test_prof.cpp hashes. Every comparison is exact, doubles included.
#pragma once

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <vector>

#include "prof/profiler.hpp"
#include "sim/timed_sm.hpp"

namespace tc::testsupport {

inline void expect_same_counters(const prof::CounterSet& a, const prof::CounterSet& b) {
  EXPECT_EQ(a.cycles, b.cycles);
  EXPECT_EQ(a.instructions, b.instructions);
  EXPECT_EQ(a.pipe_issue, b.pipe_issue);
  EXPECT_EQ(a.tensor_busy, b.tensor_busy);
  EXPECT_EQ(a.fma_busy, b.fma_busy);
  EXPECT_EQ(a.alu_busy, b.alu_busy);
  EXPECT_EQ(a.mio_busy, b.mio_busy);
  EXPECT_EQ(a.l2_port_busy_cycles, b.l2_port_busy_cycles);
  EXPECT_EQ(a.mio_bw_stall, b.mio_bw_stall);
  EXPECT_EQ(a.ldg_count, b.ldg_count);
  EXPECT_EQ(a.stg_count, b.stg_count);
  EXPECT_EQ(a.lds_count, b.lds_count);
  EXPECT_EQ(a.sts_count, b.sts_count);
  EXPECT_EQ(a.ldg_bytes, b.ldg_bytes);
  EXPECT_EQ(a.stg_bytes, b.stg_bytes);
  EXPECT_EQ(a.lds_bytes, b.lds_bytes);
  EXPECT_EQ(a.sts_bytes, b.sts_bytes);
  EXPECT_EQ(a.smem_beats, b.smem_beats);
  EXPECT_EQ(a.smem_phases, b.smem_phases);
  EXPECT_EQ(a.l1_sectors, b.l1_sectors);
  EXPECT_EQ(a.l2_sectors, b.l2_sectors);
  EXPECT_EQ(a.dram_sectors, b.dram_sectors);
  EXPECT_EQ(a.l1_bytes, b.l1_bytes);
  EXPECT_EQ(a.l2_bytes, b.l2_bytes);
  EXPECT_EQ(a.dram_bytes, b.dram_bytes);
  EXPECT_EQ(a.mshr_highwater, b.mshr_highwater);
  EXPECT_EQ(a.mio_queue_highwater, b.mio_queue_highwater);
  ASSERT_EQ(a.sched.size(), b.sched.size());
  for (std::size_t p = 0; p < a.sched.size(); ++p) {
    EXPECT_EQ(a.sched[p].issue_cycles, b.sched[p].issue_cycles) << "partition " << p;
    EXPECT_EQ(a.sched[p].idle_cycles, b.sched[p].idle_cycles) << "partition " << p;
  }
}

/// The words Prof.CountersArePinned hashes for one timed run, in one fixed
/// order: a core set of the run's counters, then, when a Profiler was
/// attached, the whole counter set with each scheduler's idle-by-reason
/// split, and hot_pcs(16). Doubles enter by their bits.
inline std::vector<std::uint64_t> pinned_words(const prof::CounterSet& c,
                                               const prof::Profiler* p) {
  const auto bits = [](double d) { return std::bit_cast<std::uint64_t>(d); };
  std::vector<std::uint64_t> w = {
      c.cycles,         c.instructions,     c.pipe_issue[prof::kPipeTensor],
      c.tensor_busy,    c.fma_busy,         c.alu_busy,
      c.mio_busy,       c.mio_bw_stall,     bits(c.l1_bytes),
      bits(c.l2_bytes), bits(c.dram_bytes), c.smem_beats,
      c.smem_phases};
  if (p == nullptr) return w;
  w.push_back(c.cycles);
  w.push_back(c.instructions);
  w.insert(w.end(), c.pipe_issue.begin(), c.pipe_issue.end());
  w.insert(w.end(), {c.tensor_busy, c.fma_busy, c.alu_busy, c.mio_busy, 0, 0});
  w.push_back(bits(c.l2_port_busy_cycles));
  w.push_back(c.mio_bw_stall);
  w.insert(w.end(), {c.ldg_count, c.stg_count, c.lds_count, c.sts_count, c.ldg_bytes,
                     c.stg_bytes, c.lds_bytes, c.sts_bytes, c.smem_beats - c.smem_phases,
                     c.smem_phases, c.l1_sectors, c.l2_sectors, c.dram_sectors, bits(c.l1_bytes),
                     bits(c.l2_bytes), bits(c.dram_bytes),
                     static_cast<std::uint64_t>(c.mshr_highwater),
                     static_cast<std::uint64_t>(c.mio_queue_highwater)});
  for (std::size_t i = 0; i < c.sched.size(); ++i) {
    w.push_back(c.sched[i].issue_cycles);
    w.push_back(c.sched[i].idle_cycles);
    const auto& idle = p->idle_by_reason(static_cast<int>(i));
    w.insert(w.end(), idle.begin(), idle.end());
  }
  for (const auto& h : p->hot_pcs(16)) {
    w.insert(w.end(), {static_cast<std::uint64_t>(h.pc), h.issued, h.stall_cycles,
                       static_cast<std::uint64_t>(h.dominant), h.dominant_cycles});
  }
  return w;
}

inline void expect_same_hot_pcs(const std::vector<prof::HotPc>& a,
                                const std::vector<prof::HotPc>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].pc, b[i].pc) << "rank " << i;
    EXPECT_EQ(a[i].text, b[i].text) << "rank " << i;
    EXPECT_EQ(a[i].issued, b[i].issued) << "rank " << i;
    EXPECT_EQ(a[i].stall_cycles, b[i].stall_cycles) << "rank " << i;
    EXPECT_EQ(a[i].dominant, b[i].dominant) << "rank " << i;
    EXPECT_EQ(a[i].dominant_cycles, b[i].dominant_cycles) << "rank " << i;
  }
}

/// Equal attribution: the hot-PC table and each scheduler's idle split.
inline void expect_same_attribution(const prof::Profiler& a, const prof::Profiler& b) {
  expect_same_hot_pcs(a.hot_pcs(16), b.hot_pcs(16));
  ASSERT_EQ(a.partitions(), b.partitions());
  for (int p = 0; p < a.partitions(); ++p) {
    EXPECT_EQ(a.idle_by_reason(p), b.idle_by_reason(p)) << "partition " << p;
  }
}

}  // namespace tc::testsupport
