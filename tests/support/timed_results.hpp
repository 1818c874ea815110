// Field-by-field equality of what the timed engine reports, for the tests
// that hold its event skip to stepping every cycle (test_scheduling.cpp,
// test_device_xval.cpp). Every comparison is exact, doubles included.
#pragma once

#include <gtest/gtest.h>

#include <vector>

#include "prof/profiler.hpp"
#include "sim/timed_sm.hpp"

namespace tc::testsupport {

inline void expect_same_stats(const sim::TimedStats& a, const sim::TimedStats& b) {
  EXPECT_EQ(a.cycles, b.cycles);
  EXPECT_EQ(a.instructions, b.instructions);
  EXPECT_EQ(a.hmma_count, b.hmma_count);
  EXPECT_EQ(a.tensor_busy, b.tensor_busy);
  EXPECT_EQ(a.fma_busy, b.fma_busy);
  EXPECT_EQ(a.alu_busy, b.alu_busy);
  EXPECT_EQ(a.mio_busy, b.mio_busy);
  EXPECT_EQ(a.mio_bw_stall, b.mio_bw_stall);
  EXPECT_EQ(a.l1_bytes, b.l1_bytes);
  EXPECT_EQ(a.l2_bytes, b.l2_bytes);
  EXPECT_EQ(a.dram_bytes, b.dram_bytes);
  EXPECT_EQ(a.smem_beats, b.smem_beats);
  EXPECT_EQ(a.smem_phases, b.smem_phases);
}

inline void expect_same_counters(const prof::CounterSet& a, const prof::CounterSet& b) {
  EXPECT_EQ(a.cycles, b.cycles);
  EXPECT_EQ(a.instructions, b.instructions);
  EXPECT_EQ(a.pipe_issue, b.pipe_issue);
  EXPECT_EQ(a.pipe_busy, b.pipe_busy);
  EXPECT_EQ(a.l2_port_busy_cycles, b.l2_port_busy_cycles);
  EXPECT_EQ(a.bw_debt_stall_cycles, b.bw_debt_stall_cycles);
  EXPECT_EQ(a.ldg_count, b.ldg_count);
  EXPECT_EQ(a.stg_count, b.stg_count);
  EXPECT_EQ(a.lds_count, b.lds_count);
  EXPECT_EQ(a.sts_count, b.sts_count);
  EXPECT_EQ(a.ldg_bytes, b.ldg_bytes);
  EXPECT_EQ(a.stg_bytes, b.stg_bytes);
  EXPECT_EQ(a.lds_bytes, b.lds_bytes);
  EXPECT_EQ(a.sts_bytes, b.sts_bytes);
  EXPECT_EQ(a.smem_bank_replays, b.smem_bank_replays);
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
    EXPECT_EQ(a.sched[p].idle_by_reason, b.sched[p].idle_by_reason) << "partition " << p;
  }
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

}  // namespace tc::testsupport
