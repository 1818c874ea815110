// Scheduler-mode fuzz smoke (label: fuzz_smoke): a fixed-seed sweep of
// random virtual programs through generate -> schedule (both reorder modes)
// -> hazard scan -> functional-vs-timed differential run. Any failure means
// the scheduler under- or mis-synchronized a race-free program.
#include <gtest/gtest.h>

#include <string>

#include "sched/fuzz.hpp"

namespace tc::sched {
namespace {

TEST(SchedFuzzSmoke, FixedSeedSweepSchedulesCleanAndEquivalent) {
  const auto rep = run_sched_fuzz(0x5eedULL, 250);
  EXPECT_EQ(rep.programs, 250);
  EXPECT_EQ(rep.schedules, 500);
  std::string why;
  for (const auto& f : rep.failures) {
    why += "seed " + std::to_string(f.seed) + " [" + f.phase +
           (f.reordered ? ", reordered" : "") + "]: " + f.detail + "\n" +
           f.program + "\n";
    if (why.size() > 8000) break;  // keep the assertion message readable
  }
  EXPECT_TRUE(rep.ok()) << why;
}

}  // namespace
}  // namespace tc::sched
