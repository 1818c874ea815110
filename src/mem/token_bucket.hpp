// Fractional byte-per-cycle bandwidth budgets.
//
// DRAM and L2 are modeled as sustained-bandwidth pipes: each simulated cycle
// deposits `rate` bytes of credit (capped at a small burst window), and a
// memory request withdraws its bytes, letting credit go negative. The debt
// delays the request's completion by debt/rate cycles — this is how
// DRAM-boundness emerges in the HGEMM timing runs.
#pragma once

#include <algorithm>
#include <cstdint>

#include "common/error.hpp"

namespace tc::mem {

/// One bandwidth budget, owned by a standalone SM or shared by the SMs of a
/// full-device simulation. No client owns the clock: credit is accrued from
/// the *timestamps* of the withdrawals themselves, so cycles in which nobody
/// withdraws cost nothing. Shortage delays a request's completion by
/// debt/rate cycles without blocking the issuing pipe, which is what makes
/// bandwidth *contention between SMs* emerge: every SM's withdrawals deepen
/// the common debt, so each one's completions slip.
///
/// `now` never decreases between calls (sim::TimedDevice steps its SMs in
/// lockstep), and requests of one cycle are served in call order.
class TokenBucket {
 public:
  /// `bytes_per_cycle` may be fractional. Unused credit accumulates for at
  /// most 64 cycles, which keeps long idle periods from creating unrealistic
  /// bursts; the cap never drops below 1024 B, two maximal warp requests, so
  /// low-rate buckets can still satisfy individual accesses.
  explicit TokenBucket(double bytes_per_cycle)
      : rate_(bytes_per_cycle), cap_(std::max(bytes_per_cycle * 64.0, 1024.0)), credit_(cap_) {
    TC_CHECK(bytes_per_cycle > 0.0, "bandwidth must be positive");
  }

  /// Withdraws `bytes` at cycle `now`, letting credit go negative, and
  /// returns how many cycles the requester's data is delayed until the debt
  /// is repaid by refill (0 when credit covered it). This models a memory
  /// system with outstanding-miss queues: the sustained rate converges to
  /// `rate` because debt, and hence delay, grows with over-subscription.
  ///
  /// Credit accrues one `rate` per cycle since the previous call, added one
  /// cycle at a time and stopping at the cap; a second call in the same
  /// cycle accrues nothing. The closed form `rate * (now - last)` would
  /// round differently from the running sum at fractional rates, and moves
  /// recorded results: T4 `perf --profile` at 1024x1024x256 reads one more
  /// bandwidth-debt stall cycle.
  double consume(double bytes, std::uint64_t now) {
    if (now > last_) {
      for (; last_ < now && credit_ < cap_; ++last_) credit_ = std::min(cap_, credit_ + rate_);
      last_ = now;
    }
    credit_ -= bytes;
    return credit_ >= 0.0 ? 0.0 : -credit_ / rate_;
  }

 private:
  double rate_;
  double cap_;
  double credit_;
  std::uint64_t last_ = 0;  // the cycle credit has accrued up to
};

}  // namespace tc::mem
