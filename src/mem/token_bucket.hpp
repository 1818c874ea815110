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

/// The budget of one simulated SM, which owns the clock: the SM calls tick()
/// once per cycle.
class TokenBucket {
 public:
  /// `bytes_per_cycle` may be fractional; `burst_cycles` bounds how much
  /// unused credit can accumulate (keeps long idle periods from creating
  /// unrealistic bursts). The cap never drops below one maximal warp request
  /// (512 B) so low-rate buckets can still satisfy individual accesses.
  explicit TokenBucket(double bytes_per_cycle, double burst_cycles = 64.0)
      : rate_(bytes_per_cycle),
        cap_(std::max(bytes_per_cycle * burst_cycles, 1024.0)),
        credit_(cap_) {
    TC_CHECK(bytes_per_cycle > 0.0, "bandwidth must be positive");
  }

  /// Advances time by one cycle, accruing credit.
  void tick() { credit_ = std::min(cap_, credit_ + rate_); }

  /// Advances time by `cycles` cycles: tick() that many times, stopping
  /// early once credit reaches the cap, where further ticks change nothing.
  /// A closed-form `rate * cycles` would round differently.
  void tick(std::uint64_t cycles) {
    for (; cycles > 0 && credit_ < cap_; --cycles) tick();
  }

  /// Unconditionally withdraws `bytes`, letting credit go negative, and
  /// returns how many cycles the requester's data is delayed until the debt
  /// is repaid by refill. This models a memory system with outstanding-miss
  /// queues: bandwidth shortage delays *completions* without blocking the
  /// pipe that issued the request, while the sustained rate still converges
  /// to `rate` because debt (and hence delay) grows with over-subscription.
  double consume_with_debt(double bytes) {
    credit_ -= bytes;
    return credit_ >= 0.0 ? 0.0 : -credit_ / rate_;
  }

  /// Unused credit in bytes; negative while withdrawals are in debt.
  [[nodiscard]] double credit() const { return credit_; }

 private:
  double rate_;
  double cap_;
  double credit_;
};

/// A bandwidth budget shared by the SMs of a full-device simulation.
///
/// No single client owns the clock, so credit is accrued from the
/// *timestamps* of the requests themselves: the bucket remembers the latest
/// cycle it has seen and deposits `rate` bytes per elapsed cycle.
/// Consumption uses the same debt semantics as
/// TokenBucket::consume_with_debt — shortage delays a request's completion by
/// debt/rate cycles without blocking the issuing pipe — which is what makes
/// bandwidth *contention between SMs* emerge: every SM's withdrawals deepen
/// the common debt, so each one's completions slip.
///
/// sim::TimedDevice steps its SMs in lockstep, so `now` never decreases
/// between calls, and requests of one cycle are served in call order.
class MultiClientBucket {
 public:
  explicit MultiClientBucket(double bytes_per_cycle, double burst_cycles = 64.0)
      : rate_(bytes_per_cycle),
        cap_(std::max(bytes_per_cycle * burst_cycles, 1024.0)),
        credit_(cap_) {
    TC_CHECK(bytes_per_cycle > 0.0, "bandwidth must be positive");
  }

  /// Withdraws `bytes` at the caller's cycle `now`, letting credit go
  /// negative, and returns the completion delay in cycles (0 when credit
  /// covered the request). Credit accrues for the cycles elapsed since the
  /// previous call; a second call in the same cycle accrues nothing.
  double consume(double bytes, double now) {
    if (now > last_now_) {
      credit_ = std::min(cap_, credit_ + rate_ * (now - last_now_));
      last_now_ = now;
    }
    credit_ -= bytes;
    return credit_ >= 0.0 ? 0.0 : -credit_ / rate_;
  }

 private:
  double rate_;
  double cap_;
  double credit_;
  double last_now_ = 0.0;
};

}  // namespace tc::mem
