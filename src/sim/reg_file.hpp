// Per-warp register state with hazard-accurate delayed writeback.
//
// Fixed-latency pipes on Volta/Turing do not interlock: if a consumer issues
// before the producer's latency has elapsed (and no stall count or scoreboard
// wait protects it), it reads the *old* register value. WarpRegs models this
// by buffering writes with a due-cycle; `settle(now)` commits everything due.
// The functional executor simply settles immediately after each instruction.
#pragma once

#include <array>
#include <cstdint>
#include <limits>
#include <vector>

#include "common/error.hpp"
#include "sass/isa.hpp"

namespace tc::sim {

inline constexpr int kWarpSize = 32;

/// One warp's 255 GPRs x 32 lanes, 7 predicates x 32 lanes, and the pending
/// writeback queue.
class WarpRegs {
 public:
  WarpRegs();

  /// Reads lane `lane` of register r (RZ reads as 0).
  [[nodiscard]] std::uint32_t read(sass::Reg r, int lane) const;

  /// Immediate write (functional mode / settled timing write).
  void write_now(sass::Reg r, int lane, std::uint32_t value);

  /// Schedules a write that becomes visible at `due_cycle`.
  void write_at(sass::Reg r, int lane, std::uint32_t value, std::uint64_t due_cycle);

  /// Commits all pending writes with due_cycle <= now, in the order they
  /// were scheduled: of two due writes to one register lane, the later one
  /// wins, whatever their due cycles.
  void settle(std::uint64_t now);

  /// Commits everything regardless of due time (end of functional step).
  void settle_all();

  /// Earliest due cycle of a pending write; kNoPendingWrite when none is.
  [[nodiscard]] std::uint64_t next_due() const { return earliest_due_; }
  static constexpr std::uint64_t kNoPendingWrite = std::numeric_limits<std::uint64_t>::max();

  [[nodiscard]] bool read_pred(sass::Pred p, int lane) const;
  void write_pred(sass::Pred p, int lane, bool value);

  /// True when a pending (not yet visible) write to r exists. Only tests
  /// call it; it scans the whole queue.
  [[nodiscard]] bool has_pending(sass::Reg r) const;

  /// Direct lane-row access for the JIT backend. Valid only while no write
  /// is pending (functional execution settles immediately, so always there);
  /// rows()[r] is register r's 32 lane values, r in [0, 255) — RZ has no row.
  [[nodiscard]] std::array<std::uint32_t, kWarpSize>* rows() { return gpr_.data(); }
  [[nodiscard]] const std::array<std::uint32_t, kWarpSize>* rows() const { return gpr_.data(); }

  /// Lane mask of predicate p (bit l = lane l). PT reads all-ones.
  [[nodiscard]] std::uint32_t pred_mask(sass::Pred p) const {
    return pred_[static_cast<std::size_t>(p.idx)];
  }
  /// Replaces the whole lane mask of p; PT stays read-only (write dropped).
  void set_pred_mask(sass::Pred p, std::uint32_t mask) {
    if (!p.is_pt()) pred_[static_cast<std::size_t>(p.idx)] = mask;
  }

 private:
  struct Pending {
    std::uint8_t reg;
    std::uint8_t lane;
    std::uint32_t value;
  };
  /// Writes pending_[begin, end), scheduled one after another with one due
  /// cycle — typically all lanes of one instruction's result.
  struct Run {
    std::uint64_t due;
    std::uint32_t begin;
    std::uint32_t end;
  };

  void commit(const Run& run);
  void compact();

  std::array<std::array<std::uint32_t, kWarpSize>, 255> gpr_{};
  std::array<std::uint32_t, 8> pred_{};  // bitmask per predicate; P7 forced to all-ones
  // The writeback queue. settle() visits runs, not writes, and returns at
  // once while nothing is due; entries of committed runs are dropped from
  // pending_ lazily, once they are the majority.
  std::vector<Pending> pending_;
  std::vector<Run> runs_;  // in scheduling order
  std::uint64_t earliest_due_ = kNoPendingWrite;
};

}  // namespace tc::sim
