#include "sim/reg_file.hpp"

#include <algorithm>

namespace tc::sim {

WarpRegs::WarpRegs() {
  pred_[7] = 0xFFFFFFFFu;  // PT
  pending_.reserve(64);
}

std::uint32_t WarpRegs::read(sass::Reg r, int lane) const {
  if (r.is_rz()) return 0;
  return gpr_[r.idx][static_cast<std::size_t>(lane)];
}

void WarpRegs::write_now(sass::Reg r, int lane, std::uint32_t value) {
  if (r.is_rz()) return;
  gpr_[r.idx][static_cast<std::size_t>(lane)] = value;
}

void WarpRegs::write_at(sass::Reg r, int lane, std::uint32_t value, std::uint64_t due_cycle) {
  if (r.is_rz()) return;
  const auto at = static_cast<std::uint32_t>(pending_.size());
  if (runs_.empty() || runs_.back().due != due_cycle || runs_.back().end != at) {
    runs_.push_back({due_cycle, at, at});
  }
  pending_.push_back({r.idx, static_cast<std::uint8_t>(lane), value});
  ++runs_.back().end;
  earliest_due_ = std::min(earliest_due_, due_cycle);
}

void WarpRegs::commit(const Run& run) {
  for (std::uint32_t i = run.begin; i < run.end; ++i) {
    const Pending& p = pending_[i];
    gpr_[p.reg][p.lane] = p.value;
  }
}

void WarpRegs::settle(std::uint64_t now) {
  if (now < earliest_due_) return;
  earliest_due_ = kNoPendingWrite;
  std::size_t live = 0;
  auto keep = runs_.begin();
  for (auto it = runs_.begin(); it != runs_.end(); ++it) {
    if (it->due <= now) {
      commit(*it);
    } else {
      earliest_due_ = std::min(earliest_due_, it->due);
      live += it->end - it->begin;
      *keep++ = *it;
    }
  }
  runs_.erase(keep, runs_.end());
  if (runs_.empty()) {
    pending_.clear();
  } else if (2 * live < pending_.size()) {
    compact();
  }
}

void WarpRegs::compact() {
  std::uint32_t out = 0;
  for (Run& run : runs_) {
    const std::uint32_t n = run.end - run.begin;
    if (run.begin != out) {
      std::copy(pending_.begin() + run.begin, pending_.begin() + run.end, pending_.begin() + out);
    }
    run.begin = out;
    run.end = out + n;
    out += n;
  }
  pending_.resize(out);
}

void WarpRegs::settle_all() {
  for (const Run& run : runs_) commit(run);
  runs_.clear();
  pending_.clear();
  earliest_due_ = kNoPendingWrite;
}

bool WarpRegs::read_pred(sass::Pred p, int lane) const {
  return (pred_[p.idx] >> lane) & 1u;
}

void WarpRegs::write_pred(sass::Pred p, int lane, bool value) {
  if (p.is_pt()) return;  // PT is read-only
  if (value) {
    pred_[p.idx] |= (1u << lane);
  } else {
    pred_[p.idx] &= ~(1u << lane);
  }
}

bool WarpRegs::has_pending(sass::Reg r) const {
  if (r.is_rz()) return false;
  return std::any_of(runs_.begin(), runs_.end(), [&](const Run& run) {
    return std::any_of(pending_.begin() + run.begin, pending_.begin() + run.end,
                       [&](const Pending& p) { return p.reg == r.idx; });
  });
}

}  // namespace tc::sim
