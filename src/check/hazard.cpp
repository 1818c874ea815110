#include "check/hazard.hpp"

#include <algorithm>
#include <array>
#include <set>
#include <tuple>
#include <vector>

#include "sass/footprint.hpp"

namespace tc::check {

using sass::Diag;
using sass::DiagSeverity;
using sass::Instruction;
using sass::Opcode;

namespace {

using sass::Footprint;
using sass::RegRange;

struct PendingFixed {
  int pc = 0;
  RegRange range;
  std::int64_t issue = 0;
  int wait_seq = 0;  // wait counter when issued; != current means "unprovable"
};

struct PendingPred {
  int pc = 0;
  int pred = 7;
  std::int64_t issue = 0;
  int wait_seq = 0;
};

struct InFlightMio {
  int pc = 0;
  RegRange dst;                    // un-retired load destination (count 0 for stores)
  std::array<RegRange, 2> srcs{};  // held until the read barrier is waited
  std::uint8_t write_barrier = sass::kNoBarrier;
  std::uint8_t read_barrier = sass::kNoBarrier;

  [[nodiscard]] bool spent() const {
    return dst.count == 0 && srcs[0].count == 0 && srcs[1].count == 0 &&
           write_barrier == sass::kNoBarrier && read_barrier == sass::kNoBarrier;
  }
};

enum class BarState { kUnknown, kClear };

class SegmentWalker {
 public:
  SegmentWalker(const sass::Program& prog, const LatencyModel& lat, std::vector<Diag>& out)
      : prog_(prog), lat_(lat), out_(out) {}

  /// Analyzes [s, e]; `entry_known_clear` is true only for the program entry
  /// (all scoreboards start at zero). Self-loops are unrolled once so
  /// loop-carried pairs surface; duplicates are folded by the dedupe set.
  void run(int s, int e, bool entry_known_clear) {
    pending_.clear();
    preds_.clear();
    inflight_.clear();
    bars_.fill(entry_known_clear ? BarState::kClear : BarState::kUnknown);
    wait_seq_ = 0;
    t_ = 0;

    const auto& last = prog_.code[static_cast<std::size_t>(e)];
    const bool self_loop = last.op == Opcode::kBra && last.target == s;
    const int iterations = self_loop ? 2 : 1;
    for (int iter = 0; iter < iterations; ++iter) {
      for (int pc = s; pc <= e; ++pc) {
        step(pc);
      }
    }
  }

 private:
  void emit(DiagSeverity sev, const std::string& kind, int producer, int consumer,
            const std::string& message) {
    if (!seen_.insert({kind, producer, consumer}).second) return;
    out_.push_back({sev, kind, producer, consumer, message});
  }

  void step(int pc) {
    const Instruction& inst = prog_.code[static_cast<std::size_t>(pc)];
    const Footprint fp = sass::footprint(inst);

    // --- scoreboard waits ---------------------------------------------------
    if (inst.ctrl.wait_mask != 0) {
      for (int b = 0; b < sass::kNumBarriers; ++b) {
        if (((inst.ctrl.wait_mask >> b) & 1u) == 0) continue;
        bool armed = false;
        for (auto& op : inflight_) {
          if (op.write_barrier == b) {
            op.dst = {};  // data arrived: destination is committed
            op.write_barrier = sass::kNoBarrier;
            armed = true;
          }
          if (op.read_barrier == b) {
            op.srcs = {};  // sources released
            op.read_barrier = sass::kNoBarrier;
            armed = true;
          }
        }
        std::erase_if(inflight_, [](const InFlightMio& op) { return op.spent(); });
        if (!armed && bars_[static_cast<std::size_t>(b)] == BarState::kClear) {
          emit(DiagSeverity::kWarning, "redundant-wait", -1, pc,
               sass::opcode_name(inst.op) + " waits on B" + std::to_string(b) +
                   ", which is provably clear at this point; the wait costs nothing but "
                   "protects nothing");
        }
        bars_[static_cast<std::size_t>(b)] = BarState::kClear;
      }
      ++wait_seq_;  // time past this point is no longer a provable lower bound
    }
    if (inst.op == Opcode::kBar) ++wait_seq_;  // CTA sync adds unknown delay

    // --- reads at issue -----------------------------------------------------
    for (const RegRange& rr : fp.reads) {
      if (rr.count == 0) continue;
      // In-flight loads: any overlap is a race regardless of distance — the
      // data arrival time is unbounded without the barrier wait.
      for (const auto& op : inflight_) {
        if (!overlaps(op.dst, rr)) continue;
        const std::string why =
            op.write_barrier != sass::kNoBarrier
                ? "no wait on B" + std::to_string(op.write_barrier) + " covers the read"
                : "the load carries no write barrier, so the read can never be synchronized";
        emit(DiagSeverity::kError, "raw-load", op.pc, pc,
             sass::opcode_name(inst.op) + " reads " + range_name(rr) + " while the " +
                 sass::opcode_name(prog_.code[static_cast<std::size_t>(op.pc)].op) + " at pc " +
                 std::to_string(op.pc) + " is still in flight to " + range_name(op.dst) + "; " +
                 why);
      }
      // Fixed-latency producers: for each register, only the newest pending
      // write determines the value this read observes.
      for (int reg = rr.lo; reg < rr.lo + rr.count; ++reg) {
        if (covered_by_inflight_load(reg)) continue;  // reported above
        for (auto it = pending_.rbegin(); it != pending_.rend(); ++it) {
          if (!covers(it->range, reg)) continue;
          if (it->wait_seq == wait_seq_) {
            const Instruction& prod = prog_.code[static_cast<std::size_t>(it->pc)];
            const int lat = lat_.fixed(prod, reg - it->range.lo);
            const std::int64_t gap = t_ - it->issue;
            if (gap < lat) {
              emit(DiagSeverity::kError, "raw-fixed", it->pc, pc,
                   sass::opcode_name(inst.op) + " reads R" + std::to_string(reg) + " only " +
                       std::to_string(gap) + " cycles after the " + sass::opcode_name(prod.op) +
                       " at pc " + std::to_string(it->pc) + " issued, but the result lands " +
                       std::to_string(lat) + " cycles in; the read observes the stale value");
            }
          }
          break;  // newest covering write found
        }
      }
    }
    // Predicate reads: the guard, and SEL's selector.
    check_pred_read(inst, pc, fp.pred_reads[0], "guard");
    check_pred_read(inst, pc, fp.pred_reads[1], "selector");

    // --- writes -------------------------------------------------------------
    const RegRange& fw = fp.fixed_write;
    const RegRange w = fw.count > 0 ? fw : fp.load_dst;
    if (w.count > 0) {
      for (const auto& op : inflight_) {
        if (overlaps(op.dst, w)) {
          emit(DiagSeverity::kError, "waw-load", op.pc, pc,
               sass::opcode_name(inst.op) + " writes " + range_name(w) + " while the load at pc " +
                   std::to_string(op.pc) + " is still in flight to " + range_name(op.dst) +
                   "; the late writeback would bury the younger value");
        }
        for (const auto& sr : op.srcs) {
          if (!overlaps(sr, w)) continue;
          const std::string sync =
              op.read_barrier != sass::kNoBarrier
                  ? "wait on B" + std::to_string(op.read_barrier) + " first"
                  : "the op carries no read barrier";
          emit(DiagSeverity::kWarning, "war-mio", op.pc, pc,
               sass::opcode_name(inst.op) + " overwrites " + range_name(w) +
                   " while the memory op at pc " + std::to_string(op.pc) +
                   " may still hold it as a source (" + sync +
                   "); safe in tc::sim, a race on silicon");
        }
      }
      if (fw.count > 0) {
        // WAW commit inversion between two fixed-latency writes.
        for (int reg = fw.lo; reg < fw.lo + fw.count; ++reg) {
          for (auto it = pending_.rbegin(); it != pending_.rend(); ++it) {
            if (!covers(it->range, reg)) continue;
            if (it->wait_seq == wait_seq_) {
              const Instruction& prod = prog_.code[static_cast<std::size_t>(it->pc)];
              const int lat_old = lat_.fixed(prod, reg - it->range.lo);
              const int lat_new = lat_.fixed(inst, reg - fw.lo);
              if (t_ + lat_new < it->issue + lat_old) {
                emit(DiagSeverity::kError, "waw-fixed", it->pc, pc,
                     sass::opcode_name(inst.op) + " commits R" + std::to_string(reg) + " at +" +
                         std::to_string(t_ + lat_new) + " but the older " +
                         sass::opcode_name(prod.op) + " at pc " + std::to_string(it->pc) +
                         " commits at +" + std::to_string(it->issue + lat_old) +
                         "; the writebacks invert and the stale value wins");
              }
            }
            break;
          }
        }
      }
    }

    // --- state update -------------------------------------------------------
    if (sass::pipe_class(inst.op) == sass::PipeClass::kMio) {
      InFlightMio op;
      op.pc = pc;
      op.dst = fp.load_dst;
      // Without a read barrier the sources are only at risk on silicon until
      // the op drains; tracking them forever would flag every temp reuse, so
      // hold them only while a barrier could still be waited on.
      if (inst.ctrl.read_barrier != sass::kNoBarrier) op.srcs = fp.mio_srcs;
      op.write_barrier = inst.ctrl.write_barrier;
      op.read_barrier = inst.ctrl.read_barrier;
      if (!op.spent()) inflight_.push_back(op);
    } else if (fw.count > 0) {
      pending_.push_back({pc, fw, t_, wait_seq_});
    }
    if (fp.pred_write >= 0) preds_.push_back({pc, fp.pred_write, t_, wait_seq_});

    // --- advance ------------------------------------------------------------
    const int stall = std::max<int>(inst.ctrl.stall, 1);
    t_ += inst.op == Opcode::kBra ? std::max(stall, lat_.branch_redirect) : stall;
  }

  [[nodiscard]] bool covered_by_inflight_load(int reg) const {
    for (const auto& op : inflight_) {
      if (covers(op.dst, reg)) return true;
    }
    return false;
  }

  void check_pred_read(const Instruction& inst, int pc, int pred, const char* what) {
    if (pred < 0) return;
    for (auto it = preds_.rbegin(); it != preds_.rend(); ++it) {
      if (it->pred != pred) continue;
      if (it->wait_seq == wait_seq_) {
        const std::int64_t gap = t_ - it->issue;
        if (gap < lat_.predicate_latency) {
          emit(DiagSeverity::kError, "raw-pred", it->pc, pc,
               sass::opcode_name(inst.op) + " reads P" + std::to_string(pred) + " as " + what +
                   " only " + std::to_string(gap) + " cycles after the ISETP at pc " +
                   std::to_string(it->pc) + ", but predicates land " +
                   std::to_string(lat_.predicate_latency) + " cycles in");
        }
      }
      return;  // newest write to this predicate decides
    }
  }

  const sass::Program& prog_;
  const LatencyModel& lat_;
  std::vector<Diag>& out_;
  std::set<std::tuple<std::string, int, int>> seen_;

  std::vector<PendingFixed> pending_;
  std::vector<PendingPred> preds_;
  std::vector<InFlightMio> inflight_;
  std::array<BarState, sass::kNumBarriers> bars_{};
  int wait_seq_ = 0;
  std::int64_t t_ = 0;
};

}  // namespace

std::vector<Diag> find_hazards(const sass::Program& prog, const LatencyModel& lat) {
  std::vector<Diag> out;
  const int n = static_cast<int>(prog.code.size());
  if (n == 0 || lat.fixed == nullptr) return out;

  // Segment leaders: entry, branch targets, and fall-through successors of
  // control transfers. BAR.SYNC and NOP do not end a segment — they cannot
  // redirect control, and keeping the segment alive across them is what lets
  // waits carried on NOPs count as protection.
  std::vector<char> leader(static_cast<std::size_t>(n), 0);
  leader[0] = 1;
  for (int pc = 0; pc < n; ++pc) {
    const auto& inst = prog.code[static_cast<std::size_t>(pc)];
    if (inst.op == Opcode::kBra && inst.target >= 0 && inst.target < n) {
      leader[static_cast<std::size_t>(inst.target)] = 1;
    }
    if ((inst.op == Opcode::kBra || inst.op == Opcode::kExit) && pc + 1 < n) {
      leader[static_cast<std::size_t>(pc + 1)] = 1;
    }
  }

  SegmentWalker walker(prog, lat, out);
  int s = 0;
  while (s < n) {
    int e = s;
    while (e + 1 < n && !leader[static_cast<std::size_t>(e + 1)]) ++e;
    walker.run(s, e, /*entry_known_clear=*/s == 0);
    s = e + 1;
  }
  return out;
}

}  // namespace tc::check
