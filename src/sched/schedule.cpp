#include "sched/schedule.hpp"

#include <algorithm>
#include <array>
#include <cstdint>
#include <map>
#include <span>
#include <string>
#include <tuple>
#include <vector>

#include "check/hazard.hpp"
#include "common/error.hpp"
#include "sass/footprint.hpp"
#include "sass/latency.hpp"
#include "sass/validator.hpp"

namespace tc::sched {
namespace {

using sass::Footprint;
using sass::Instruction;
using sass::Opcode;
using sass::RegRange;

// --- register footprints ----------------------------------------------------
// Register traffic comes from sass::footprint(), the model the hazard
// detector checks against, so every register the oracle tracks is one the
// scheduler constrains.

bool is_mio(Opcode op) { return sass::pipe_class(op) == sass::PipeClass::kMio; }
bool is_control(Opcode op) { return sass::pipe_class(op) == sass::PipeClass::kControl; }

/// Max fixed latency of `prod` over the registers where `w` overlaps `r`.
int raw_weight(const Instruction& prod, const RegRange& w, const RegRange& r) {
  int out = 1;
  const int lo = std::max(w.lo, r.lo);
  const int hi = std::min(w.lo + w.count, r.lo + r.count);
  for (int reg = lo; reg < hi; ++reg) out = std::max(out, sass::fixed_latency(prod, reg - w.lo));
  return out;
}

// --- block partition --------------------------------------------------------

struct Block {
  int s = 0;
  int e = 0;  // inclusive
  bool self_loop = false;
};

std::vector<Block> partition(const std::vector<Instruction>& code) {
  const int n = static_cast<int>(code.size());
  std::vector<char> leader(static_cast<std::size_t>(n), 0);
  if (n > 0) leader[0] = 1;
  for (int pc = 0; pc < n; ++pc) {
    const auto& inst = code[static_cast<std::size_t>(pc)];
    if (inst.op == Opcode::kBra && inst.target >= 0 && inst.target < n) {
      leader[static_cast<std::size_t>(inst.target)] = 1;
    }
    if ((inst.op == Opcode::kBra || inst.op == Opcode::kExit) && pc + 1 < n) {
      leader[static_cast<std::size_t>(pc + 1)] = 1;
    }
  }
  std::vector<Block> blocks;
  int s = 0;
  while (s < n) {
    int e = s;
    while (e + 1 < n && !leader[static_cast<std::size_t>(e + 1)]) ++e;
    const auto& last = code[static_cast<std::size_t>(e)];
    blocks.push_back({s, e, last.op == Opcode::kBra && last.target == s});
    s = e + 1;
  }
  return blocks;
}

// --- pass 2: within-block list scheduling -----------------------------------

/// Anchored instructions never issue before any lower-index instruction of
/// their block: memory and control ops (whose relative order is load-bearing
/// for the MIO queue and for barrier protocols) and every instruction that
/// touches a same-block load destination (the future scoreboard-wait
/// carriers). Reordering therefore only hoists pure fixed-latency work into
/// stall shadows; it can never migrate a wait to where it would block
/// otherwise-overlappable work.
std::vector<char> anchored_set(const std::vector<Instruction>& code,
                               const std::vector<Footprint>& fp, const Block& b) {
  std::vector<char> anchored(static_cast<std::size_t>(b.e - b.s + 1), 0);
  std::vector<RegRange> load_dsts;
  for (const Footprint& f : fp) {
    if (f.load_dst.count > 0) load_dsts.push_back(f.load_dst);
  }
  for (int pc = b.s; pc <= b.e; ++pc) {
    const auto& inst = code[static_cast<std::size_t>(pc)];
    const Footprint& f = fp[static_cast<std::size_t>(pc - b.s)];
    bool a = is_mio(inst.op) || is_control(inst.op);
    for (const RegRange& ld : load_dsts) {
      a = a || overlaps(ld, f.fixed_write) || f.reads_any(ld);
    }
    anchored[static_cast<std::size_t>(pc - b.s)] = a ? 1 : 0;
  }
  return anchored;
}

/// Dependence edges (relative indices, lower -> higher) with issue-gap
/// weights: latency for RAW/WAW on the fixed pipes and for predicate
/// visibility, 1 for pure ordering (WAR, MIO queue order, load consumers,
/// BAR fences).
std::vector<std::vector<std::pair<int, int>>> block_preds(const std::vector<Instruction>& code,
                                                          const std::vector<Footprint>& fp,
                                                          const Block& b) {
  const int n = b.e - b.s + 1;
  std::vector<std::vector<std::pair<int, int>>> preds(static_cast<std::size_t>(n));
  const auto add = [&](int i, int j, int w) {
    preds[static_cast<std::size_t>(j)].push_back({i, w});
  };
  for (int j = 1; j < n; ++j) {
    const Instruction& cj = code[static_cast<std::size_t>(b.s + j)];
    const Footprint& fj = fp[static_cast<std::size_t>(j)];
    const RegRange& fwj = fj.fixed_write;
    const RegRange wj = fwj.count > 0 ? fwj : fj.load_dst;
    for (int i = 0; i < j; ++i) {
      const Instruction& ci = code[static_cast<std::size_t>(b.s + i)];
      if (ci.op == Opcode::kBar || cj.op == Opcode::kBar) {
        add(i, j, 1);  // CTA barrier: full fence inside the block
        continue;
      }
      int w = 0;
      const Footprint& fi = fp[static_cast<std::size_t>(i)];
      const RegRange& fwi = fi.fixed_write;
      // RAW (fixed producer -> issue-time reader).
      for (const RegRange& rr : fj.reads) {
        if (overlaps(fwi, rr)) w = std::max(w, raw_weight(ci, fwi, rr));
        if (overlaps(fi.load_dst, rr)) w = std::max(w, 1);  // barrier carries the timing
      }
      // WAW on every write class; commit-order weight for fixed-fixed.
      const RegRange wi = fwi.count > 0 ? fwi : fi.load_dst;
      if (overlaps(wi, wj)) {
        w = std::max(w, 1);
        if (fwi.count > 0 && fwj.count > 0) {
          const int lo = std::max(fwi.lo, fwj.lo);
          const int hi = std::min(fwi.lo + fwi.count, fwj.lo + fwj.count);
          for (int reg = lo; reg < hi; ++reg) {
            w = std::max(w, sass::fixed_latency(ci, reg - fwi.lo) -
                                sass::fixed_latency(cj, reg - fwj.lo));
          }
        }
      }
      // WAR: reads happen at issue, order suffices. MIO sources additionally
      // demand a read barrier later; the ordering edge keeps the overwriter
      // behind its victim.
      if (fi.reads_any(wj)) w = std::max(w, 1);
      for (const RegRange& sr : fi.mio_srcs) {
        if (overlaps(sr, wj)) w = std::max(w, 1);
      }
      // MIO queue order (conservative aliasing; the queue is in-order anyway).
      if (is_mio(ci.op) && is_mio(cj.op)) w = std::max(w, 1);
      // Predicates.
      if (fi.pred_write >= 0) {
        for (int p : fj.pred_reads) {
          if (p == fi.pred_write) w = std::max(w, sass::kPredicateLatency);
        }
        if (fi.pred_write == fj.pred_write) w = std::max(w, 1);  // WAW
      }
      if (fj.pred_write >= 0) {
        for (int p : fi.pred_reads) {
          if (p == fj.pred_write) w = std::max(w, 1);  // WAR
        }
      }
      if (w > 0) add(i, j, w);
    }
  }
  return preds;
}

/// Greedy latency-aware list scheduling of one block. Returns the new order
/// as original relative indices.
std::vector<int> order_block(const std::vector<Instruction>& code, const Block& b) {
  const int n = b.e - b.s + 1;
  const std::vector<Footprint> fp = sass::footprints(
      std::span(code).subspan(static_cast<std::size_t>(b.s), static_cast<std::size_t>(n)));
  const auto preds = block_preds(code, fp, b);
  const auto anchored = anchored_set(code, fp, b);
  std::vector<char> issued(static_cast<std::size_t>(n), 0);
  std::vector<std::int64_t> issue_t(static_cast<std::size_t>(n), 0);
  std::vector<int> order;
  order.reserve(static_cast<std::size_t>(n));
  int lowest_unissued = 0;
  std::int64_t t = 0;
  for (int step = 0; step < n; ++step) {
    while (lowest_unissued < n && issued[static_cast<std::size_t>(lowest_unissued)]) {
      ++lowest_unissued;
    }
    int best = -1;
    std::int64_t best_t = 0;
    for (int v = lowest_unissued; v < n; ++v) {
      if (issued[static_cast<std::size_t>(v)]) continue;
      if (anchored[static_cast<std::size_t>(v)] && v != lowest_unissued) continue;
      bool ready = true;
      std::int64_t earliest = t;
      for (const auto& [p, w] : preds[static_cast<std::size_t>(v)]) {
        if (!issued[static_cast<std::size_t>(p)]) {
          ready = false;
          break;
        }
        earliest = std::max(earliest, issue_t[static_cast<std::size_t>(p)] + w);
      }
      if (!ready) continue;
      if (best < 0 || earliest < best_t) {
        best = v;
        best_t = earliest;
      }
      if (earliest <= t) break;  // lowest-index node issuable right now wins
    }
    TC_ASSERT(best >= 0, "list scheduler found no ready instruction");
    issued[static_cast<std::size_t>(best)] = 1;
    issue_t[static_cast<std::size_t>(best)] = best_t;
    order.push_back(best);
    t = best_t + 1;
  }
  return order;
}

// --- pass 3: stall assignment -----------------------------------------------

struct PendingWrite {
  std::int64_t t = -1;
  int lat = 0;
  bool valid = false;
};

/// Global linear issue-time walk: earliest time each instruction may issue
/// so that every fixed-latency RAW/WAW and predicate dependence along any
/// fall-through path is satisfied by stall counts alone. A taken branch that
/// is not a self-loop back edge drains all pending commits (conservative —
/// kernel loops are self-loops, so this costs nothing there); EXIT is a
/// timing fence.
std::vector<std::int64_t> issue_times(const std::vector<Instruction>& code,
                                      const std::vector<Block>& blocks) {
  const int n = static_cast<int>(code.size());
  std::vector<char> self_loop_bra(static_cast<std::size_t>(n), 0);
  for (const Block& b : blocks) {
    if (b.self_loop) self_loop_bra[static_cast<std::size_t>(b.e)] = 1;
  }
  std::vector<std::int64_t> t(static_cast<std::size_t>(n), 0);
  std::array<PendingWrite, 256> regs{};
  std::array<PendingWrite, 8> preds{};
  for (int m = 0; m < n; ++m) {
    const Instruction& inst = code[static_cast<std::size_t>(m)];
    const Footprint f = sass::footprint(inst);
    std::int64_t req = m == 0 ? 0 : t[static_cast<std::size_t>(m - 1)] + 1;
    for (const RegRange& rr : f.reads) {
      for (int reg = rr.lo; reg < rr.lo + rr.count; ++reg) {
        const auto& w = regs[static_cast<std::size_t>(reg)];
        if (w.valid) req = std::max(req, w.t + w.lat);
      }
    }
    for (int p : f.pred_reads) {
      if (p < 0) continue;
      const auto& w = preds[static_cast<std::size_t>(p)];
      if (w.valid) req = std::max(req, w.t + sass::kPredicateLatency);
    }
    const RegRange& fw = f.fixed_write;
    for (int reg = fw.lo; reg < fw.lo + fw.count; ++reg) {
      const auto& w = regs[static_cast<std::size_t>(reg)];
      if (w.valid) req = std::max(req, w.t + w.lat - sass::fixed_latency(inst, reg - fw.lo));
    }
    if (inst.op == Opcode::kBra && !self_loop_bra[static_cast<std::size_t>(m)]) {
      // Forward (or multi-block backward) taken branch: every pending commit
      // must land before the target executes. The redirect gap is free.
      for (const auto& w : regs) {
        if (w.valid) req = std::max(req, w.t + w.lat - sass::kBranchRedirectCycles);
      }
      for (const auto& w : preds) {
        if (w.valid) {
          req = std::max(req, w.t + sass::kPredicateLatency - sass::kBranchRedirectCycles);
        }
      }
    }
    t[static_cast<std::size_t>(m)] = req;
    for (int reg = fw.lo; reg < fw.lo + fw.count; ++reg) {
      regs[static_cast<std::size_t>(reg)] = {req, sass::fixed_latency(inst, reg - fw.lo), true};
    }
    if (f.pred_write >= 0) preds[static_cast<std::size_t>(f.pred_write)] = {req, 0, true};
    if (inst.op == Opcode::kExit) {
      regs.fill({});
      preds.fill({});
    }
  }
  return t;
}

/// Minimum full-iteration issue length T of a self-loop block so that every
/// loop-carried dependence (producer in iteration i, consumer in iteration
/// i+1 with no intervening same-register write) is covered:
/// T >= latency + t_producer - t_consumer, with times local to the block.
std::int64_t loop_required_length(const std::vector<Instruction>& code, const Block& b,
                                  const std::vector<std::int64_t>& t) {
  std::int64_t need = 1;
  const auto lt = [&](int pc) {
    return t[static_cast<std::size_t>(pc)] - t[static_cast<std::size_t>(b.s)];
  };
  // Per register: positions of writes (with per-register latency) and reads.
  struct Ev {
    std::vector<std::pair<int, int>> writes;  // (pc, latency)
    std::vector<int> reads;
    std::vector<int> wlats_new;  // latency of the write at writes[k] itself
  };
  std::map<int, Ev> regs;
  std::map<int, std::vector<int>> pred_writes, pred_readers;
  for (int pc = b.s; pc <= b.e; ++pc) {
    const Instruction& inst = code[static_cast<std::size_t>(pc)];
    const Footprint f = sass::footprint(inst);
    const RegRange& fw = f.fixed_write;
    for (int reg = fw.lo; reg < fw.lo + fw.count; ++reg) {
      regs[reg].writes.push_back({pc, sass::fixed_latency(inst, reg - fw.lo)});
    }
    for (const RegRange& rr : f.reads) {
      for (int reg = rr.lo; reg < rr.lo + rr.count; ++reg) regs[reg].reads.push_back(pc);
    }
    for (int p : f.pred_reads) {
      if (p >= 0) pred_readers[p].push_back(pc);
    }
    if (f.pred_write >= 0) pred_writes[f.pred_write].push_back(pc);
  }
  for (auto& [reg, ev] : regs) {
    if (ev.writes.empty()) continue;
    const auto newest_wrapping = [&](int before_pc) -> const std::pair<int, int>* {
      // Newest write strictly before `before_pc`; if none, wrap to the
      // newest write in the whole block (previous iteration).
      const std::pair<int, int>* hit = nullptr;
      for (const auto& w : ev.writes) {
        if (w.first < before_pc) hit = &w;
      }
      if (hit == nullptr) hit = &ev.writes.back();
      return hit;
    };
    for (int r : ev.reads) {
      bool same_iter = false;
      for (const auto& w : ev.writes) same_iter = same_iter || w.first < r;
      if (same_iter) continue;  // linear pass already enforced it
      const auto* w = newest_wrapping(r);
      need = std::max<std::int64_t>(need, w->second + lt(w->first) - lt(r));
    }
    // Loop-carried WAW commit order: first write of the next iteration vs
    // the newest write of the previous one.
    const auto& first = ev.writes.front();
    const auto& last = ev.writes.back();
    if (first.first != last.first) {
      need = std::max<std::int64_t>(need, last.second - first.second + lt(last.first) -
                                              lt(first.first));
    }
  }
  for (auto& [p, readers] : pred_readers) {
    auto it = pred_writes.find(p);
    if (it == pred_writes.end() || it->second.empty()) continue;
    for (int r : readers) {
      bool same_iter = false;
      for (int wpc : it->second) same_iter = same_iter || wpc < r;
      if (same_iter) continue;
      const int wpc = it->second.back();
      need = std::max<std::int64_t>(need, sass::kPredicateLatency + lt(wpc) - lt(r));
    }
  }
  return need;
}

// --- pass 4: scoreboard allocation ------------------------------------------

struct Demand {
  int setter = -1;
  int waiter = -1;  // -1: no consumer anywhere (EXIT drain only)
  bool wrapped = false;
  bool write = true;  // write barrier (load dst) vs read barrier (MIO sources)
  Opcode setter_op = Opcode::kNop;
  int color = -1;
  bool skip_wait = false;  // covered by another wait on the same color
  std::vector<int> extra_waits;  // BAR drains / loop-exit drain positions
};

const Block* block_of(const std::vector<Block>& blocks, int pc) {
  for (const Block& b : blocks) {
    if (pc >= b.s && pc <= b.e) return &b;
  }
  return nullptr;
}

/// True when an instruction with footprint `f` reads or writes a register
/// in `r` (write demand) or overwrites one of the held source ranges (read
/// demand).
bool consumes(const Footprint& f, const RegRange& r, bool write_demand,
              const std::array<RegRange, 2>& held_srcs) {
  if (write_demand) {
    return f.reads_any(r) || overlaps(f.fixed_write, r) || overlaps(f.load_dst, r);
  }
  for (const RegRange& sr : held_srcs) {
    if (overlaps(f.fixed_write, sr) || overlaps(f.load_dst, sr)) return true;
  }
  return false;
}

std::vector<Demand> collect_demands(const std::vector<Instruction>& code,
                                    const std::vector<Block>& blocks) {
  const int n = static_cast<int>(code.size());
  const std::vector<Footprint> fp = sass::footprints(code);
  std::vector<Demand> demands;
  for (int pc = 0; pc < n; ++pc) {
    const Instruction& inst = code[static_cast<std::size_t>(pc)];
    const Footprint& f = fp[static_cast<std::size_t>(pc)];
    const RegRange ld = f.load_dst;
    const bool store = inst.op == Opcode::kSts || inst.op == Opcode::kStg;
    if (ld.count == 0 && !store) continue;
    Demand d;
    d.setter = pc;
    d.setter_op = inst.op;
    d.write = ld.count > 0;
    const std::array<RegRange, 2> held = d.write ? std::array<RegRange, 2>{} : f.mio_srcs;
    const Block* b = block_of(blocks, pc);
    const auto hit = [&](int j) {
      return consumes(fp[static_cast<std::size_t>(j)], ld, d.write, held);
    };
    for (int j = pc + 1; j <= b->e && d.waiter < 0; ++j) {
      if (hit(j)) d.waiter = j;
    }
    if (d.waiter < 0 && b->self_loop) {
      // Wrap through the back edge. The scan includes the setter itself: a
      // load with no consumer inside the loop still WAW-races its own next
      // iteration's issue, so the wait lands on the re-issuing instruction
      // (the detector and the timed SM both process waits before issue).
      for (int j = b->s; j <= pc && d.waiter < 0; ++j) {
        if (hit(j)) {
          d.waiter = j;
          d.wrapped = true;
          // The loop-exit path leaves this op in flight; drain it on the
          // first instruction after the loop so post-loop code never races
          // the late writeback.
          if (b->e + 1 < n) d.extra_waits.push_back(b->e + 1);
        }
      }
    }
    if (d.waiter < 0) {
      for (int j = b->e + 1; j < n && d.waiter < 0; ++j) {
        if (hit(j)) d.waiter = j;
      }
    }
    demands.push_back(std::move(d));
  }
  // BAR.SYNC drains every outstanding shared-memory *read* (LDS): other
  // warps overwrite the tile after the barrier, so this warp's in-flight
  // reads must have completed. In-flight global prefetches deliberately
  // survive the barrier — draining them would serialize the pipeline.
  for (int pc = 0; pc < n; ++pc) {
    if (code[static_cast<std::size_t>(pc)].op != Opcode::kBar) continue;
    for (Demand& d : demands) {
      if (d.setter_op != Opcode::kLds || !d.write) continue;
      const bool outstanding = d.wrapped ? (pc > d.setter || pc < d.waiter)
                                         : (pc > d.setter && d.waiter >= 0 && pc < d.waiter);
      if (outstanding) d.extra_waits.push_back(pc);
    }
  }
  return demands;
}

/// Interference coloring onto the six hardware barriers. Sharing a color is
/// always legal (a wait releases every op counted on the barrier — it only
/// over-synchronizes), so overflow degrades gracefully. Legal is not free,
/// though: a wait position falling inside another same-color demand's
/// (setter, waiter] window drains that bystander mid-flight and stalls for
/// its remaining latency — catastrophic when the bystander is a global load
/// armed one cycle earlier. Colors are therefore picked by minimal
/// drain-conflict cost, weighted by the bystander's latency class; demands
/// with the same waiter share for free and same-kind demands pool together
/// as the tie-break (which is what the covered-wait elision pass feeds on).
int color_demands(std::vector<Demand>& demands) {
  struct ColorState {
    bool used = false;
    Opcode op = Opcode::kNop;  // pool identity: the first member's producer
    bool wrapped = false;
    std::vector<const Demand*> members;
  };
  std::array<ColorState, sass::kNumBarriers> colors{};
  // True when a wait executing at `p` would release demand `d` mid-flight.
  // p == d.waiter is d's own (merged) wait position, not a conflict; a
  // demand with no waiter stays armed until EXIT, so any later wait on its
  // color pays for it.
  const auto drains = [](int p, const Demand& d) {
    if (p == d.waiter) return false;
    if (d.wrapped) return d.waiter < 0 || p > d.setter || p <= d.waiter;
    if (p <= d.setter) return false;
    return d.waiter < 0 || p <= d.waiter;
  };
  // Remaining-latency class of a drained bystander: global loads are the
  // expensive casualty, shared loads moderate, read-barrier (operand fetch)
  // demands cheap.
  const auto weight = [](const Demand& d) -> std::int64_t {
    if (!d.write) return 10;
    return d.setter_op == Opcode::kLdg ? 1000 : 30;
  };
  const auto pair_cost = [&](const Demand& a, const Demand& b) -> std::int64_t {
    // Same-kind demands pool for free: their mutual wait-in-window overlaps
    // are exactly what the covered-wait elision pass collapses to one wait
    // per group (the hand-scheduled kernels' per-group barrier discipline).
    if (a.setter_op == b.setter_op && a.write == b.write && a.wrapped == b.wrapped) return 0;
    std::int64_t c = 0;
    if (a.waiter >= 0 && drains(a.waiter, b)) c += weight(b);
    for (int p : a.extra_waits) {
      if (drains(p, b)) c += weight(b);
    }
    if (b.waiter >= 0 && drains(b.waiter, a)) c += weight(a);
    for (int p : b.extra_waits) {
      if (drains(p, a)) c += weight(a);
    }
    return c;
  };
  std::vector<Demand*> order;
  for (Demand& d : demands) order.push_back(&d);
  std::sort(order.begin(), order.end(),
            [](const Demand* a, const Demand* b) { return a->setter < b->setter; });
  int used = 0;
  for (Demand* d : order) {
    int pick = -1;
    // A demand already waited at the same instruction shares its bit.
    for (const Demand* o : order) {
      if (o->color >= 0 && o->waiter == d->waiter && d->waiter >= 0 && o != d) pick = o->color;
    }
    if (pick < 0) {
      std::int64_t best_cost = 0;
      bool best_samekind = false;
      std::size_t best_members = 0;
      for (int c = 0; c < sass::kNumBarriers; ++c) {
        const auto& cs = colors[static_cast<std::size_t>(c)];
        std::int64_t cost = 0;
        for (const Demand* m : cs.members) cost += pair_cost(*d, *m);
        const bool samekind =
            cs.used && cs.op == d->setter_op && cs.wrapped == d->wrapped;
        const bool better =
            pick < 0 || cost < best_cost ||
            (cost == best_cost &&
             (samekind > best_samekind ||
              (samekind == best_samekind && cs.members.size() < best_members)));
        if (better) {
          pick = c;
          best_cost = cost;
          best_samekind = samekind;
          best_members = cs.members.size();
        }
      }
    }
    auto& cs = colors[static_cast<std::size_t>(pick)];
    if (!cs.used) {
      ++used;
      cs.used = true;
      cs.op = d->setter_op;
      cs.wrapped = d->wrapped;
    }
    cs.members.push_back(d);
    d->color = pick;
  }
  return used;
}

/// Covered-wait elision: a wait on a barrier releases *every* op counted on
/// it, so a demand needs no wait of its own when another kept wait on the
/// same color falls inside its (setter, waiter] execution window. This is
/// what keeps per-consumer wait placement from degenerating on pooled
/// barriers: one wait per fragment group survives instead of one per
/// consumer — and, crucially, a consumer never ends up waiting on a
/// *just-issued* load that merely shares its color (that would land the full
/// shared-memory latency on the compute stream once per consumer).
/// Conservative scope: the covering wait must sit in the covered waiter's
/// block; the cross-block leftovers go to the detector-mirroring
/// redundant-wait pass.
int elide_covered_waits(std::vector<Demand>& demands, const std::vector<Block>& blocks) {
  struct Kept {
    int pc;
    const Block* block;
    int color;
  };
  std::vector<Kept> kept;
  // Mandatory drains (BAR.SYNC / loop-exit) always execute: coverers, never
  // candidates.
  for (const Demand& d : demands) {
    for (int pc : d.extra_waits) kept.push_back({pc, block_of(blocks, pc), d.color});
  }
  std::vector<Demand*> order;
  for (Demand& d : demands) {
    if (d.waiter >= 0) order.push_back(&d);
  }
  std::sort(order.begin(), order.end(),
            [](const Demand* a, const Demand* b) { return a->waiter < b->waiter; });
  int elided = 0;
  for (Demand* d : order) {
    const Block* bw = block_of(blocks, d->waiter);
    const Block* bs = block_of(blocks, d->setter);
    bool covered = false;
    for (const Kept& k : kept) {
      if (k.color != d->color || k.block != bw) continue;
      if (d->wrapped) {
        // Setter and waiter straddle the back edge: the wait covers when it
        // runs after the arm (same iteration) or before the consumption
        // (next iteration).
        covered = k.pc > d->setter || k.pc <= d->waiter;
      } else if (bs == bw) {
        covered = k.pc > d->setter && k.pc <= d->waiter;
      } else if (d->setter < bw->s) {
        // Setter in an earlier block: every entry into the waiter's block
        // runs k.pc before the waiter.
        covered = k.pc <= d->waiter;
      }
      if (covered) break;
    }
    if (covered) {
      d->skip_wait = true;
      ++elided;
    } else {
      kept.push_back({d->waiter, bw, d->color});
    }
  }
  return elided;
}

void apply_demands(std::vector<Instruction>& code, std::vector<Demand>& demands,
                   const std::vector<Block>& blocks, ScheduleStats& stats) {
  stats.barriers_used = color_demands(demands);
  stats.waits_elided = elide_covered_waits(demands, blocks);
  const int n = static_cast<int>(code.size());
  for (const Demand& d : demands) {
    auto& setter = code[static_cast<std::size_t>(d.setter)];
    if (d.write) {
      setter.ctrl.write_barrier = static_cast<std::uint8_t>(d.color);
    } else {
      setter.ctrl.read_barrier = static_cast<std::uint8_t>(d.color);
    }
    const auto wait_at = [&](int pc) {
      code[static_cast<std::size_t>(pc)].ctrl.wait_mask |=
          static_cast<std::uint8_t>(1u << d.color);
    };
    if (d.waiter >= 0 && !d.skip_wait) wait_at(d.waiter);
    for (int pc : d.extra_waits) wait_at(pc);
  }
  // EXIT drains whatever is provably still (or possibly) armed so the kernel
  // retires with clean scoreboards and the barrier-pairing lint stays quiet.
  for (int pc = 0; pc < n; ++pc) {
    if (code[static_cast<std::size_t>(pc)].op != Opcode::kExit) continue;
    for (const Demand& d : demands) {
      if (d.setter >= pc) continue;
      const bool consumed_before = !d.wrapped && d.waiter >= 0 && d.waiter <= pc;
      if (!consumed_before) {
        code[static_cast<std::size_t>(pc)].ctrl.wait_mask |=
            static_cast<std::uint8_t>(1u << d.color);
      }
    }
  }
}

// --- pass 5: redundant-wait elimination -------------------------------------

struct WaitVerdict {
  bool redundant_somewhere = false;  // the detector would warn at >= 1 visit
  bool redundant_everywhere = true;  // ... at every visit
};

/// Replays the detector's segment walk (including the unrolled second pass
/// of a self-loop) and classifies every wait bit: is it provably redundant
/// (barrier not armed by any in-flight op of the segment, and known clear
/// from a previous in-segment wait or program entry) at some / at every
/// visit? NOTE: arming does not reset the clear state — the detector's
/// BarState is sticky and only the in-flight ("armed") check suppresses its
/// redundant-wait warning; this replay matches it bit for bit.
std::map<std::pair<int, int>, WaitVerdict> replay_waits(const std::vector<Instruction>& code,
                                                        const std::vector<Block>& blocks) {
  std::map<std::pair<int, int>, WaitVerdict> verdicts;
  struct Op {
    std::uint8_t wb, rb;
  };
  for (const Block& b : blocks) {
    std::vector<Op> inflight;
    std::array<bool, sass::kNumBarriers> clear{};
    clear.fill(b.s == 0);
    const int iters = b.self_loop ? 2 : 1;
    for (int it = 0; it < iters; ++it) {
      for (int pc = b.s; pc <= b.e; ++pc) {
        const Instruction& inst = code[static_cast<std::size_t>(pc)];
        if (inst.ctrl.wait_mask != 0) {
          for (int bar = 0; bar < sass::kNumBarriers; ++bar) {
            if (((inst.ctrl.wait_mask >> bar) & 1u) == 0) continue;
            bool armed = false;
            for (auto& op : inflight) {
              if (op.wb == bar) {
                op.wb = sass::kNoBarrier;
                armed = true;
              }
              if (op.rb == bar) {
                op.rb = sass::kNoBarrier;
                armed = true;
              }
            }
            const bool redundant = !armed && clear[static_cast<std::size_t>(bar)];
            auto& v = verdicts[{pc, bar}];
            v.redundant_somewhere = v.redundant_somewhere || redundant;
            v.redundant_everywhere = v.redundant_everywhere && redundant;
            clear[static_cast<std::size_t>(bar)] = true;
          }
        }
        if (is_mio(inst.op) &&
            (inst.ctrl.write_barrier != sass::kNoBarrier ||
             inst.ctrl.read_barrier != sass::kNoBarrier)) {
          inflight.push_back({inst.ctrl.write_barrier, inst.ctrl.read_barrier});
        }
      }
    }
  }
  return verdicts;
}

/// Eliminates every wait bit the detector would flag as redundant.
///  * Redundant at every visit: the barrier counter is provably zero there
///    on all paths the detector checks, so the bit is dropped outright.
///  * Redundant only at the second visit of an unrolled self-loop (a BAR
///    drain or an earlier wait consumed the arm in steady state, but the
///    first iteration still relied on a producer outside the loop): the bit
///    is hoisted onto the last pre-loop instruction, which pays the wait
///    once instead of every iteration — the classic loop-preheader hoist.
/// Iterates to a fixpoint: a move can expose new redundancy upstream, but
/// bits only ever move out of loops or disappear, so this terminates.
int drop_redundant_waits(std::vector<Instruction>& code, const std::vector<Block>& blocks,
                         int* moved_out) {
  int dropped = 0;
  int moved = 0;
  for (int round = 0; round < 4 * sass::kNumBarriers; ++round) {
    const auto verdicts = replay_waits(code, blocks);
    bool changed = false;
    for (const auto& [key, v] : verdicts) {
      const auto [pc, bar] = key;
      if (!v.redundant_somewhere) continue;
      auto& mask = code[static_cast<std::size_t>(pc)].ctrl.wait_mask;
      if ((mask & (1u << bar)) == 0) continue;  // already handled this round
      if (v.redundant_everywhere) {
        mask &= static_cast<std::uint8_t>(~(1u << bar));
        ++dropped;
        changed = true;
        continue;
      }
      const Block* b = block_of(blocks, pc);
      if (b != nullptr && b->self_loop && b->s > 0) {
        mask &= static_cast<std::uint8_t>(~(1u << bar));
        code[static_cast<std::size_t>(b->s - 1)].ctrl.wait_mask |=
            static_cast<std::uint8_t>(1u << bar);
        ++moved;
        changed = true;
      }
      // Otherwise leave the bit: the verifier will surface the warning and
      // reject — this only happens for programs whose first loop iteration
      // genuinely consumes an in-flight value with no pre-loop producer.
    }
    if (!changed) break;
  }
  if (moved_out != nullptr) *moved_out = moved;
  return dropped;
}

// --- pass 6: register reuse flags -------------------------------------------

int assign_reuse_flags(std::vector<Instruction>& code) {
  int flags = 0;
  const auto slot_reg = [](const Instruction& inst, int slot) -> sass::Reg {
    switch (slot) {
      case 0:
        return inst.srca;
      case 1:
        return inst.has_imm ? sass::RZ : inst.srcb;
      default:
        return inst.srcc;
    }
  };
  for (std::size_t m = 0; m + 1 < code.size(); ++m) {
    Instruction& cur = code[m];
    const Instruction& nxt = code[m + 1];
    const auto pc = sass::pipe_class(cur.op);
    if (pc != sass::pipe_class(nxt.op)) continue;
    if (pc != sass::PipeClass::kTensor && pc != sass::PipeClass::kFma) continue;
    const RegRange fw = sass::footprint(cur).fixed_write;
    for (int slot = 0; slot < 3; ++slot) {
      const sass::Reg r = slot_reg(cur, slot);
      if (r.is_rz() || !(r == slot_reg(nxt, slot))) continue;
      if (covers(fw, r.idx)) continue;
      cur.ctrl.reuse |= static_cast<std::uint8_t>(1u << slot);
      ++flags;
    }
  }
  return flags;
}

}  // namespace

// --- driver -----------------------------------------------------------------

sass::Program schedule(const sass::Program& virt, const ScheduleOptions& opts,
                       ScheduleStats& stats) {
  stats = {};
  for (std::size_t pc = 0; pc < virt.code.size(); ++pc) {
    const auto& c = virt.code[pc].ctrl;
    TC_CHECK(c.stall == 1 && c.write_barrier == sass::kNoBarrier &&
                 c.read_barrier == sass::kNoBarrier && c.wait_mask == 0 && c.reuse == 0,
             "schedule(): input is not a virtual program — instruction " + std::to_string(pc) +
                 " carries manual control information (" + virt.code[pc].to_string() + ")");
  }
  sass::Program out = virt;
  if (out.code.empty()) return out;

  // Pass 1+2: block partition and (optional) list scheduling. Reordering is
  // slot-preserving per block, so branch targets (always block leaders)
  // survive unchanged.
  std::vector<Block> blocks = partition(out.code);
  if (opts.reorder) {
    std::vector<Instruction> reordered = out.code;
    for (const Block& b : blocks) {
      const std::vector<int> order = order_block(out.code, b);
      for (int slot = 0; slot < static_cast<int>(order.size()); ++slot) {
        reordered[static_cast<std::size_t>(b.s + slot)] =
            out.code[static_cast<std::size_t>(b.s + order[static_cast<std::size_t>(slot)])];
        if (order[static_cast<std::size_t>(slot)] != slot) ++stats.reordered;
      }
    }
    out.code = std::move(reordered);
  }

  // Pass 3: minimal stalls via the global issue-time walk, then realize the
  // gaps as stall counts plus NOP padding, and pad self-loop back edges.
  const std::vector<std::int64_t> t = issue_times(out.code, blocks);
  const int n = static_cast<int>(out.code.size());
  std::vector<int> stall(static_cast<std::size_t>(n), 1);
  std::vector<std::int64_t> pad_after(static_cast<std::size_t>(n), 0);
  for (int m = 0; m + 1 < n; ++m) {
    const std::int64_t gap = t[static_cast<std::size_t>(m + 1)] - t[static_cast<std::size_t>(m)];
    stall[static_cast<std::size_t>(m)] = static_cast<int>(std::min<std::int64_t>(gap, 15));
    pad_after[static_cast<std::size_t>(m)] = gap - stall[static_cast<std::size_t>(m)];
  }
  for (const Block& b : blocks) {
    if (!b.self_loop) continue;
    const std::int64_t t_min = loop_required_length(out.code, b, t);
    int& bra_stall = stall[static_cast<std::size_t>(b.e)];
    const std::int64_t body = t[static_cast<std::size_t>(b.e)] - t[static_cast<std::size_t>(b.s)];
    std::int64_t have = body + std::max<std::int64_t>(bra_stall, sass::kBranchRedirectCycles);
    if (have < t_min) {
      // First widen the branch's own stall (the taken advance is
      // max(stall, redirect), so only stalls past the redirect gain time).
      const int widened =
          static_cast<int>(std::min<std::int64_t>(15, std::max<std::int64_t>(bra_stall,
                                                                             t_min - body)));
      have += std::max<std::int64_t>(widened, sass::kBranchRedirectCycles) -
              std::max<std::int64_t>(bra_stall, sass::kBranchRedirectCycles);
      bra_stall = std::max(bra_stall, widened);
    }
    if (have < t_min && b.e > b.s) {
      pad_after[static_cast<std::size_t>(b.e - 1)] += t_min - have;  // NOPs before the BRA
    }
  }
  std::vector<Instruction> padded;
  std::vector<int> new_index(static_cast<std::size_t>(n), 0);
  for (int m = 0; m < n; ++m) {
    new_index[static_cast<std::size_t>(m)] = static_cast<int>(padded.size());
    Instruction inst = out.code[static_cast<std::size_t>(m)];
    inst.ctrl.stall = static_cast<std::uint8_t>(stall[static_cast<std::size_t>(m)]);
    padded.push_back(inst);
    std::int64_t pad = pad_after[static_cast<std::size_t>(m)];
    while (pad > 0) {
      const int k = static_cast<int>(std::min<std::int64_t>(pad, 15));
      Instruction nop;
      nop.op = Opcode::kNop;
      nop.ctrl.stall = static_cast<std::uint8_t>(k);
      padded.push_back(nop);
      pad -= k;
      ++stats.nops_inserted;
    }
  }
  for (Instruction& inst : padded) {
    if (inst.op == Opcode::kBra && inst.target >= 0) {
      inst.target = new_index[static_cast<std::size_t>(inst.target)];
    }
  }
  out.code = std::move(padded);

  // Pass 4: scoreboard allocation on final positions.
  blocks = partition(out.code);
  std::vector<Demand> demands = collect_demands(out.code, blocks);
  apply_demands(out.code, demands, blocks, stats);

  // Pass 5: drop provably redundant wait bits (and hoist steady-state
  // redundant loop waits into the preheader).
  stats.waits_dropped = drop_redundant_waits(out.code, blocks, &stats.waits_hoisted);
  for (const Instruction& inst : out.code) {
    for (int bar = 0; bar < sass::kNumBarriers; ++bar) {
      stats.waits_placed += (inst.ctrl.wait_mask >> bar) & 1;
    }
  }

  // Pass 6: reuse flags.
  stats.reuse_flags = assign_reuse_flags(out.code);

  stats.instructions = static_cast<int>(out.code.size());
  for (const Instruction& inst : out.code) stats.static_issue_cycles += inst.ctrl.stall;

  // Postcondition: the result is valid and the hazard oracle finds nothing.
  sass::validate(out);
  const auto diags = check::find_hazards(out);
  if (!diags.empty()) {
    std::string msg = "schedule(): hazard oracle rejected the result:";
    for (const auto& d : diags) msg += "\n  " + sass::format(d);
    TC_CHECK(false, msg);
  }
  return out;
}

sass::Program schedule(const sass::Program& virt, const ScheduleOptions& opts) {
  ScheduleStats stats;
  return schedule(virt, opts, stats);
}

}  // namespace tc::sched
