#include "sim/timed_sm.hpp"

#include <algorithm>
#include <array>
#include <deque>
#include <limits>
#include <memory>
#include <optional>

#include "common/error.hpp"
#include "mem/banked_smem.hpp"
#include "prof/profiler.hpp"
#include "mem/coalescer.hpp"
#include "mem/sector_cache.hpp"
#include "sim/exec_core.hpp"
#include "sim/pipes.hpp"
#include "sim/probe.hpp"

namespace tc::sim {

namespace {

struct CapturedGpr {
  sass::Reg reg;
  std::uint8_t lane;
  std::uint32_t value;
};
struct CapturedPred {
  sass::Pred pred;
  std::uint8_t lane;
  bool value;
};

/// Buffers the writes of one instruction so the engine can retime them.
class CaptureSink final : public WriteSink {
 public:
  void gpr(sass::Reg r, int lane, std::uint32_t value) override {
    gprs.push_back({r, static_cast<std::uint8_t>(lane), value});
  }
  void pred(sass::Pred p, int lane, bool value) override {
    preds.push_back({p, static_cast<std::uint8_t>(lane), value});
  }
  void clear() {
    gprs.clear();
    preds.clear();
  }
  std::vector<CapturedGpr> gprs;
  std::vector<CapturedPred> preds;
};

struct PendingPred {
  std::uint64_t due;
  CapturedPred w;
};

struct TWarp {
  WarpRegs regs;
  std::int32_t pc = 0;
  bool exited = false;
  bool at_barrier = false;
  std::uint64_t ready_cycle = 0;
  std::array<int, sass::kNumBarriers> scoreboard{};
  std::vector<PendingPred> pending_preds;
  int cta_index = 0;
  int warp_in_cta = 0;
};

struct TCta {
  CtaCoord coord;
  std::unique_ptr<mem::SharedMemory> smem;
  int alive_warps = 0;
  int arrived = 0;
};

struct MioOp {
  int warp = 0;
  MemAccess access;
  std::vector<CapturedGpr> load_writes;  // applied at data arrival
  std::uint8_t write_barrier = sass::kNoBarrier;
  std::uint8_t read_barrier = sass::kNoBarrier;
  // Classification (filled on first service attempt).
  bool classified = false;
  double cost = 0.0;           // MIO pipe occupancy (address/L1/smem path)
  double port_bytes = 0.0;     // bytes crossing the L2-to-SM return port
  double need_l2_tokens = 0.0;  // bytes charged to the device L2 budget
  double need_dram_tokens = 0.0;  // bytes from DRAM
  int latency = 0;
};

struct BarrierRelease {
  std::uint64_t due;
  int warp;
  std::uint8_t barrier;
};

// Instructions the SM-wide MIO queue holds before MIO-pipe issue stalls.
constexpr std::size_t kMioQueueDepth = 12;

// A warp's scheduler state in one cycle: the prof::StallReason blocking it,
// or one of these two.
using WarpState = std::uint8_t;
constexpr WarpState kWarpEligible = 200;
constexpr WarpState kWarpDead = 255;

constexpr WarpState blocked_by(prof::StallReason r) { return static_cast<WarpState>(r); }

// idle_until of an idle SM with nothing pending: it is deadlocked, and
// skip_to runs it into max_cycles.
constexpr std::uint64_t kNoEvent = std::numeric_limits<std::uint64_t>::max();

}  // namespace

struct TimedSm::Impl {
  TimedConfig cfg;
  mem::GlobalMemory& gmem;
  MemLatency lat;
  // Built by begin(), so a second run starts as cold as the first: the L1
  // tags, and a standalone SM's memory system. A device SM charges
  // cfg.shared instead; memsys points at the one in use.
  std::optional<mem::SectorCache> l1;
  std::optional<MemSystem> own_mem;
  MemSystem* memsys = nullptr;
  double forced_l2_accum = 0.0;

  // --- run state (valid from begin() until finish()) -----------------------
  const Launch* launch = nullptr;
  const sass::Program* prog = nullptr;
  CtaSource* source = nullptr;  // dynamic CTA refill; null = fixed resident set
  int partitions = 0;
  std::vector<TCta> cta_state;
  std::vector<std::unique_ptr<TWarp>> warps;
  int num_warps = 0;
  int alive = 0;
  prof::Profiler* prof = nullptr;
  std::vector<WarpState> warp_state;  // per-cycle scratch (profiling only)
  std::vector<std::uint64_t> tensor_free;
  std::vector<std::uint64_t> fma_free;
  std::vector<std::uint64_t> alu_free;
  std::vector<int> rr;  // scheduler rotation
  std::deque<MioOp> mio_queue;
  std::uint64_t mio_free = 0;
  double port_free = 0.0;  // L2-to-SM return port availability
  int outstanding = 0;     // in-flight global requests (MSHR occupancy)
  std::vector<std::uint64_t> mshr_release;
  std::vector<BarrierRelease> releases;
  std::vector<int> free_slots;  // retired CTA slots awaiting refill
  prof::CounterSet counters;
  CaptureSink sink;
  std::uint64_t now = 0;
  // The next cycle step_cycle must run: now after a cycle that changed
  // something, the earliest wake-up after an idle one (see skip_to).
  std::uint64_t idle_until = 0;
  bool running = false;

  Impl(TimedConfig c, mem::GlobalMemory& g)
      : cfg(c),
        gmem(g),
        lat(mem_latency(c.spec)) {}

  // Round-robin partition assignment by global warp index, as on hardware.
  [[nodiscard]] int partition_of(int w) const { return w % partitions; }

  void settle_warp(TWarp& w, std::uint64_t cycle) {
    w.regs.settle(cycle);
    if (!w.pending_preds.empty()) {
      auto keep = w.pending_preds.begin();
      for (auto it = w.pending_preds.begin(); it != w.pending_preds.end(); ++it) {
        if (it->due <= cycle) {
          w.regs.write_pred(it->w.pred, it->w.lane, it->w.value);
        } else {
          *keep++ = *it;
        }
      }
      w.pending_preds.erase(keep, w.pending_preds.end());
    }
  }

  /// Earliest cycle at which settle_warp would commit a write of w.
  [[nodiscard]] static std::uint64_t next_due(const TWarp& w) {
    std::uint64_t due = w.regs.next_due();
    for (const auto& pp : w.pending_preds) due = std::min(due, pp.due);
    return due;
  }

  /// Classifies one global access: which bytes come from L1/L2/DRAM, what
  /// MIO cost and latency it has. Mutates cache tag state (done exactly once
  /// per op). A device SM probes the device-wide L2 tag array, so hits
  /// produced by *other* SMs' traffic are observed — that is the inter-CTA
  /// reuse WavePerf only models analytically.
  void classify_global(MioOp& op) {
    const auto sectors =
        mem::coalesce_sectors(std::span(op.access.addrs), std::span(op.access.active),
                              op.access.width);
    double l1_bytes = 0.0;
    double l2_bytes = 0.0;
    double dram_bytes = 0.0;
    const bool use_l1 = op.access.cache == sass::CacheOp::kCa && !op.access.is_store;
    if (op.access.is_store) {
      int active_lanes = 0;
      for (bool a : op.access.active) active_lanes += a ? 1 : 0;
      dram_bytes = static_cast<double>(active_lanes) * sass::width_bytes(op.access.width);
    }
    for (const auto s : sectors) {
      if (use_l1 && l1->access(s) == mem::HitLevel::kHit) {
        l1_bytes += mem::kSectorBytes;
        continue;
      }
      if (op.access.is_store) {
        // Writes drain through L2 to DRAM; adjacent lanes/instructions are
        // write-combined downstream, so charge the bytes actually written
        // (accumulated below from the lane footprint, not whole sectors).
        continue;
      }
      bool l2_hit;
      if (cfg.l2_pinned()) {
        forced_l2_accum += cfg.forced_l2_hit_rate;
        l2_hit = forced_l2_accum >= 1.0;
        if (l2_hit) forced_l2_accum -= 1.0;
      } else {
        l2_hit = memsys->l2->access(s) == mem::HitLevel::kHit;
      }
      if (l2_hit) {
        l2_bytes += mem::kSectorBytes;
      } else {
        dram_bytes += mem::kSectorBytes;
      }
    }
    // The MIO pipe is occupied only for the address/tag/L1 phase; bytes that
    // come from L2 or DRAM flow through the separate L2-to-SM return port.
    op.cost = std::max(4.0, l1_bytes / 64.0);
    op.port_bytes = l2_bytes + dram_bytes;
    op.need_l2_tokens = l2_bytes + dram_bytes;
    op.need_dram_tokens = dram_bytes;
    op.latency = dram_bytes > 0 ? lat.dram : (l2_bytes > 0 ? lat.l2 : lat.l1);
    counters.l1_bytes += l1_bytes;
    counters.l2_bytes += l2_bytes;
    counters.dram_bytes += dram_bytes;
    counters.l1_sectors += static_cast<std::uint64_t>(l1_bytes / mem::kSectorBytes + 0.5);
    counters.l2_sectors += static_cast<std::uint64_t>(l2_bytes / mem::kSectorBytes + 0.5);
    counters.dram_sectors += static_cast<std::uint64_t>(dram_bytes / mem::kSectorBytes + 0.5);
  }

  void classify_smem(MioOp& op) {
    const auto cost = mem::smem_access_cost(std::span(op.access.addrs),
                                            std::span(op.access.active), op.access.width,
                                            op.access.is_store);
    const sass::Opcode opc = op.access.is_store ? sass::Opcode::kSts : sass::Opcode::kLds;
    op.cost = smem_base_cost(opc, op.access.width) * cost.conflict_factor();
    op.latency = lat.smem;
    counters.smem_beats += static_cast<std::uint64_t>(cost.beats);
    counters.smem_phases += static_cast<std::uint64_t>(cost.phases);
  }

  void begin(const Launch& l, std::span<const CtaCoord> initial, CtaSource* src) {
    TC_CHECK(l.program != nullptr, "launch without a program");
    TC_CHECK(!initial.empty(), "no CTAs to run");
    TC_CHECK(!running, "begin() while a run is already active");
    launch = &l;
    prog = l.program;
    source = src;
    partitions = cfg.spec.processing_blocks_per_sm;

    cta_state.clear();
    cta_state.resize(initial.size());
    warps.clear();
    for (std::size_t c = 0; c < initial.size(); ++c) {
      cta_state[c].coord = initial[c];
      cta_state[c].smem = std::make_unique<mem::SharedMemory>(prog->smem_bytes);
      cta_state[c].alive_warps = static_cast<int>(l.warps_per_cta());
      for (std::uint32_t w = 0; w < l.warps_per_cta(); ++w) {
        auto tw = std::make_unique<TWarp>();
        tw->cta_index = static_cast<int>(c);
        tw->warp_in_cta = static_cast<int>(w);
        warps.push_back(std::move(tw));
      }
    }
    num_warps = static_cast<int>(warps.size());
    alive = num_warps;

    // Attribution is off unless the caller attached a Profiler; every hook
    // site below is guarded by this one pointer test. The counters are not.
    prof = cfg.profiler;
    if (prof != nullptr) prof->begin_run(*prog, partitions, num_warps);
    warp_state.clear();
    if (prof != nullptr) warp_state.assign(static_cast<std::size_t>(num_warps), kWarpDead);

    tensor_free.assign(static_cast<std::size_t>(partitions), 0);
    fma_free.assign(static_cast<std::size_t>(partitions), 0);
    alu_free.assign(static_cast<std::size_t>(partitions), 0);
    rr.assign(static_cast<std::size_t>(partitions), 0);
    mio_queue.clear();
    mio_free = 0;
    port_free = 0.0;
    outstanding = 0;
    mshr_release.clear();
    releases.clear();
    free_slots.clear();
    counters = prof::CounterSet{};
    counters.sched.assign(static_cast<std::size_t>(partitions), prof::SchedCounters{});
    l1.emplace(cfg.spec.l1_size_bytes, cfg.spec.l1_ways);
    memsys = cfg.shared != nullptr ? cfg.shared : &own_mem.emplace(cfg);
    TC_CHECK(cfg.l2_pinned() || memsys->l2.has_value(),
             "an emergent L2 hit rate needs a MemSystem with an L2 tag array");
    forced_l2_accum = 0.0;
    now = 0;
    idle_until = 0;
    running = true;
  }

  [[nodiscard]] bool is_done() const {
    return !running || (alive == 0 && free_slots.empty());
  }

  /// A retired slot can be reused only once nothing in flight still names
  /// its warps. Every in-flight hazard (pending MIO op with a write/read
  /// barrier, scheduled BarrierRelease) holds a scoreboard count on its warp,
  /// so all-zero scoreboards across the slot's warps is the full condition;
  /// barrier-less stores still queued are timing-only and reference the slot
  /// harmlessly (empty load_writes, no releases).
  [[nodiscard]] bool slot_quiescent(int ci) const {
    for (const auto& wptr : warps) {
      if (wptr->cta_index != ci) continue;
      for (int b = 0; b < sass::kNumBarriers; ++b) {
        if (wptr->scoreboard[static_cast<std::size_t>(b)] > 0) return false;
      }
    }
    return true;
  }

  /// Relaunches a freed CTA slot with a new CTA (dynamic refill: the
  /// GigaThread engine places a new CTA as soon as one retires — not
  /// wave-by-wave — which is what makes uneven tail waves emerge).
  void respawn_slot(int ci, CtaCoord coord) {
    TCta& cta = cta_state[static_cast<std::size_t>(ci)];
    if (cfg.probe != nullptr) {
      // Preserve the retiring CTA's final state for divergence probes —
      // captured under the *retiring* coordinates, before the slot is
      // relabelled with the incoming CTA's.
      for (auto& wptr : warps) {
        if (wptr->cta_index != ci) continue;
        TWarp& w = *wptr;
        w.regs.settle_all();
        for (const auto& pp : w.pending_preds) {
          w.regs.write_pred(pp.w.pred, pp.w.lane, pp.w.value);
        }
        w.pending_preds.clear();
        cfg.probe->capture(w.regs, cta.coord.x, cta.coord.y, cta.coord.z, w.warp_in_cta);
      }
    }
    cta.coord = coord;
    cta.smem->clear();
    cta.arrived = 0;
    cta.alive_warps = static_cast<int>(launch->warps_per_cta());
    for (auto& wptr : warps) {
      if (wptr->cta_index != ci) continue;
      TWarp& w = *wptr;
      w.regs = WarpRegs{};
      w.pc = 0;
      w.exited = false;
      w.at_barrier = false;
      w.ready_cycle = now + 1;  // launched CTA starts issuing next cycle
      w.scoreboard.fill(0);
      w.pending_preds.clear();
      ++alive;
    }
  }

  /// The one definition of "may this warp issue this cycle", shared by the
  /// issue loop and the profiler: kWarpDead once it exited, kWarpEligible
  /// when it can issue into partition `p` now, otherwise the reason it
  /// cannot, tested in order: BAR.SYNC, stall-count window, scoreboard wait,
  /// then target pipe or MIO-queue space. Settles the warp's due writebacks
  /// first, which is time-driven and idempotent. A warp blocked until a
  /// known cycle — the end of its stall-count window or of its pipe's
  /// occupancy — lowers `wake` to that cycle; the other blockers end only
  /// through an event step_cycle tracks itself.
  WarpState warp_state_of(TWarp& w, int p, std::uint64_t& wake) {
    if (w.exited) return kWarpDead;
    if (w.at_barrier) return blocked_by(prof::StallReason::kBarrier);
    if (w.ready_cycle > now) {
      wake = std::min(wake, w.ready_cycle);
      return blocked_by(prof::StallReason::kStallCount);
    }
    settle_warp(w, now);
    const auto& inst = prog->code[static_cast<std::size_t>(w.pc)];
    for (int b = 0; b < sass::kNumBarriers; ++b) {
      if (((inst.ctrl.wait_mask >> b) & 1) && w.scoreboard[b] > 0) {
        return blocked_by(prof::StallReason::kScoreboard);
      }
    }
    const auto pi = static_cast<std::size_t>(p);
    std::uint64_t free_at = 0;
    switch (sass::pipe_class(inst.op)) {
      case sass::PipeClass::kTensor:
        free_at = tensor_free[pi];
        break;
      case sass::PipeClass::kFma:
        free_at = fma_free[pi];
        break;
      case sass::PipeClass::kAlu:
      case sass::PipeClass::kSpecial:
        free_at = alu_free[pi];
        break;
      case sass::PipeClass::kMio:
        if (mio_queue.size() >= kMioQueueDepth) {
          return blocked_by(prof::StallReason::kMioQueueFull);
        }
        break;
      case sass::PipeClass::kControl:
        break;
    }
    if (free_at <= now) return kWarpEligible;
    wake = std::min(wake, free_at);
    return blocked_by(prof::StallReason::kPipeBusy);
  }

  /// Profiling: charges every live warp of partition p except `issued_warp`
  /// `cycles` stall cycles at its PC, for the reason the pre-pass recorded in
  /// warp_state, and returns the reason most of them share — what an idle
  /// scheduler cycle is attributed to (kNoInstruction when none is live).
  prof::StallReason charge_stalls(int p, int issued_warp, std::uint64_t cycles) {
    std::array<std::uint32_t, prof::kNumStallReasons> reason_count{};
    for (int wi = 0; wi < num_warps; ++wi) {
      if (partition_of(wi) != p) continue;
      const WarpState state = warp_state[static_cast<std::size_t>(wi)];
      if (state == kWarpDead || wi == issued_warp) continue;
      const auto reason = state == kWarpEligible ? prof::StallReason::kNotSelected
                                                 : static_cast<prof::StallReason>(state);
      // Non-issued warps did not move, so w.pc is still the blocked PC.
      prof->on_warp_stall(wi, warps[static_cast<std::size_t>(wi)]->pc, reason, cycles);
      ++reason_count[static_cast<std::size_t>(reason)];
    }
    auto dominant = prof::StallReason::kNoInstruction;
    std::uint32_t best = 0;
    for (int r = 0; r < prof::kNumStallReasons; ++r) {
      if (reason_count[static_cast<std::size_t>(r)] > best) {
        best = reason_count[static_cast<std::size_t>(r)];
        dominant = static_cast<prof::StallReason>(r);
      }
    }
    return dominant;
  }

  /// Charges `cycles` idle cycles to partition p's scheduler and, when
  /// profiling, attributes them and the blocked warps' stall cycles.
  void sched_idle(int p, std::uint64_t cycles) {
    counters.sched[static_cast<std::size_t>(p)].idle_cycles += cycles;
    if (prof != nullptr) prof->on_sched_idle(p, charge_stalls(p, -1, cycles), cycles);
  }

  /// Counts a memory instruction entering the MIO queue: its class, the
  /// bytes its active lanes request, and the queue's depth.
  void count_mem_issue(const MemAccess& m) {
    int active_lanes = 0;
    for (bool a : m.active) active_lanes += a ? 1 : 0;
    const auto bytes = static_cast<std::uint64_t>(active_lanes) * sass::width_bytes(m.width);
    if (m.is_global) {
      ++(m.is_store ? counters.stg_count : counters.ldg_count);
      (m.is_store ? counters.stg_bytes : counters.ldg_bytes) += bytes;
    } else {
      ++(m.is_store ? counters.sts_count : counters.lds_count);
      (m.is_store ? counters.sts_bytes : counters.lds_bytes) += bytes;
    }
    counters.mio_queue_highwater =
        std::max(counters.mio_queue_highwater, static_cast<int>(mio_queue.size()));
  }

  void step_cycle() {
    TC_CHECK(now < cfg.max_cycles, "timed simulation exceeded max_cycles (deadlock?)");
    // Whether this cycle changes anything but the clock, due writebacks and
    // the profiler's attribution; and the earliest cycle a blocked warp can
    // wake up by itself.
    bool changed = false;
    std::uint64_t wake = kNoEvent;

    // --- scoreboard releases -----------------------------------------------
    if (!releases.empty()) {
      auto keep = releases.begin();
      for (auto it = releases.begin(); it != releases.end(); ++it) {
        if (it->due <= now) {
          TWarp& w = *warps[static_cast<std::size_t>(it->warp)];
          TC_ASSERT(w.scoreboard[it->barrier] > 0, "scoreboard underflow");
          --w.scoreboard[it->barrier];
        } else {
          *keep++ = *it;
        }
      }
      changed |= keep != releases.end();
      releases.erase(keep, releases.end());
    }

    // --- MSHR retirement -----------------------------------------------------
    if (!mshr_release.empty()) {
      auto keep = mshr_release.begin();
      for (auto it = mshr_release.begin(); it != mshr_release.end(); ++it) {
        if (*it <= now) {
          --outstanding;
        } else {
          *keep++ = *it;
        }
      }
      changed |= keep != mshr_release.end();
      mshr_release.erase(keep, mshr_release.end());
    }

    // --- MIO service ---------------------------------------------------------
    if (mio_free <= now && !mio_queue.empty()) {
      MioOp& op = mio_queue.front();
      if (!op.classified) {
        if (op.access.is_global) {
          classify_global(op);
        } else {
          classify_smem(op);
        }
        op.classified = true;
        changed = true;
      }
      // Global requests occupy an MSHR until their data returns; when all
      // MSHRs are busy the LSU stalls (this backpressure is what the paper's
      // Table III LDG CPIs measure).
      const bool mshr_ok = !op.access.is_global || op.access.is_store ||
                           op.port_bytes == 0.0 || outstanding < cfg.spec.mshr_limit;
      if (mshr_ok) {
        changed = true;
        const auto cost_cycles = static_cast<std::uint64_t>(op.cost + 0.999);
        mio_free = now + cost_cycles;
        counters.mio_busy += cost_cycles;

        std::uint64_t arrive = mio_free + static_cast<std::uint64_t>(op.latency);
        if (op.access.is_global && op.port_bytes > 0.0) {
          // Serialize through the L2-to-SM return port, then apply device
          // bandwidth debt (shortage delays completion, not the pipe). A
          // device's SMs share the budgets, so all their withdrawals deepen
          // one common debt and bandwidth contention between SMs emerges.
          const double port_busy = op.port_bytes / cfg.spec.l2_port_bytes_per_cycle;
          const double data_ready = std::max(static_cast<double>(now), port_free) + port_busy;
          port_free = data_ready;
          counters.l2_port_busy_cycles += port_busy;
          const double bw_delay = std::max(memsys->l2_bw.consume(op.need_l2_tokens, now),
                                           memsys->dram_bw.consume(op.need_dram_tokens, now));
          counters.mio_bw_stall += static_cast<std::uint64_t>(bw_delay);
          arrive = static_cast<std::uint64_t>(data_ready + bw_delay) +
                   static_cast<std::uint64_t>(op.latency);
          // Stores are fire-and-forget into L2 (write-back); only loads hold
          // an MSHR until their data returns.
          if (!op.access.is_store) {
            ++outstanding;
            mshr_release.push_back(arrive);
            counters.mshr_highwater = std::max(counters.mshr_highwater, outstanding);
          }
        }
        if (prof != nullptr) {
          prof->on_mio_service(op.access.is_global, op.access.is_store,
                               static_cast<int>(op.access.width), now, cost_cycles);
        }

        TWarp& w = *warps[static_cast<std::size_t>(op.warp)];
        for (const auto& cw : op.load_writes) {
          w.regs.write_at(cw.reg, cw.lane, cw.value, arrive);
        }
        if (op.write_barrier != sass::kNoBarrier) {
          releases.push_back({arrive, op.warp, op.write_barrier});
        }
        if (op.read_barrier != sass::kNoBarrier) {
          releases.push_back({mio_free, op.warp, op.read_barrier});
        }
        mio_queue.pop_front();
      }
    }

    // --- issue: one instruction per partition per cycle ----------------------
    for (int p = 0; p < partitions; ++p) {
      // Profiling: record every resident warp's state before this
      // partition issues, so idle cycles can be attributed per warp and per
      // PC (the software analogue of Nsight's warp-state sampling).
      if (prof != nullptr) {
        for (int wi = 0; wi < num_warps; ++wi) {
          if (partition_of(wi) != p) continue;
          warp_state[static_cast<std::size_t>(wi)] =
              warp_state_of(*warps[static_cast<std::size_t>(wi)], p, wake);
        }
      }

      // Issue the first eligible warp in rotating order.
      int issued_warp = -1;
      std::int32_t issued_pc = -1;
      const sass::Instruction* issued_inst = nullptr;
      for (int probe = 0; probe < num_warps; ++probe) {
        const int wi = (rr[static_cast<std::size_t>(p)] + probe) % num_warps;
        if (partition_of(wi) != p) continue;
        TWarp& w = *warps[static_cast<std::size_t>(wi)];
        if (warp_state_of(w, p, wake) != kWarpEligible) continue;

        // --- issue ----------------------------------------------------------
        const auto& inst = prog->code[static_cast<std::size_t>(w.pc)];
        const auto pclass = sass::pipe_class(inst.op);
        issued_pc = w.pc;  // captured before the control-flow switch advances it
        issued_inst = &inst;
        TCta& cta = cta_state[static_cast<std::size_t>(w.cta_index)];
        ExecContext ctx;
        ctx.regs = &w.regs;
        ctx.smem = cta.smem.get();
        ctx.gmem = &gmem;
        ctx.launch = launch;
        ctx.cta_x = cta.coord.x;
        ctx.cta_y = cta.coord.y;
        ctx.cta_z = cta.coord.z;
        ctx.warp_in_cta = w.warp_in_cta;
        ctx.sm_id = cfg.sm_id;
        ctx.clock = now;
        sink.clear();
        StepResult r;
        if (cfg.skip_mma_math && sass::is_mma(inst.op)) {
          // Timing-only fast path: the tensor pipe is occupied and the
          // destination writeback is scheduled below, but the math (and the
          // cost of emulating it) is skipped.
          sink.gpr(inst.dst, 0, 0);
        } else {
          r = exec_step(ctx, inst, sink);
        }
        ++counters.instructions;
        ++counters.pipe_issue[static_cast<std::size_t>(pclass)];

        // Occupy the pipe.
        const int occ = pipe_occupancy(inst);
        switch (pclass) {
          case sass::PipeClass::kTensor:
            tensor_free[static_cast<std::size_t>(p)] = now + static_cast<std::uint64_t>(occ);
            counters.tensor_busy += static_cast<std::uint64_t>(occ);
            break;
          case sass::PipeClass::kFma:
            fma_free[static_cast<std::size_t>(p)] = now + static_cast<std::uint64_t>(occ);
            counters.fma_busy += static_cast<std::uint64_t>(occ);
            break;
          case sass::PipeClass::kAlu:
          case sass::PipeClass::kSpecial:
            alu_free[static_cast<std::size_t>(p)] = now + static_cast<std::uint64_t>(occ);
            counters.alu_busy += static_cast<std::uint64_t>(occ);
            break;
          default:
            break;
        }

        // Retire results.
        if (r.mem.valid) {
          MioOp op;
          op.warp = wi;
          op.access = r.mem;
          op.load_writes = sink.gprs;  // loads buffered until arrival
          op.write_barrier = inst.ctrl.write_barrier;
          op.read_barrier = inst.ctrl.read_barrier;
          if (op.write_barrier != sass::kNoBarrier) ++w.scoreboard[op.write_barrier];
          if (op.read_barrier != sass::kNoBarrier) ++w.scoreboard[op.read_barrier];
          mio_queue.push_back(std::move(op));
          count_mem_issue(r.mem);
        } else {
          for (const auto& cw : sink.gprs) {
            const int off = cw.reg.idx - inst.dst.idx;
            w.regs.write_at(cw.reg, cw.lane, cw.value,
                            now + static_cast<std::uint64_t>(fixed_latency(inst, off)));
          }
          for (const auto& cp : sink.preds) {
            w.pending_preds.push_back({now + sass::kPredicateLatency, cp});
          }
        }

        // Control flow + stall.
        const auto stall = static_cast<std::uint64_t>(std::max<int>(inst.ctrl.stall, 1));
        w.ready_cycle = now + stall;
        switch (r.kind) {
          case StepKind::kNext:
            ++w.pc;
            break;
          case StepKind::kBranch:
            w.pc = r.branch_target;
            w.ready_cycle = now + std::max<std::uint64_t>(stall, sass::kBranchRedirectCycles);
            break;
          case StepKind::kBarrier:
            ++w.pc;
            w.at_barrier = true;
            ++cta.arrived;
            break;
          case StepKind::kExit:
            w.exited = true;
            --cta.alive_warps;
            --alive;
            if (cta.alive_warps == 0 && source != nullptr) {
              free_slots.push_back(w.cta_index);
            }
            break;
        }
        issued_warp = wi;
        break;
      }
      if (issued_warp >= 0) {
        rr[static_cast<std::size_t>(p)] = (issued_warp + 1) % num_warps;
        changed = true;
      }

      // Count this scheduler cycle. Profiling post-pass: charge each
      // blocked warp one stall cycle at its current PC and report the issue.
      if (issued_warp >= 0) {
        ++counters.sched[static_cast<std::size_t>(p)].issue_cycles;
        if (prof != nullptr) {
          charge_stalls(p, issued_warp, 1);
          prof->on_issue(p, issued_warp, issued_pc, *issued_inst, now,
                         pipe_occupancy(*issued_inst), issued_inst->ctrl.stall);
        }
      } else {
        sched_idle(p, 1);
      }
    }

    // --- CTA barrier release -------------------------------------------------
    for (std::size_t ci = 0; ci < cta_state.size(); ++ci) {
      TCta& cta = cta_state[ci];
      if (cta.arrived > 0 && cta.arrived == cta.alive_warps) {
        for (auto& wptr : warps) {
          if (wptr->cta_index == static_cast<int>(ci) && wptr->at_barrier) {
            wptr->at_barrier = false;
          }
        }
        cta.arrived = 0;
        changed = true;
      }
      TC_CHECK(!(cta.alive_warps == 0 && cta.arrived > 0),
               "deadlock: warps wait at BAR.SYNC in an exited CTA");
    }

    // --- dynamic CTA refill --------------------------------------------------
    if (!free_slots.empty()) {
      auto keep = free_slots.begin();
      for (auto it = free_slots.begin(); it != free_slots.end(); ++it) {
        if (!slot_quiescent(*it)) {
          *keep++ = *it;  // in-flight hazards still name this slot; retry
          continue;
        }
        if (auto next = source->next()) {
          respawn_slot(*it, *next);
        }
        // Source drained: the slot stays empty for the rest of the run.
      }
      changed |= keep != free_slots.end();
      free_slots.erase(keep, free_slots.end());
    }

    // --- next event ----------------------------------------------------------
    // A cycle that changed nothing leaves every warp blocked for the same
    // reason until the earliest of: a warp's own wake-up, a scoreboard
    // release, an MSHR retirement, or the MIO unit freeing up for a queued
    // op (one that waits on an MSHR instead waits for a retirement). Until
    // then each cycle repeats this one, which skip_to replays.
    if (changed) {
      idle_until = now + 1;
    } else {
      for (const auto& r : releases) wake = std::min(wake, r.due);
      for (const auto due : mshr_release) wake = std::min(wake, due);
      if (!mio_queue.empty() && mio_free > now) wake = std::min(wake, mio_free);
      idle_until = wake;
    }
    ++now;
  }

  /// Advances the clock to `cycle` (clamped to max_cycles, so a deadlocked
  /// run still fails in step_cycle) through cycles that repeat the last,
  /// idle one — cycle <= idle_until — replaying what step_cycle would have
  /// done in them, bit for bit: the writeback commits of every warp
  /// warp_state_of gets to settle, and the profiler's stall attribution,
  /// charged in bulk. No bandwidth budget refills here: a bucket accrues its
  /// credit from the cycle of its next withdrawal.
  void skip_to(std::uint64_t cycle) {
    cycle = std::min(cycle, cfg.max_cycles);
    if (cycle <= now) return;
    TC_CHECK(cycle <= idle_until, "skip_to past idle_until(): those cycles are not idle");
    for (int p = 0; p < partitions; ++p) sched_idle(p, cycle - now);
    // warp_state_of settles a warp once per cycle unless it is dead, at a
    // barrier or inside its stall-count window, none of which changes
    // inside the window; settling at each due cycle commits the same writes
    // in the same order as settling every cycle.
    for (auto& wptr : warps) {
      TWarp& w = *wptr;
      if (w.exited || w.at_barrier || w.ready_cycle > now) continue;
      for (std::uint64_t due = next_due(w); due < cycle; due = next_due(w)) settle_warp(w, due);
    }
    now = cycle;
  }

  prof::CounterSet finish() {
    TC_CHECK(running, "finish() without begin()");
    // Flush remaining writebacks — registers AND predicates — so functional
    // state is complete. Predicates used to be left pending here, which made
    // an ISETP issued shortly before EXIT invisible in the final state (the
    // differential fuzzer flags exactly this as a divergence).
    for (auto& w : warps) {
      w->regs.settle_all();
      for (const auto& pp : w->pending_preds) {
        w->regs.write_pred(pp.w.pred, pp.w.lane, pp.w.value);
      }
      w->pending_preds.clear();
      if (cfg.probe != nullptr) {
        const CtaCoord coord = cta_state[static_cast<std::size_t>(w->cta_index)].coord;
        cfg.probe->capture(w->regs, coord.x, coord.y, coord.z, w->warp_in_cta);
      }
    }

    counters.cycles = now;
    running = false;
    return counters;
  }
};

TimedSm::TimedSm(TimedConfig cfg, mem::GlobalMemory& gmem)
    : impl_(std::make_unique<Impl>(cfg, gmem)) {}

TimedSm::~TimedSm() = default;

prof::CounterSet TimedSm::run(const Launch& launch, std::span<const CtaCoord> ctas) {
  impl_->begin(launch, ctas, nullptr);
  while (!impl_->is_done()) {
    impl_->skip_to(impl_->idle_until);
    impl_->step_cycle();
  }
  return impl_->finish();
}

void TimedSm::begin(const Launch& launch, CtaSource& source, int resident_ctas) {
  TC_CHECK(resident_ctas > 0, "need at least one resident CTA slot");
  std::vector<CtaCoord> initial;
  initial.reserve(static_cast<std::size_t>(resident_ctas));
  for (int i = 0; i < resident_ctas; ++i) {
    auto c = source.next();
    if (!c) break;
    initial.push_back(*c);
  }
  TC_CHECK(!initial.empty(), "CTA source drained before this SM got any work");
  impl_->begin(launch, initial, &source);
}

bool TimedSm::step() {
  if (!impl_->is_done()) impl_->step_cycle();
  return !impl_->is_done();
}

bool TimedSm::done() const { return impl_->is_done(); }

std::uint64_t TimedSm::now() const { return impl_->now; }

std::uint64_t TimedSm::idle_until() const { return impl_->idle_until; }

void TimedSm::skip_to(std::uint64_t cycle) { impl_->skip_to(cycle); }

prof::CounterSet TimedSm::finish() { return impl_->finish(); }

}  // namespace tc::sim
