#include "prof/profiler.hpp"

#include <algorithm>
#include <ostream>

#include "common/table.hpp"
#include "prof/trace.hpp"
#include "sass/isa.hpp"

namespace tc::prof {

// The pipe indices in counters.hpp are documented to mirror sass::PipeClass.
static_assert(kPipeTensor == static_cast<int>(sass::PipeClass::kTensor));
static_assert(kPipeFma == static_cast<int>(sass::PipeClass::kFma));
static_assert(kPipeAlu == static_cast<int>(sass::PipeClass::kAlu));
static_assert(kPipeMio == static_cast<int>(sass::PipeClass::kMio));
static_assert(kPipeControl == static_cast<int>(sass::PipeClass::kControl));
static_assert(kPipeSpecial == static_cast<int>(sass::PipeClass::kSpecial));

const char* pipe_name(int pipe) {
  switch (pipe) {
    case kPipeTensor: return "tensor";
    case kPipeFma: return "fma";
    case kPipeAlu: return "alu";
    case kPipeMio: return "mio";
    case kPipeControl: return "control";
    case kPipeSpecial: return "special";
    default: return "?";
  }
}

const char* stall_reason_name(StallReason r) {
  switch (r) {
    case StallReason::kScoreboard: return "scoreboard";
    case StallReason::kStallCount: return "stall_count";
    case StallReason::kPipeBusy: return "pipe_busy";
    case StallReason::kMioQueueFull: return "mio_queue_full";
    case StallReason::kBarrier: return "barrier";
    case StallReason::kNotSelected: return "not_selected";
    case StallReason::kNoInstruction: return "no_instruction";
  }
  return "?";
}

namespace {

std::string mem_op_name(bool is_global, bool is_store, int width_bits) {
  std::string name = is_global ? (is_store ? "STG" : "LDG") : (is_store ? "STS" : "LDS");
  return name + "." + std::to_string(width_bits);
}

}  // namespace

int Profiler::warp_track(int warp) const { return partitions_ * 3 + 1 + warp; }

void Profiler::begin_run(const sass::Program& prog, int partitions, int num_warps) {
  pc_counters_.assign(prog.code.size(), PcCounters{});
  warp_counters_.assign(static_cast<std::size_t>(num_warps), WarpCounters{});
  idle_by_reason_.assign(static_cast<std::size_t>(partitions), {});
  inst_text_.clear();
  inst_text_.reserve(prog.code.size());
  for (const auto& inst : prog.code) inst_text_.push_back(inst.to_string());
  program_name_ = prog.name;
  partitions_ = partitions;

  if (trace_ != nullptr) {
    for (int p = 0; p < partitions; ++p) {
      trace_->track(p * 3 + 0, "p" + std::to_string(p) + ".tensor");
      trace_->track(p * 3 + 1, "p" + std::to_string(p) + ".fma");
      trace_->track(p * 3 + 2, "p" + std::to_string(p) + ".alu");
    }
    trace_->track(partitions * 3, "mio");
    for (int w = 0; w < num_warps; ++w) {
      trace_->track(warp_track(w), "warp " + std::to_string(w));
    }
  }
}

void Profiler::on_issue(int partition, int warp, int pc, const sass::Instruction& inst,
                        std::uint64_t now, int occupancy, int stall) {
  ++pc_counters_[static_cast<std::size_t>(pc)].issued;
  ++warp_counters_[static_cast<std::size_t>(warp)].issued;

  if (trace_ != nullptr) {
    const std::string name = sass::opcode_name(inst.op);
    const int pipe = static_cast<int>(sass::pipe_class(inst.op));
    if (pipe == kPipeTensor || pipe == kPipeFma || pipe == kPipeAlu) {
      trace_->event(partition * 3 + (pipe - kPipeTensor), name, now,
                    static_cast<std::uint64_t>(occupancy));
    }
    trace_->event(warp_track(warp), name, now, static_cast<std::uint64_t>(std::max(stall, 1)));
  }
}

void Profiler::on_warp_stall(int warp, int pc, StallReason reason, std::uint64_t cycles) {
  pc_counters_[static_cast<std::size_t>(pc)].stall_cycles[static_cast<int>(reason)] += cycles;
  warp_counters_[static_cast<std::size_t>(warp)].stall_cycles[static_cast<int>(reason)] += cycles;
}

void Profiler::on_sched_idle(int partition, StallReason dominant, std::uint64_t cycles) {
  idle_by_reason_[static_cast<std::size_t>(partition)][static_cast<int>(dominant)] += cycles;
}

void Profiler::on_mio_service(bool is_global, bool is_store, int width_bits, std::uint64_t now,
                              std::uint64_t busy_cycles) {
  if (trace_ != nullptr) {
    trace_->event(partitions_ * 3, mem_op_name(is_global, is_store, width_bits), now,
                  std::max<std::uint64_t>(busy_cycles, 1));
  }
}

std::vector<HotPc> Profiler::hot_pcs(int n) const {
  std::vector<HotPc> all;
  all.reserve(pc_counters_.size());
  for (std::size_t pc = 0; pc < pc_counters_.size(); ++pc) {
    const auto& c = pc_counters_[pc];
    std::uint64_t total = 0;
    StallReason dominant = StallReason::kNoInstruction;
    std::uint64_t dominant_cycles = 0;
    for (int r = 0; r < kNumStallReasons; ++r) {
      total += c.stall_cycles[r];
      if (c.stall_cycles[r] > dominant_cycles) {
        dominant_cycles = c.stall_cycles[r];
        dominant = static_cast<StallReason>(r);
      }
    }
    if (total == 0 && c.issued == 0) continue;
    all.push_back({static_cast<int>(pc), inst_text_[pc], c.issued, total, dominant,
                   dominant_cycles});
  }
  std::stable_sort(all.begin(), all.end(),
                   [](const HotPc& a, const HotPc& b) { return a.stall_cycles > b.stall_cycles; });
  if (static_cast<int>(all.size()) > n) all.resize(static_cast<std::size_t>(n));
  return all;
}

void Profiler::print_report(std::ostream& os, const CounterSet& c, int top_n) const {
  const auto pct = [](double v) { return fmt_fixed(v * 100.0, 1) + "%"; };

  os << "== profile: " << program_name_ << " ==\n";
  os << "cycles " << c.cycles << ", instructions " << c.instructions << ", IPC "
     << fmt_fixed(c.cycles ? static_cast<double>(c.instructions) / c.cycles : 0.0, 2) << "\n\n";

  {
    TablePrinter t({"pipe", "issued", "busy_cycles", "utilization"});
    for (const int pipe : {kPipeTensor, kPipeFma, kPipeAlu, kPipeMio}) {
      t.add_row({pipe_name(pipe), std::to_string(c.pipe_issue[pipe]),
                 std::to_string(c.busy_cycles(pipe)), pct(c.utilization(pipe, partitions_))});
    }
    t.add_row({"l2_port", "-", fmt_fixed(c.l2_port_busy_cycles, 0),
               pct(c.l2_port_utilization())});
    t.print(os);
    os << "bw-debt stall cycles " << c.mio_bw_stall << ", MSHR high-water "
       << c.mshr_highwater << ", MIO queue high-water " << c.mio_queue_highwater << "\n\n";
  }

  {
    TablePrinter t({"mem_op", "count", "lane_bytes"});
    t.add_row({"LDG", std::to_string(c.ldg_count), std::to_string(c.ldg_bytes)});
    t.add_row({"STG", std::to_string(c.stg_count), std::to_string(c.stg_bytes)});
    t.add_row({"LDS", std::to_string(c.lds_count), std::to_string(c.lds_bytes)});
    t.add_row({"STS", std::to_string(c.sts_count), std::to_string(c.sts_bytes)});
    t.print(os);
    os << "smem bank replays " << c.smem_beats - c.smem_phases << " (conflict factor "
       << fmt_fixed(c.smem_conflict_factor(), 2) << "); sectors L1 " << c.l1_sectors
       << " / L2 " << c.l2_sectors << " / DRAM " << c.dram_sectors << "\n\n";
  }

  {
    TablePrinter t({"scheduler", "issue_cycles", "idle_cycles", "top_idle_reason"});
    for (std::size_t p = 0; p < c.sched.size(); ++p) {
      const auto& s = c.sched[p];
      const auto& idle = idle_by_reason_[p];
      int top = 0;
      for (int r = 1; r < kNumStallReasons; ++r) {
        if (idle[r] > idle[top]) top = r;
      }
      t.add_row({"p" + std::to_string(p), std::to_string(s.issue_cycles),
                 std::to_string(s.idle_cycles),
                 s.idle_cycles == 0
                     ? "-"
                     : std::string(stall_reason_name(static_cast<StallReason>(top))) + " (" +
                           pct(static_cast<double>(idle[top]) /
                               static_cast<double>(s.idle_cycles)) +
                           ")"});
    }
    t.print(os);
    os << "\n";
  }

  {
    os << "top " << top_n << " hot instructions by blocked warp-cycles:\n";
    TablePrinter t({"pc", "instruction", "issued", "stall_cycles", "top_reason"});
    for (const auto& h : hot_pcs(top_n)) {
      t.add_row({std::to_string(h.pc), h.text, std::to_string(h.issued),
                 std::to_string(h.stall_cycles),
                 h.stall_cycles == 0
                     ? "-"
                     : std::string(stall_reason_name(h.dominant)) + " (" +
                           pct(static_cast<double>(h.dominant_cycles) /
                               static_cast<double>(h.stall_cycles)) +
                           ")"});
    }
    t.print(os);
  }
}

}  // namespace tc::prof
