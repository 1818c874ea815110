#include "sass/footprint.hpp"

#include <algorithm>

namespace tc::sass {

std::string range_name(const RegRange& r) {
  std::string name = "R" + std::to_string(r.lo);
  if (r.count > 1) name += "..R" + std::to_string(r.lo + r.count - 1);
  return name;
}

Footprint footprint(const Instruction& inst) {
  Footprint f;
  if (!inst.guard.is_pt()) f.pred_reads[0] = inst.guard.idx;
  if (inst.op == Opcode::kSel && !inst.pdst.is_pt()) f.pred_reads[1] = inst.pdst.idx;
  if (inst.op == Opcode::kIsetp && !inst.pdst.is_pt()) f.pred_write = inst.pdst.idx;
  const PipeClass pipe = pipe_class(inst.op);
  if (pipe == PipeClass::kControl) return f;  // BRA, BAR, EXIT and NOP touch no registers
  std::size_t nreads = 0;
  const auto read = [&](Reg r, int count) {
    if (!r.is_rz()) f.reads[nreads++] = {r.idx, count};
  };
  const bool is_store = inst.op == Opcode::kStg || inst.op == Opcode::kSts;
  if (pipe == PipeClass::kMio) {
    const int width = width_regs(inst.width);
    if (!is_store && !inst.dst.is_rz()) f.load_dst = {inst.dst.idx, width};
    read(inst.srca, 1);
    if (is_store) read(inst.srcb, width);
    f.mio_srcs = {f.reads[0], f.reads[1]};
  } else if (is_mma(inst.op)) {
    const MmaRegCounts rc = mma_reg_counts(inst.op);
    if (!inst.dst.is_rz()) f.fixed_write = {inst.dst.idx, rc.d};
    read(inst.srca, rc.a);
    read(inst.srcb, rc.b);
    read(inst.srcc, rc.c);
  } else {
    if (!inst.dst.is_rz()) f.fixed_write = {inst.dst.idx, 1};
    read(inst.srca, 1);
    if (!inst.has_imm) read(inst.srcb, 1);
    read(inst.srcc, 1);
  }
  return f;
}

std::vector<Footprint> footprints(std::span<const Instruction> code) {
  std::vector<Footprint> out;
  out.reserve(code.size());
  for (const Instruction& inst : code) out.push_back(footprint(inst));
  return out;
}

void count_resources(Program& prog) {
  int max_reg = -1;
  std::uint32_t max_param = 0;
  for (const Instruction& inst : prog.code) {
    const Footprint f = footprint(inst);
    for (const RegRange& r : {f.fixed_write, f.load_dst, f.reads[0], f.reads[1], f.reads[2]}) {
      if (r.count > 0) max_reg = std::max(max_reg, r.lo + r.count - 1);
    }
    if (inst.op == Opcode::kMovParam) {
      max_param = std::max(max_param, static_cast<std::uint32_t>(inst.param_index) + 1);
    }
  }
  prog.num_regs = max_reg + 1;
  prog.num_param_words = max_param;
}

}  // namespace tc::sass
