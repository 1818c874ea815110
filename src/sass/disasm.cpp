// Textual rendering of instructions and programs (turingas-style syntax).
#include <sstream>

#include "sass/instruction.hpp"
#include "sass/program.hpp"

namespace tc::sass {

namespace {

std::string reg_name(Reg r) { return r.is_rz() ? "RZ" : "R" + std::to_string(r.idx); }
std::string pred_name(Pred p) { return p.is_pt() ? "PT" : "P" + std::to_string(p.idx); }

std::string mem_ref(const Instruction& i) {
  std::ostringstream os;
  os << "[" << reg_name(i.srca);
  if (i.imm != 0) {
    os << (i.imm > 0 ? "+" : "-") << "0x" << std::hex << std::abs(i.imm);
  }
  os << "]";
  return os.str();
}

std::string ctrl_str(const ControlInfo& c) {
  std::ostringstream os;
  os << "{S:" << static_cast<int>(c.stall);
  if (c.yield) os << " Y";
  if (c.write_barrier != kNoBarrier) os << " WB" << static_cast<int>(c.write_barrier);
  if (c.read_barrier != kNoBarrier) os << " RB" << static_cast<int>(c.read_barrier);
  if (c.wait_mask != 0) {
    os << " W:";
    for (int b = 0; b < kNumBarriers; ++b) {
      if (c.wait_mask & (1u << b)) os << b;
    }
  }
  if (c.reuse != 0) os << " RU:" << static_cast<int>(c.reuse);
  os << "}";
  return os.str();
}

}  // namespace

std::string Instruction::to_string() const {
  std::ostringstream os;
  if (!guard.is_pt() || guard_negated) {
    os << "@" << (guard_negated ? "!" : "") << pred_name(guard) << " ";
  }

  switch (op) {
    case Opcode::kLdg:
      os << "LDG." << static_cast<int>(width) << (cache == CacheOp::kCg ? ".CG " : " ")
         << reg_name(dst) << ", " << mem_ref(*this);
      break;
    case Opcode::kStg:
      os << "STG." << static_cast<int>(width) << " " << mem_ref(*this) << ", " << reg_name(srcb);
      break;
    case Opcode::kLds:
      os << "LDS." << static_cast<int>(width) << " " << reg_name(dst) << ", " << mem_ref(*this);
      break;
    case Opcode::kSts:
      os << "STS." << static_cast<int>(width) << " " << mem_ref(*this) << ", " << reg_name(srcb);
      break;
    case Opcode::kMov:
      os << "MOV " << reg_name(dst) << ", ";
      if (has_imm) {
        os << "0x" << std::hex << imm;
      } else {
        os << reg_name(srca);
      }
      break;
    case Opcode::kMovParam:
      os << "MOV " << reg_name(dst) << ", c[0x0][" << param_index << "]";
      break;
    case Opcode::kS2r:
      os << "S2R " << reg_name(dst) << ", " << special_name(sreg);
      break;
    case Opcode::kCs2rClock:
      os << "CS2R " << reg_name(dst) << ", SR_CLOCKLO";
      break;
    case Opcode::kIsetp:
      os << "ISETP." << cmp_name(cmp) << " " << pred_name(pdst) << ", " << reg_name(srca) << ", ";
      if (has_imm) {
        os << imm;
      } else {
        os << reg_name(srcb);
      }
      break;
    case Opcode::kSel:
      os << "SEL " << reg_name(dst) << ", " << pred_name(pdst) << ", " << reg_name(srca) << ", "
         << reg_name(srcb);
      break;
    case Opcode::kBra:
      os << "BRA " << target;
      break;
    case Opcode::kBar:
      os << "BAR.SYNC 0x0";
      break;
    case Opcode::kExit:
      os << "EXIT";
      break;
    case Opcode::kNop:
      os << "NOP";
      break;
    default:
      os << opcode_name(op) << " ";
      if (is_mma(op)) {
        os << reg_name(dst) << ", " << reg_name(srca) << ", " << reg_name(srcb) << ", "
           << reg_name(srcc);
      } else {
        os << reg_name(dst) << ", " << reg_name(srca);
        if (has_imm) {
          os << ", 0x" << std::hex << imm;
        } else if (!srcb.is_rz() || op == Opcode::kIadd3 || op == Opcode::kImad) {
          os << ", " << reg_name(srcb);
        }
        if (op == Opcode::kIadd3 || op == Opcode::kImad || op == Opcode::kFfma ||
            op == Opcode::kHfma2) {
          os << ", " << reg_name(srcc);
        }
      }
      break;
  }
  os << " ; " << ctrl_str(ctrl);
  return os.str();
}

std::string Program::disassemble() const {
  std::ostringstream os;
  os << ".kernel " << name << "\n.threads " << cta_threads << "\n.smem " << smem_bytes
     << "\n// regs=" << num_regs << "\n";
  for (std::size_t pc = 0; pc < code.size(); ++pc) {
    os << "/*" << pc << "*/\t" << code[pc].to_string() << "\n";
  }
  return os.str();
}

}  // namespace tc::sass
