#include "sass/asm_parser.hpp"

#include <cctype>
#include <charconv>
#include <optional>
#include <sstream>
#include <unordered_map>
#include <vector>

#include "common/error.hpp"
#include "sass/footprint.hpp"
#include "sass/validator.hpp"

namespace tc::sass {

namespace {

/// Internal parse failure carrying the 1-based source line; converted to a
/// throwing tc::Error by assemble() or a structured Diag by try_assemble().
struct AsmError {
  int line;
  std::string msg;
};

[[noreturn]] void fail(int line, const std::string& msg) { throw AsmError{line, msg}; }

/// Splits the instruction body into comma-separated operand strings.
std::vector<std::string> split_operands(const std::string& s) {
  std::vector<std::string> out;
  std::string cur;
  int bracket = 0;
  for (const char c : s) {
    if (c == '[') ++bracket;
    if (c == ']') --bracket;
    if (c == ',' && bracket == 0) {
      out.push_back(cur);
      cur.clear();
    } else {
      cur += c;
    }
  }
  if (!cur.empty()) out.push_back(cur);
  for (auto& op : out) {
    while (!op.empty() && std::isspace(static_cast<unsigned char>(op.front()))) op.erase(0, 1);
    while (!op.empty() && std::isspace(static_cast<unsigned char>(op.back()))) op.pop_back();
  }
  while (!out.empty() && out.back().empty()) out.pop_back();
  return out;
}

std::optional<Reg> try_reg(const std::string& tok) {
  if (tok == "RZ") return RZ;
  if (tok.size() >= 2 && tok[0] == 'R' && std::isdigit(static_cast<unsigned char>(tok[1]))) {
    int idx = 0;
    const auto [p, ec] = std::from_chars(tok.data() + 1, tok.data() + tok.size(), idx);
    if (ec == std::errc{} && p == tok.data() + tok.size() && idx >= 0 && idx < 255) {
      return Reg{static_cast<std::uint8_t>(idx)};
    }
  }
  return std::nullopt;
}

Reg parse_reg(const std::string& tok, int line) {
  const auto r = try_reg(tok);
  if (!r) fail(line, "expected register, got '" + tok + "'");
  return *r;
}

Pred parse_pred(const std::string& tok, int line) {
  if (tok == "PT") return PT;
  if (tok.size() == 2 && tok[0] == 'P' && tok[1] >= '0' && tok[1] <= '6') {
    return Pred{static_cast<std::uint8_t>(tok[1] - '0')};
  }
  fail(line, "expected predicate, got '" + tok + "'");
}

std::optional<std::int32_t> try_imm(const std::string& tok) {
  if (tok.empty()) return std::nullopt;
  std::size_t pos = 0;
  bool negative = false;
  if (tok[pos] == '-') {
    negative = true;
    ++pos;
  }
  std::uint32_t value = 0;
  if (tok.size() > pos + 1 && tok[pos] == '0' && (tok[pos + 1] == 'x' || tok[pos + 1] == 'X')) {
    const auto [p, ec] =
        std::from_chars(tok.data() + pos + 2, tok.data() + tok.size(), value, 16);
    if (ec != std::errc{} || p != tok.data() + tok.size()) return std::nullopt;
  } else if (std::isdigit(static_cast<unsigned char>(tok[pos]))) {
    const auto [p, ec] = std::from_chars(tok.data() + pos, tok.data() + tok.size(), value, 10);
    if (ec != std::errc{} || p != tok.data() + tok.size()) return std::nullopt;
  } else {
    return std::nullopt;
  }
  const auto signed_value = static_cast<std::int32_t>(value);
  return negative ? -signed_value : signed_value;
}

/// Memory reference "[Rn]", "[Rn+0x..]" or "[Rn-0x..]".
void parse_memref(const std::string& tok, Instruction& inst, int line) {
  if (tok.size() < 4 || tok.front() != '[' || tok.back() != ']') {
    fail(line, "expected memory reference, got '" + tok + "'");
  }
  const std::string inner = tok.substr(1, tok.size() - 2);
  std::size_t split = inner.find_first_of("+-", 1);
  if (split == std::string::npos) {
    inst.srca = parse_reg(inner, line);
    inst.imm = 0;
    return;
  }
  inst.srca = parse_reg(inner.substr(0, split), line);
  const auto off = try_imm(inner.substr(split + 1));
  if (!off) fail(line, "bad address offset in '" + tok + "'");
  inst.imm = inner[split] == '-' ? -*off : *off;
}

MemWidth parse_width(const std::string& part, int line) {
  if (part == "32") return MemWidth::k32;
  if (part == "64") return MemWidth::k64;
  if (part == "128") return MemWidth::k128;
  fail(line, "bad memory width ." + part);
}

SpecialReg parse_special(const std::string& tok, int line) {
  if (tok == "SR_LANEID") return SpecialReg::kLaneId;
  if (tok == "SR_TID.X") return SpecialReg::kTidX;
  if (tok == "SR_CTAID.X") return SpecialReg::kCtaIdX;
  if (tok == "SR_CTAID.Y") return SpecialReg::kCtaIdY;
  if (tok == "SR_CTAID.Z") return SpecialReg::kCtaIdZ;
  if (tok == "SR_NCTAID.X") return SpecialReg::kNCtaIdX;
  if (tok == "SR_SMID") return SpecialReg::kSmId;
  fail(line, "unknown special register '" + tok + "'");
}

CmpOp parse_cmp(const std::string& part, int line) {
  if (part == "LT") return CmpOp::kLt;
  if (part == "LE") return CmpOp::kLe;
  if (part == "GT") return CmpOp::kGt;
  if (part == "GE") return CmpOp::kGe;
  if (part == "EQ") return CmpOp::kEq;
  if (part == "NE") return CmpOp::kNe;
  fail(line, "bad ISETP comparison ." + part);
}

/// Parses the "{S:n Y WBk RBk W:digits RU:n}" control block.
ControlInfo parse_ctrl(const std::string& s, int line) {
  ControlInfo ctrl;
  std::istringstream in(s);
  std::string tok;
  while (in >> tok) {
    if (tok == "{" || tok == "}") continue;
    if (!tok.empty() && tok.front() == '{') tok.erase(0, 1);
    if (!tok.empty() && tok.back() == '}') tok.pop_back();
    if (tok.empty()) continue;
    if (tok.rfind("S:", 0) == 0) {
      const auto v = try_imm(tok.substr(2));
      if (!v || *v < 0 || *v > 15) fail(line, "bad stall in control info");
      ctrl.stall = static_cast<std::uint8_t>(*v);
    } else if (tok == "Y") {
      ctrl.yield = true;
    } else if (tok.rfind("WB", 0) == 0) {
      const auto v = try_imm(tok.substr(2));
      if (!v || *v < 0 || *v >= kNumBarriers) fail(line, "bad write barrier");
      ctrl.write_barrier = static_cast<std::uint8_t>(*v);
    } else if (tok.rfind("RB", 0) == 0) {
      const auto v = try_imm(tok.substr(2));
      if (!v || *v < 0 || *v >= kNumBarriers) fail(line, "bad read barrier");
      ctrl.read_barrier = static_cast<std::uint8_t>(*v);
    } else if (tok.rfind("W:", 0) == 0) {
      for (std::size_t i = 2; i < tok.size(); ++i) {
        if (tok[i] < '0' || tok[i] >= '0' + kNumBarriers) fail(line, "bad wait mask");
        ctrl.wait_mask |= static_cast<std::uint8_t>(1u << (tok[i] - '0'));
      }
    } else if (tok.rfind("RU:", 0) == 0) {
      const auto v = try_imm(tok.substr(3));
      if (!v) fail(line, "bad reuse flags");
      ctrl.reuse = static_cast<std::uint8_t>(*v);
    } else {
      fail(line, "unknown control token '" + tok + "'");
    }
  }
  return ctrl;
}

struct ParseState {
  Program prog;
  std::unordered_map<std::string, int> labels;
  std::vector<std::tuple<int, std::string, int>> fixups;  // (inst, label, line)
};

/// Reads "src2" for ALU forms: register or immediate.
void parse_alu_src2(Instruction& inst, const std::string& tok, int line) {
  if (const auto r = try_reg(tok)) {
    inst.srcb = *r;
  } else if (const auto v = try_imm(tok)) {
    inst.imm = *v;
    inst.has_imm = true;
  } else {
    fail(line, "expected register or immediate, got '" + tok + "'");
  }
}

void parse_instruction(ParseState& st, std::string body, const ControlInfo& ctrl, int line) {
  Instruction inst;
  inst.ctrl = ctrl;

  // Optional guard "@P0" / "@!P2".
  if (!body.empty() && body[0] == '@') {
    std::size_t sp = body.find(' ');
    if (sp == std::string::npos) fail(line, "guard without opcode");
    std::string g = body.substr(1, sp - 1);
    if (!g.empty() && g[0] == '!') {
      inst.guard_negated = true;
      g.erase(0, 1);
    }
    inst.guard = parse_pred(g, line);
    body.erase(0, sp + 1);
  }

  std::size_t sp = body.find(' ');
  const std::string opcode = body.substr(0, sp);
  const std::string rest = sp == std::string::npos ? "" : body.substr(sp + 1);
  auto ops = split_operands(rest);

  // Split the opcode into base and dot-suffixes.
  std::vector<std::string> parts;
  {
    std::size_t start = 0;
    while (start <= opcode.size()) {
      const std::size_t dot = opcode.find('.', start);
      parts.push_back(opcode.substr(start, dot - start));
      if (dot == std::string::npos) break;
      start = dot + 1;
    }
  }
  const std::string& base = parts[0];

  auto need = [&](std::size_t n) {
    if (ops.size() != n) {
      fail(line, opcode + " expects " + std::to_string(n) + " operands, got " +
                     std::to_string(ops.size()));
    }
  };

  if (base == "NOP") {
    inst.op = Opcode::kNop;
  } else if (base == "EXIT") {
    inst.op = Opcode::kExit;
  } else if (base == "BAR") {
    inst.op = Opcode::kBar;
  } else if (base == "BRA") {
    inst.op = Opcode::kBra;
    need(1);
    if (const auto v = try_imm(ops[0])) {
      inst.target = *v;
    } else {
      st.fixups.emplace_back(static_cast<int>(st.prog.code.size()), ops[0], line);
    }
  } else if (base == "LDG" || base == "LDS") {
    inst.op = base == "LDG" ? Opcode::kLdg : Opcode::kLds;
    if (parts.size() < 2) fail(line, base + " needs a width suffix");
    inst.width = parse_width(parts[1], line);
    if (parts.size() > 2 && parts[2] == "CG") inst.cache = CacheOp::kCg;
    need(2);
    inst.dst = parse_reg(ops[0], line);
    parse_memref(ops[1], inst, line);
  } else if (base == "STG" || base == "STS") {
    inst.op = base == "STG" ? Opcode::kStg : Opcode::kSts;
    if (parts.size() < 2) fail(line, base + " needs a width suffix");
    inst.width = parse_width(parts[1], line);
    need(2);
    parse_memref(ops[0], inst, line);
    inst.srcb = parse_reg(ops[1], line);
  } else if (base == "HMMA" || base == "IMMA") {
    if (parts.size() < 3) fail(line, "MMA needs shape and type suffixes");
    if (parts[1] == "1688" && parts[2] == "F16") {
      inst.op = Opcode::kHmma1688F16;
    } else if (parts[1] == "1688" && parts[2] == "F32") {
      inst.op = Opcode::kHmma1688F32;
    } else if (parts[1] == "884" && parts[2] == "F16") {
      inst.op = Opcode::kHmma884F16;
    } else if (parts[1] == "8816" && parts[2] == "S8") {
      inst.op = Opcode::kImma8816S8;
    } else {
      fail(line, "unknown MMA variant " + opcode);
    }
    need(4);
    inst.dst = parse_reg(ops[0], line);
    inst.srca = parse_reg(ops[1], line);
    inst.srcb = parse_reg(ops[2], line);
    inst.srcc = parse_reg(ops[3], line);
  } else if (base == "MOV") {
    need(2);
    inst.dst = parse_reg(ops[0], line);
    if (ops[1].rfind("c[0x0][", 0) == 0 && ops[1].back() == ']') {
      inst.op = Opcode::kMovParam;
      const auto v = try_imm(ops[1].substr(7, ops[1].size() - 8));
      if (!v || *v < 0) fail(line, "bad parameter index");
      inst.param_index = static_cast<std::uint16_t>(*v);
    } else if (const auto r = try_reg(ops[1])) {
      inst.op = Opcode::kMov;
      inst.srca = *r;
    } else if (const auto v = try_imm(ops[1])) {
      inst.op = Opcode::kMov;
      inst.imm = *v;
      inst.has_imm = true;
    } else {
      fail(line, "bad MOV source '" + ops[1] + "'");
    }
  } else if (base == "S2R") {
    inst.op = Opcode::kS2r;
    need(2);
    inst.dst = parse_reg(ops[0], line);
    inst.sreg = parse_special(ops[1], line);
  } else if (base == "CS2R") {
    inst.op = Opcode::kCs2rClock;
    need(2);
    inst.dst = parse_reg(ops[0], line);
    if (ops[1] != "SR_CLOCKLO") fail(line, "CS2R reads SR_CLOCKLO");
  } else if (base == "ISETP") {
    inst.op = Opcode::kIsetp;
    if (parts.size() < 2) fail(line, "ISETP needs a comparison suffix");
    inst.cmp = parse_cmp(parts[1], line);
    need(3);
    inst.pdst = parse_pred(ops[0], line);
    inst.srca = parse_reg(ops[1], line);
    parse_alu_src2(inst, ops[2], line);
  } else if (base == "SEL") {
    inst.op = Opcode::kSel;
    need(4);
    inst.dst = parse_reg(ops[0], line);
    inst.pdst = parse_pred(ops[1], line);
    inst.srca = parse_reg(ops[2], line);
    inst.srcb = parse_reg(ops[3], line);
  } else if (base == "F2F") {
    need(2);
    inst.op = (parts.size() > 2 && parts[1] == "F16") ? Opcode::kF2fF32ToF16
                                                      : Opcode::kF2fF16ToF32;
    inst.dst = parse_reg(ops[0], line);
    inst.srca = parse_reg(ops[1], line);
  } else {
    static const std::unordered_map<std::string, Opcode> kAlu = {
        {"IADD3", Opcode::kIadd3},   {"IMAD", Opcode::kImad},  {"LOP3", Opcode::kLop3And},
        {"SHF", Opcode::kShfL},      {"FADD", Opcode::kFadd},  {"FMUL", Opcode::kFmul},
        {"FFMA", Opcode::kFfma},     {"HADD2", Opcode::kHadd2}, {"HMUL2", Opcode::kHmul2},
        {"HFMA2", Opcode::kHfma2},  {"HMAX2", Opcode::kHmax2}, {"HGELU2", Opcode::kHgelu2},
    };
    const auto it = kAlu.find(base);
    if (it == kAlu.end()) fail(line, "unknown opcode '" + opcode + "'");
    inst.op = it->second;
    if (base == "LOP3") {
      if (parts.size() < 2) fail(line, "LOP3 needs .AND/.OR/.XOR");
      if (parts[1] == "AND") {
        inst.op = Opcode::kLop3And;
      } else if (parts[1] == "OR") {
        inst.op = Opcode::kLop3Or;
      } else if (parts[1] == "XOR") {
        inst.op = Opcode::kLop3Xor;
      } else {
        fail(line, "bad LOP3 suffix");
      }
    }
    if (base == "SHF") {
      if (parts.size() < 2) fail(line, "SHF needs .L/.R");
      inst.op = parts[1] == "L" ? Opcode::kShfL : Opcode::kShfR;
    }
    if (ops.size() < 2) fail(line, opcode + " needs at least 2 operands");
    inst.dst = parse_reg(ops[0], line);
    inst.srca = parse_reg(ops[1], line);
    if (ops.size() >= 3) parse_alu_src2(inst, ops[2], line);
    if (ops.size() >= 4) inst.srcc = parse_reg(ops[3], line);
    if (ops.size() > 4) fail(line, "too many operands for " + opcode);
  }

  st.prog.code.push_back(inst);
}

/// Parses and validates; throws AsmError on syntax errors, tc::Error on
/// post-parse ISA validation failures.
Program assemble_impl(const std::string& source) {
  ParseState st;
  st.prog.name = "asm";
  st.prog.cta_threads = 32;

  std::istringstream in(source);
  std::string raw;
  int line_no = 0;
  while (std::getline(in, raw)) {
    ++line_no;
    std::string line = raw;
    // Strip /*..*/ comments (the disassembler's pc annotations) and //.
    for (std::size_t open = line.find("/*"); open != std::string::npos;
         open = line.find("/*")) {
      const std::size_t close = line.find("*/", open);
      if (close == std::string::npos) fail(line_no, "unterminated /* comment");
      line.erase(open, close - open + 2);
    }
    if (const std::size_t slashes = line.find("//"); slashes != std::string::npos) {
      line.erase(slashes);
    }
    // Trim.
    while (!line.empty() && std::isspace(static_cast<unsigned char>(line.front()))) {
      line.erase(0, 1);
    }
    while (!line.empty() && std::isspace(static_cast<unsigned char>(line.back()))) {
      line.pop_back();
    }
    if (line.empty()) continue;

    // Directives: a name and exactly one value.
    if (line[0] == '.') {
      std::istringstream d(line);
      std::string name;
      std::string value;
      std::string extra;
      d >> name >> value;
      if (name != ".kernel" && name != ".threads" && name != ".smem") {
        fail(line_no, "unknown directive " + name);
      }
      if (value.empty() || d >> extra) fail(line_no, name + " takes exactly one value");
      if (name == ".kernel") {
        st.prog.name = value;
        continue;
      }
      const auto v = try_imm(value);
      if (!v || *v < 0) fail(line_no, "bad " + name + " value '" + value + "'");
      std::uint32_t& field = name == ".threads" ? st.prog.cta_threads : st.prog.smem_bytes;
      field = static_cast<std::uint32_t>(*v);
      continue;
    }

    // Labels.
    if (line.back() == ':' && line.find(' ') == std::string::npos) {
      const std::string label = line.substr(0, line.size() - 1);
      if (st.labels.contains(label)) fail(line_no, "duplicate label " + label);
      st.labels[label] = static_cast<int>(st.prog.code.size());
      continue;
    }

    // Body ; control.
    std::string body = line;
    ControlInfo ctrl;
    if (const std::size_t semi = line.find(';'); semi != std::string::npos) {
      body = line.substr(0, semi);
      ctrl = parse_ctrl(line.substr(semi + 1), line_no);
    }
    while (!body.empty() && std::isspace(static_cast<unsigned char>(body.back()))) {
      body.pop_back();
    }
    parse_instruction(st, body, ctrl, line_no);
  }

  for (const auto& [index, label, line] : st.fixups) {
    const auto it = st.labels.find(label);
    if (it == st.labels.end()) fail(line, "undefined label '" + label + "'");
    st.prog.code[static_cast<std::size_t>(index)].target = it->second;
  }

  count_resources(st.prog);
  validate(st.prog);
  return st.prog;
}

}  // namespace

Program assemble(const std::string& source) {
  try {
    return assemble_impl(source);
  } catch (const AsmError& e) {
    throw Error("asm line " + std::to_string(e.line) + ": " + e.msg);
  }
}

std::optional<Program> try_assemble(const std::string& source, Diag* diag) {
  try {
    return assemble_impl(source);
  } catch (const AsmError& e) {
    if (diag != nullptr) {
      *diag = Diag{DiagSeverity::kError, "asm-parse", -1, e.line,
                   "line " + std::to_string(e.line) + ": " + e.msg};
    }
    return std::nullopt;
  } catch (const Error& e) {
    if (diag != nullptr) {
      *diag = Diag{DiagSeverity::kError, "asm-validate", -1, -1, e.what()};
    }
    return std::nullopt;
  }
}

}  // namespace tc::sass
