#include "sass/builder.hpp"

#include "common/error.hpp"
#include "sass/footprint.hpp"
#include "sass/validator.hpp"

namespace tc::sass {

KernelBuilder::KernelBuilder(std::string name, bool unscheduled)
    : name_(std::move(name)), unscheduled_(unscheduled) {}

void KernelBuilder::check_scheduled_mode(const char* what) const {
  TC_CHECK(!unscheduled_, std::string("builder '") + name_ + "' is in unscheduled mode: " + what +
                              " is owned by the scheduler (tc::sched) and must not be set "
                              "manually");
}

int KernelBuilder::emit(Instruction inst) {
  TC_CHECK(!finalized_, "builder already finalized");
  code_.push_back(inst);
  return static_cast<int>(code_.size()) - 1;
}

Instruction& KernelBuilder::last() {
  TC_CHECK(!code_.empty(), "no instruction emitted yet");
  return code_.back();
}

Instruction& KernelBuilder::push(Opcode op) {
  Instruction inst;
  inst.op = op;
  code_.push_back(inst);
  return code_.back();
}

KernelBuilder& KernelBuilder::stall(int cycles) {
  check_scheduled_mode("the stall count");
  TC_CHECK(cycles >= 0 && cycles <= 15, "stall count must be 0..15");
  last().ctrl.stall = static_cast<std::uint8_t>(cycles);
  return *this;
}
KernelBuilder& KernelBuilder::yield() {
  last().ctrl.yield = true;
  return *this;
}
KernelBuilder& KernelBuilder::write_bar(int idx) {
  check_scheduled_mode("a write barrier");
  TC_CHECK(idx >= 0 && idx < kNumBarriers, "write barrier must be 0..5");
  last().ctrl.write_barrier = static_cast<std::uint8_t>(idx);
  return *this;
}
KernelBuilder& KernelBuilder::read_bar(int idx) {
  check_scheduled_mode("a read barrier");
  TC_CHECK(idx >= 0 && idx < kNumBarriers, "read barrier must be 0..5");
  last().ctrl.read_barrier = static_cast<std::uint8_t>(idx);
  return *this;
}
KernelBuilder& KernelBuilder::wait(std::uint8_t mask) {
  check_scheduled_mode("a wait mask");
  TC_CHECK(mask < (1u << kNumBarriers), "wait mask has 6 bits");
  last().ctrl.wait_mask |= mask;
  return *this;
}
KernelBuilder& KernelBuilder::wait_on(int idx) {
  check_scheduled_mode("a wait mask");
  TC_CHECK(idx >= 0 && idx < kNumBarriers, "barrier index must be 0..5");
  last().ctrl.wait_mask |= static_cast<std::uint8_t>(1u << idx);
  return *this;
}
KernelBuilder& KernelBuilder::reuse(std::uint8_t flags) {
  check_scheduled_mode("reuse flags");
  last().ctrl.reuse = flags;
  return *this;
}
KernelBuilder& KernelBuilder::pred(Pred p, bool neg) {
  last().guard = p;
  last().guard_negated = neg;
  return *this;
}

KernelBuilder& KernelBuilder::nop() {
  push(Opcode::kNop);
  return *this;
}
KernelBuilder& KernelBuilder::mov(Reg d, Reg s) {
  auto& i = push(Opcode::kMov);
  i.dst = d;
  i.srca = s;
  return *this;
}
KernelBuilder& KernelBuilder::mov_imm(Reg d, std::int32_t imm) {
  auto& i = push(Opcode::kMov);
  i.dst = d;
  i.imm = imm;
  i.has_imm = true;
  return *this;
}
KernelBuilder& KernelBuilder::mov_param(Reg d, int param_word) {
  TC_CHECK(param_word >= 0 && param_word < 64, "param word out of range");
  auto& i = push(Opcode::kMovParam);
  i.dst = d;
  i.param_index = static_cast<std::uint16_t>(param_word);
  return *this;
}
KernelBuilder& KernelBuilder::s2r(Reg d, SpecialReg sr) {
  auto& i = push(Opcode::kS2r);
  i.dst = d;
  i.sreg = sr;
  return *this;
}
KernelBuilder& KernelBuilder::cs2r_clock(Reg d) {
  auto& i = push(Opcode::kCs2rClock);
  i.dst = d;
  return *this;
}
KernelBuilder& KernelBuilder::iadd3(Reg d, Reg a, Reg b, Reg c) {
  auto& i = push(Opcode::kIadd3);
  i.dst = d;
  i.srca = a;
  i.srcb = b;
  i.srcc = c;
  return *this;
}
KernelBuilder& KernelBuilder::iadd_imm(Reg d, Reg a, std::int32_t imm) {
  auto& i = push(Opcode::kIadd3);
  i.dst = d;
  i.srca = a;
  i.imm = imm;
  i.has_imm = true;
  return *this;
}
KernelBuilder& KernelBuilder::imad(Reg d, Reg a, Reg b, Reg c) {
  auto& i = push(Opcode::kImad);
  i.dst = d;
  i.srca = a;
  i.srcb = b;
  i.srcc = c;
  return *this;
}
KernelBuilder& KernelBuilder::imad_imm(Reg d, Reg a, std::int32_t imm, Reg c) {
  auto& i = push(Opcode::kImad);
  i.dst = d;
  i.srca = a;
  i.imm = imm;
  i.has_imm = true;
  i.srcc = c;
  return *this;
}
KernelBuilder& KernelBuilder::land(Reg d, Reg a, Reg b) {
  auto& i = push(Opcode::kLop3And);
  i.dst = d;
  i.srca = a;
  i.srcb = b;
  return *this;
}
KernelBuilder& KernelBuilder::land_imm(Reg d, Reg a, std::int32_t imm) {
  auto& i = push(Opcode::kLop3And);
  i.dst = d;
  i.srca = a;
  i.imm = imm;
  i.has_imm = true;
  return *this;
}
KernelBuilder& KernelBuilder::lor(Reg d, Reg a, Reg b) {
  auto& i = push(Opcode::kLop3Or);
  i.dst = d;
  i.srca = a;
  i.srcb = b;
  return *this;
}
KernelBuilder& KernelBuilder::lxor(Reg d, Reg a, Reg b) {
  auto& i = push(Opcode::kLop3Xor);
  i.dst = d;
  i.srca = a;
  i.srcb = b;
  return *this;
}
KernelBuilder& KernelBuilder::shl(Reg d, Reg a, int amount) {
  TC_CHECK(amount >= 0 && amount < 32, "shift amount must be 0..31");
  auto& i = push(Opcode::kShfL);
  i.dst = d;
  i.srca = a;
  i.imm = amount;
  i.has_imm = true;
  return *this;
}
KernelBuilder& KernelBuilder::shr(Reg d, Reg a, int amount) {
  TC_CHECK(amount >= 0 && amount < 32, "shift amount must be 0..31");
  auto& i = push(Opcode::kShfR);
  i.dst = d;
  i.srca = a;
  i.imm = amount;
  i.has_imm = true;
  return *this;
}
KernelBuilder& KernelBuilder::isetp(Pred p, CmpOp cmp, Reg a, Reg b) {
  TC_CHECK(!p.is_pt(), "cannot write PT");
  auto& i = push(Opcode::kIsetp);
  i.pdst = p;
  i.cmp = cmp;
  i.srca = a;
  i.srcb = b;
  return *this;
}
KernelBuilder& KernelBuilder::isetp_imm(Pred p, CmpOp cmp, Reg a, std::int32_t imm) {
  TC_CHECK(!p.is_pt(), "cannot write PT");
  auto& i = push(Opcode::kIsetp);
  i.pdst = p;
  i.cmp = cmp;
  i.srca = a;
  i.imm = imm;
  i.has_imm = true;
  return *this;
}
KernelBuilder& KernelBuilder::sel(Reg d, Pred p, Reg a, Reg b) {
  auto& i = push(Opcode::kSel);
  i.dst = d;
  i.pdst = p;
  i.srca = a;
  i.srcb = b;
  return *this;
}
KernelBuilder& KernelBuilder::fadd(Reg d, Reg a, Reg b) {
  auto& i = push(Opcode::kFadd);
  i.dst = d;
  i.srca = a;
  i.srcb = b;
  return *this;
}
KernelBuilder& KernelBuilder::fmul(Reg d, Reg a, Reg b) {
  auto& i = push(Opcode::kFmul);
  i.dst = d;
  i.srca = a;
  i.srcb = b;
  return *this;
}
KernelBuilder& KernelBuilder::ffma(Reg d, Reg a, Reg b, Reg c) {
  auto& i = push(Opcode::kFfma);
  i.dst = d;
  i.srca = a;
  i.srcb = b;
  i.srcc = c;
  return *this;
}
KernelBuilder& KernelBuilder::hfma2(Reg d, Reg a, Reg b, Reg c) {
  auto& i = push(Opcode::kHfma2);
  i.dst = d;
  i.srca = a;
  i.srcb = b;
  i.srcc = c;
  return *this;
}
KernelBuilder& KernelBuilder::hadd2(Reg d, Reg a, Reg b) {
  auto& i = push(Opcode::kHadd2);
  i.dst = d;
  i.srca = a;
  i.srcb = b;
  return *this;
}
KernelBuilder& KernelBuilder::hmul2(Reg d, Reg a, Reg b) {
  auto& i = push(Opcode::kHmul2);
  i.dst = d;
  i.srca = a;
  i.srcb = b;
  return *this;
}
KernelBuilder& KernelBuilder::hmax2(Reg d, Reg a, Reg b) {
  auto& i = push(Opcode::kHmax2);
  i.dst = d;
  i.srca = a;
  i.srcb = b;
  return *this;
}
KernelBuilder& KernelBuilder::hgelu2(Reg d, Reg a) {
  auto& i = push(Opcode::kHgelu2);
  i.dst = d;
  i.srca = a;
  return *this;
}
KernelBuilder& KernelBuilder::f2f_f16_f32(Reg d, Reg a) {
  auto& i = push(Opcode::kF2fF16ToF32);
  i.dst = d;
  i.srca = a;
  return *this;
}
KernelBuilder& KernelBuilder::f2f_f32_f16(Reg d, Reg a) {
  auto& i = push(Opcode::kF2fF32ToF16);
  i.dst = d;
  i.srca = a;
  return *this;
}

namespace {
void fill_mma(Instruction& i, Reg d, Reg a, Reg b, Reg c) {
  i.dst = d;
  i.srca = a;
  i.srcb = b;
  i.srcc = c;
}
}  // namespace

KernelBuilder& KernelBuilder::hmma_1688_f16(Reg d, Reg a, Reg b, Reg c) {
  fill_mma(push(Opcode::kHmma1688F16), d, a, b, c);
  return *this;
}
KernelBuilder& KernelBuilder::hmma_1688_f32(Reg d, Reg a, Reg b, Reg c) {
  fill_mma(push(Opcode::kHmma1688F32), d, a, b, c);
  return *this;
}
KernelBuilder& KernelBuilder::hmma_884_f16(Reg d, Reg a, Reg b, Reg c) {
  fill_mma(push(Opcode::kHmma884F16), d, a, b, c);
  return *this;
}
KernelBuilder& KernelBuilder::imma_8816_s8(Reg d, Reg a, Reg b, Reg c) {
  fill_mma(push(Opcode::kImma8816S8), d, a, b, c);
  return *this;
}

KernelBuilder& KernelBuilder::ldg(MemWidth w, Reg d, Reg addr, std::int32_t offset,
                                  CacheOp cache) {
  auto& i = push(Opcode::kLdg);
  i.width = w;
  i.dst = d;
  i.srca = addr;
  i.imm = offset;
  i.cache = cache;
  return *this;
}
KernelBuilder& KernelBuilder::stg(MemWidth w, Reg addr, Reg src, std::int32_t offset) {
  auto& i = push(Opcode::kStg);
  i.width = w;
  i.srca = addr;
  i.srcb = src;
  i.imm = offset;
  return *this;
}
KernelBuilder& KernelBuilder::lds(MemWidth w, Reg d, Reg addr, std::int32_t offset) {
  auto& i = push(Opcode::kLds);
  i.width = w;
  i.dst = d;
  i.srca = addr;
  i.imm = offset;
  return *this;
}
KernelBuilder& KernelBuilder::sts(MemWidth w, Reg addr, Reg src, std::int32_t offset) {
  auto& i = push(Opcode::kSts);
  i.width = w;
  i.srca = addr;
  i.srcb = src;
  i.imm = offset;
  return *this;
}

KernelBuilder& KernelBuilder::bar_sync() {
  push(Opcode::kBar);
  return *this;
}
KernelBuilder& KernelBuilder::bra(const std::string& lbl) {
  push(Opcode::kBra);
  fixups_.emplace_back(static_cast<int>(code_.size()) - 1, lbl);
  return *this;
}
KernelBuilder& KernelBuilder::exit() {
  push(Opcode::kExit);
  return *this;
}

KernelBuilder& KernelBuilder::label(const std::string& lbl) {
  TC_CHECK(!labels_.contains(lbl), "duplicate label: " + lbl);
  labels_[lbl] = static_cast<int>(code_.size());
  return *this;
}

KernelBuilder& KernelBuilder::smem(std::uint32_t bytes) {
  smem_bytes_ = bytes;
  return *this;
}
KernelBuilder& KernelBuilder::threads(std::uint32_t n) {
  TC_CHECK(n >= 32 && n % 32 == 0 && n <= 1024, "threads must be a multiple of 32 in [32,1024]");
  cta_threads_ = n;
  return *this;
}

Program KernelBuilder::finalize() {
  TC_CHECK(!finalized_, "builder already finalized");
  finalized_ = true;

  for (const auto& [index, lbl] : fixups_) {
    auto it = labels_.find(lbl);
    TC_CHECK(it != labels_.end(), "undefined label: " + lbl);
    code_[static_cast<std::size_t>(index)].target = it->second;
  }

  Program prog;
  prog.name = name_;
  prog.code = std::move(code_);
  prog.smem_bytes = smem_bytes_;
  prog.cta_threads = cta_threads_;
  count_resources(prog);
  validate(prog);
  return prog;
}

}  // namespace tc::sass
