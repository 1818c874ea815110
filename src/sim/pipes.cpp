#include "sim/pipes.hpp"

#include "common/error.hpp"

namespace tc::sim {

int pipe_occupancy(const sass::Instruction& inst) {
  using sass::Opcode;
  switch (inst.op) {
    case Opcode::kHmma1688F16:
    case Opcode::kHmma1688F32:
      return 8;  // 16 4x4x4 steps / 2 tensor cores per partition
    case Opcode::kHmma884F16:
      return 4;  // half the MACs of .1688
    case Opcode::kImma8816S8:
      return 8;
    case Opcode::kFadd:
    case Opcode::kFmul:
    case Opcode::kFfma:
      return 2;  // 16 FP32 lanes per partition
    case Opcode::kBar:
    case Opcode::kBra:
    case Opcode::kExit:
    case Opcode::kNop:
      return 1;
    case Opcode::kS2r:
    case Opcode::kCs2rClock:
    case Opcode::kMovParam:
      return 2;
    default:
      return 2;  // 16-lane integer/logic/fp16x2 path
  }
}

int smem_base_cost(sass::Opcode op, sass::MemWidth width) {
  const bool store = op == sass::Opcode::kSts;
  switch (width) {
    case sass::MemWidth::k32:
      return store ? 4 : 2;
    case sass::MemWidth::k64:
      return store ? 6 : 4;
    case sass::MemWidth::k128:
      return store ? 10 : 8;
  }
  TC_ASSERT(false, "unknown width");
}

MemLatency mem_latency(const device::DeviceSpec& spec) {
  return {spec.lat_smem, spec.lat_l1_hit, spec.lat_l2_hit, spec.lat_dram};
}

}  // namespace tc::sim
