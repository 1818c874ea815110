// Microarchitectural cost tables of the modeled Turing SM.
//
// These are the *theoretical* per-instruction costs; the microbenchmarks in
// bench/ re-measure them the paper's way (long loops + CS2R) and obtain the
// slightly larger "measured" values (8.06 for HMMA, 2.11 for LDS.32, ...)
// from loop overhead and queue drain — the same mechanism as on silicon.
//
// Sources for the theoretical values:
//  * HMMA.1688 CPI 8: 16 4x4x4 steps / 2 tensor cores per partition
//    (paper Section IV-C).
//  * HMMA latency 10/14 cycles for the low/high destination half (Table I).
//  * LDS/STS CPI per width: paper Table IV; LDG per width and level:
//    paper Table III, which implies a 64 B/cycle L1 return path and a
//    32 B/cycle L2-to-SM port with a 4-cycle minimum occupancy.
#pragma once

#include "device/spec.hpp"
#include "sass/instruction.hpp"
#include "sass/latency.hpp"

namespace tc::sim {

// --- fixed-latency pipes --------------------------------------------------

// Result latencies (cycles from issue to register visibility) and the taken
// branch's fetch redirect live in the shared table sass/latency.hpp, consumed
// identically by this simulator, the static hazard detector, the
// stall-slack lint, and the scheduler.

/// Issue-to-issue occupancy of the per-partition pipes (warp CPI).
[[nodiscard]] int pipe_occupancy(const sass::Instruction& inst);

/// Fixed-latency writeback delay for `inst`'s destination register `dreg`
/// (its index relative to inst.dst). Memory loads are variable-latency and
/// handled by the MIO unit instead. This IS the shared table's oracle —
/// a using-declaration, so &sim::fixed_latency == &sass::fixed_latency.
using sass::fixed_latency;

// --- MIO pipe ---------------------------------------------------------------

/// Base MIO occupancy for shared-memory instructions (before bank-conflict
/// multiplication): paper Table IV theoretical values.
[[nodiscard]] int smem_base_cost(sass::Opcode op, sass::MemWidth width);

/// Data-return latency by serving level.
struct MemLatency {
  int smem;
  int l1;
  int l2;
  int dram;
};
[[nodiscard]] MemLatency mem_latency(const device::DeviceSpec& spec);

}  // namespace tc::sim
