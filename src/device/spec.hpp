// Device descriptions of the two GPUs the paper evaluates.
//
// Structural parameters (SM count, partitions, tensor cores, register file,
// shared memory) come from the Turing whitepaper; bandwidth calibration
// constants are the paper's *measured* Table II values — the simulator treats
// measured DRAM/L2 bandwidth as the device's sustained capability, so the
// microbenchmarks recover them and the roofline/HGEMM analysis inherits them.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace tc::device {

/// Static description of a simulated Turing GPU.
struct DeviceSpec {
  std::string name;

  // --- compute structure ---
  int num_sms = 0;
  int processing_blocks_per_sm = 4;  // warp-scheduler sub-partitions
  int tensor_cores_per_pb = 2;
  int fp32_lanes_per_pb = 16;
  double sm_clock_ghz = 0.0;

  // --- per-SM resources ---
  int regs_per_sm = 64 * 1024;       // 32-bit registers
  int max_regs_per_thread = 256;
  std::uint32_t smem_per_sm = 64 * 1024;
  int max_threads_per_sm = 1024;
  int max_ctas_per_sm = 16;

  // --- memory system ---
  double dram_bw_theoretical_gbps = 0.0;
  double dram_bw_gbps = 0.0;  // sustained (paper Table II "measured")
  double l2_bw_gbps = 0.0;    // sustained (paper Table II "measured")
  std::uint64_t l2_size_bytes = 4ull * 1024 * 1024;
  /// L1 data cache per SM (96 KB unified minus the 64 KB smem carve-out).
  std::uint64_t l1_size_bytes = 32 * 1024;
  int l1_ways = 4;
  int l2_ways = 16;
  /// L2-to-SM return port (paper Table III implies 32 B/cycle: LDG.128 from
  /// L2 sustains one 512 B warp access per ~16 cycles).
  double l2_port_bytes_per_cycle = 32.0;
  /// Outstanding global sector-request groups per SM before the LSU stalls.
  int mshr_limit = 64;

  // --- latencies in SM cycles (Turing-class values) ---
  int lat_l1_hit = 32;
  int lat_l2_hit = 188;
  int lat_dram = 400;
  int lat_smem = 22;

  /// Host-side kernel launch overhead in SM cycles (~2.5 us at Turing
  /// clocks — the driver/runtime submission cost a multi-kernel GemmOp plan
  /// pays per launch; see tc::op::OpTiming). Batched GEMM amortizes it.
  std::uint64_t launch_overhead_cycles = 4000;

  /// Peak Tensor Core throughput in FLOP/s. Each tensor core retires 64
  /// FP16 FMAs (128 FLOP) per cycle.
  [[nodiscard]] double tensor_peak_flops() const {
    return static_cast<double>(num_sms) * processing_blocks_per_sm * tensor_cores_per_pb *
           64.0 * 2.0 * sm_clock_ghz * 1e9;
  }

  /// Peak FP16-unit (non-tensor) throughput: 4x lower than tensor cores.
  [[nodiscard]] double fp16_peak_flops() const { return tensor_peak_flops() / 4.0; }

  /// Sustained DRAM bandwidth in bytes per SM-clock cycle (whole device).
  [[nodiscard]] double dram_bytes_per_cycle() const {
    return dram_bw_gbps * 1e9 / (sm_clock_ghz * 1e9);
  }
  [[nodiscard]] double l2_bytes_per_cycle() const {
    return l2_bw_gbps * 1e9 / (sm_clock_ghz * 1e9);
  }

  /// One SM's fair share of device DRAM bandwidth, bytes/cycle.
  [[nodiscard]] double dram_bytes_per_cycle_per_sm() const {
    return dram_bytes_per_cycle() / num_sms;
  }
  [[nodiscard]] double l2_bytes_per_cycle_per_sm() const {
    return l2_bytes_per_cycle() / num_sms;
  }

  [[nodiscard]] double cycles_to_seconds(double cycles) const {
    return cycles / (sm_clock_ghz * 1e9);
  }
};

/// GeForce RTX 2070: TU106, 36 SMs @ ~1.62 GHz, 448 GB/s GDDR6.
[[nodiscard]] DeviceSpec rtx2070();

/// Tesla T4: TU104, 40 SMs @ 1.59 GHz (paper's locked clock), 320 GB/s GDDR6.
[[nodiscard]] DeviceSpec t4();

/// Looks up a spec by name ("rtx2070" or "t4"); throws on unknown name.
[[nodiscard]] DeviceSpec spec_by_name(const std::string& name);

/// Every name spec_by_name() accepts, "rtx2070" first: the --device choices.
inline const std::vector<std::string> kSpecNames = {"rtx2070", "t4", "RTX2070", "T4"};

}  // namespace tc::device
