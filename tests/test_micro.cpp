// Timing-engine tests built on the microbenchmark kernels: these reproduce
// the paper's Tables I, III, IV/V measurements on the simulator, and verify
// the hazard-accurate latency semantics (Section IV-C).
#include <gtest/gtest.h>

#include "common/rng.hpp"
#include "driver/device.hpp"
#include "kernels/micro.hpp"
#include "sim/mma_exec.hpp"

namespace tc {
namespace {

struct ClockedRun {
  double cpi = 0.0;
};

/// Runs a single-CTA clocked loop kernel and extracts lane 0's CPI.
ClockedRun run_clocked(driver::Device& dev, const sass::Program& prog, int unroll, int iters,
                       std::vector<std::uint32_t> extra_params = {}) {
  auto out = dev.alloc<std::uint32_t>(64);
  sim::Launch launch;
  launch.program = &prog;
  launch.params = {out.addr};
  for (auto p : extra_params) launch.params.push_back(p);

  const sim::CtaCoord cta{0, 0};
  ClockedRun r;
  dev.run_timed(launch, std::span(&cta, 1), dev.timing_whole_device());

  std::vector<std::uint32_t> clocks(64);
  dev.download(std::span(clocks.data(), clocks.size()), out);
  r.cpi = kernels::cpi_from_clocks(clocks[0], clocks[32], unroll, iters);
  return r;
}

TEST(MicroHmma, CpiIsNearEight) {
  // Paper Table I: theoretical 8.00, measured 8.06.
  driver::Device dev(device::rtx2070());
  const auto prog = kernels::hmma_cpi_kernel(128, 50);
  const auto r = run_clocked(dev, prog, 128, 50);
  EXPECT_GE(r.cpi, 8.0);
  EXPECT_LE(r.cpi, 8.25);
}

TEST(MicroHmma, SameCpiOnT4) {
  // Paper: RTX2070 and T4 share the SM design, so the CPI matches.
  driver::Device dev(device::t4());
  const auto prog = kernels::hmma_cpi_kernel(128, 50);
  const auto r = run_clocked(dev, prog, 128, 50);
  EXPECT_GE(r.cpi, 8.0);
  EXPECT_LE(r.cpi, 8.25);
}

/// Latency probe harness: prepares random fragments, runs the probe at
/// `stall`, returns (low half correct, high half correct).
std::pair<bool, bool> latency_probe(int stall) {
  driver::Device dev(device::rtx2070());
  Rng rng(3 + stall);

  // Build operand buffers in the register-image layout the kernel loads.
  sim::WarpRegs staging;
  sim::Tile8x8 a_lo, a_hi, bt, c_lo, c_hi;
  half a[16][8], b[8][8], c[16][8];
  for (int i = 0; i < 16; ++i) {
    for (int j = 0; j < 8; ++j) {
      a[i][j] = rng.next_half();
      c[i][j] = rng.next_half();
      (i < 8 ? a_lo : a_hi).m[i % 8][j] = a[i][j];
      (i < 8 ? c_lo : c_hi).m[i % 8][j] = c[i][j];
    }
  }
  for (int i = 0; i < 8; ++i) {
    for (int j = 0; j < 8; ++j) {
      b[i][j] = rng.next_half();
      bt.m[i][j] = b[i][j];
    }
  }
  scatter_row_major(staging, sass::Reg{0}, a_lo);
  scatter_row_major(staging, sass::Reg{1}, a_hi);
  scatter_col_major(staging, sass::Reg{2}, bt);
  scatter_row_major(staging, sass::Reg{3}, c_lo);
  scatter_row_major(staging, sass::Reg{4}, c_hi);

  std::vector<std::uint32_t> input(5 * 32);
  for (int r = 0; r < 5; ++r) {
    for (int lane = 0; lane < 32; ++lane) {
      input[static_cast<std::size_t>(r * 32 + lane)] =
          staging.read(sass::Reg{static_cast<std::uint8_t>(r)}, lane);
    }
  }

  auto din = dev.alloc<std::uint32_t>(input.size());
  auto dout = dev.alloc<std::uint32_t>(64);
  dev.upload(din, std::span<const std::uint32_t>(input));

  const auto prog = kernels::hmma_latency_kernel(stall);
  sim::Launch launch;
  launch.program = &prog;
  launch.params = {din.addr, dout.addr};
  const sim::CtaCoord cta{0, 0};
  dev.run_timed(launch, std::span(&cta, 1), dev.timing_whole_device());

  std::vector<std::uint32_t> out(64);
  dev.download(std::span(out.data(), out.size()), dout);

  // Expected D from the scalar model.
  sim::WarpRegs expect;
  scatter_row_major(expect, sass::Reg{0}, a_lo);  // reuse staging layout
  bool lo_ok = true;
  bool hi_ok = true;
  for (int i = 0; i < 16; ++i) {
    for (int j = 0; j < 8; ++j) {
      float acc = c[i][j].to_float();
      for (int kk = 0; kk < 8; ++kk) acc += a[i][kk].to_float() * b[kk][j].to_float();
      const half want(acc);
      // STG.64 interleaves the two destination registers per lane:
      // out[2*lane] = R8 (rows 0-7), out[2*lane+1] = R9 (rows 8-15).
      const auto pos = sim::row_major_pos(i % 8, j);
      const std::uint32_t word =
          out[static_cast<std::size_t>(2 * pos.lane + (i < 8 ? 0 : 1))];
      const half got = pos.part == 0 ? half2::unpack(word).lo : half2::unpack(word).hi;
      const bool ok = got.bits() == want.bits();
      (i < 8 ? lo_ok : hi_ok) &= ok;
    }
  }
  return {lo_ok, hi_ok};
}

TEST(MicroHmma, LatencyIsTenAndFourteen) {
  // The paper's methodology: sweep the stall count; the low half becomes
  // correct at 10 cycles, the high half at 14 (Table I).
  for (int stall = 6; stall <= 15; ++stall) {
    const auto [lo_ok, hi_ok] = latency_probe(stall);
    EXPECT_EQ(lo_ok, stall >= 10) << "stall=" << stall;
    EXPECT_EQ(hi_ok, stall >= 14) << "stall=" << stall;
  }
}

TEST(MicroSmem, LdsCpiMatchesTableIV) {
  driver::Device dev(device::rtx2070());
  const struct {
    sass::MemWidth width;
    double expect;
  } rows[] = {{sass::MemWidth::k32, 2.0},
              {sass::MemWidth::k64, 4.0},
              {sass::MemWidth::k128, 8.0}};
  for (const auto& row : rows) {
    const auto prog = kernels::smem_cpi_kernel(sass::Opcode::kLds, row.width, 128, 50);
    const auto r = run_clocked(dev, prog, 128, 50);
    EXPECT_GE(r.cpi, row.expect * 0.97) << "width " << static_cast<int>(row.width);
    EXPECT_LE(r.cpi, row.expect + 0.25) << "width " << static_cast<int>(row.width);
  }
}

TEST(MicroSmem, StsCpiMatchesTableIV) {
  driver::Device dev(device::rtx2070());
  const struct {
    sass::MemWidth width;
    double expect;
  } rows[] = {{sass::MemWidth::k32, 4.0},
              {sass::MemWidth::k64, 6.0},
              {sass::MemWidth::k128, 10.0}};
  for (const auto& row : rows) {
    const auto prog = kernels::smem_cpi_kernel(sass::Opcode::kSts, row.width, 128, 50);
    const auto r = run_clocked(dev, prog, 128, 50);
    EXPECT_GE(r.cpi, row.expect * 0.97);
    EXPECT_LE(r.cpi, row.expect + 0.25);
  }
}

TEST(MicroLdg, L1HitCpiMatchesTableIII) {
  driver::Device dev(device::rtx2070());
  auto buf = dev.alloc<std::uint8_t>(1 << 20);
  const struct {
    sass::MemWidth width;
    double expect;
  } rows[] = {{sass::MemWidth::k32, 4.0},
              {sass::MemWidth::k64, 4.0},
              {sass::MemWidth::k128, 8.0}};
  for (const auto& row : rows) {
    // Window small enough to live in L1 after the first pass.
    const auto prog =
        kernels::ldg_cpi_kernel(row.width, sass::CacheOp::kCa, 128, 50, 16 * 1024);
    const auto r = run_clocked(dev, prog, 128, 50, {buf.addr});
    EXPECT_GE(r.cpi, row.expect * 0.97) << "width " << static_cast<int>(row.width);
    EXPECT_LE(r.cpi, row.expect + 0.35) << "width " << static_cast<int>(row.width);
  }
}

TEST(MicroLdg, L2CpiMatchesTableIII) {
  driver::Device dev(device::rtx2070());
  auto buf = dev.alloc<std::uint8_t>(1 << 20);
  const struct {
    sass::MemWidth width;
    double expect;
  } rows[] = {{sass::MemWidth::k32, 4.0},
              {sass::MemWidth::k64, 8.0},
              {sass::MemWidth::k128, 16.0}};
  for (const auto& row : rows) {
    // .CG bypasses L1; the window fits in L2 so steady state is L2-resident.
    const auto prog =
        kernels::ldg_cpi_kernel(row.width, sass::CacheOp::kCg, 128, 50, 256 * 1024);
    const auto r = run_clocked(dev, prog, 128, 50, {buf.addr});
    EXPECT_GE(r.cpi, row.expect * 0.97) << "width " << static_cast<int>(row.width);
    EXPECT_LE(r.cpi, row.expect + 0.6) << "width " << static_cast<int>(row.width);
  }
}

TEST(MicroLds, ConflictScalesCost) {
  driver::Device dev(device::rtx2070());
  double cpi_by_stride[5] = {};
  const int strides[] = {1, 2, 4, 8, 16};
  for (int i = 0; i < 5; ++i) {
    const auto prog = kernels::lds_conflict_kernel(strides[i], 128, 30);
    cpi_by_stride[i] = run_clocked(dev, prog, 128, 30).cpi;
  }
  // Stride 1 conflict-free (~2.0); each doubling of the stride doubles ways.
  EXPECT_NEAR(cpi_by_stride[0], 2.0, 0.3);
  for (int i = 1; i < 5; ++i) {
    EXPECT_NEAR(cpi_by_stride[static_cast<std::size_t>(i)],
                2.0 * strides[i], 0.3 + 0.05 * strides[i])
        << "stride " << strides[i];
  }
}

TEST(MicroSmem, ThroughputBytesPerCycle) {
  // Paper Table V: LDS.64/128 reach the 64 B/cycle peak; STS.128 leads STS.
  driver::Device dev(device::rtx2070());
  auto bytes_per_cycle = [&](sass::Opcode op, sass::MemWidth w) {
    const auto prog = kernels::smem_cpi_kernel(op, w, 128, 50);
    const auto r = run_clocked(dev, prog, 128, 50);
    return 32.0 * sass::width_bytes(w) / r.cpi;
  };
  EXPECT_NEAR(bytes_per_cycle(sass::Opcode::kLds, sass::MemWidth::k64), 64.0, 2.0);
  EXPECT_NEAR(bytes_per_cycle(sass::Opcode::kLds, sass::MemWidth::k128), 64.0, 2.0);
  const double sts32 = bytes_per_cycle(sass::Opcode::kSts, sass::MemWidth::k32);
  const double sts128 = bytes_per_cycle(sass::Opcode::kSts, sass::MemWidth::k128);
  EXPECT_GT(sts128, 1.5 * sts32);  // paper: 62.4% higher (51.2 vs 31.5)
}

}  // namespace
}  // namespace tc
