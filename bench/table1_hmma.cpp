// Reproduces paper Table I: throughput (CPI) and latency of HMMA.1688.F16.
//
// Methodology (Section IV-C):
//  * CPI: a loop of HMMAs small enough for the L0 i-cache, timed with CS2R.
//  * Latency: one HMMA followed by an unprotected store after `stall`
//    cycles; the result is correct only once the stall covers the latency.
#include <cstdio>
#include <iostream>
#include <optional>

#include "bench_common.hpp"
#include "common/rng.hpp"
#include "common/table.hpp"
#include "driver/device.hpp"
#include "kernels/micro.hpp"
#include "sim/mma_exec.hpp"

using namespace tc;

namespace {

double measure_cpi(const device::DeviceSpec& spec) {
  driver::Device dev(spec);
  const int unroll = 128;
  const int iters = 100;
  const auto prog = kernels::hmma_cpi_kernel(unroll, iters);
  auto out = dev.alloc<std::uint32_t>(64);
  sim::Launch launch;
  launch.program = &prog;
  launch.params = {out.addr};
  const sim::CtaCoord cta{0, 0};
  dev.run_timed(launch, std::span(&cta, 1), dev.timing_whole_device());
  std::vector<std::uint32_t> clocks(64);
  dev.download(std::span(clocks.data(), clocks.size()), out);
  return kernels::cpi_from_clocks(clocks[0], clocks[32], unroll, iters);
}

/// Returns {lowest stall with a correct low half, ... high half}.
std::pair<int, int> measure_latency() {
  int lo_lat = -1;
  int hi_lat = -1;
  for (int stall = 1; stall <= 15; ++stall) {
    driver::Device dev(device::rtx2070());
    Rng rng(1234);
    sim::WarpRegs staging;
    sim::Tile8x8 tiles[5];
    for (auto& t : tiles) {
      for (auto& row : t.m) {
        for (auto& v : row) v = rng.next_half();
      }
    }
    scatter_row_major(staging, sass::Reg{0}, tiles[0]);
    scatter_row_major(staging, sass::Reg{1}, tiles[1]);
    scatter_col_major(staging, sass::Reg{2}, tiles[2]);
    scatter_row_major(staging, sass::Reg{3}, tiles[3]);
    scatter_row_major(staging, sass::Reg{4}, tiles[4]);
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

    bool lo_ok = true;
    bool hi_ok = true;
    for (int i = 0; i < 16; ++i) {
      for (int j = 0; j < 8; ++j) {
        float acc = tiles[3 + i / 8].m[i % 8][j].to_float();
        for (int kk = 0; kk < 8; ++kk) {
          acc += tiles[i / 8].m[i % 8][kk].to_float() * tiles[2].m[kk][j].to_float();
        }
        const auto pos = sim::row_major_pos(i % 8, j);
        const std::uint32_t word = out[static_cast<std::size_t>(2 * pos.lane + (i < 8 ? 0 : 1))];
        const half got = pos.part == 0 ? half2::unpack(word).lo : half2::unpack(word).hi;
        ((i < 8 ? lo_ok : hi_ok)) &= got.bits() == half(acc).bits();
      }
    }
    if (lo_ok && lo_lat < 0) lo_lat = stall;
    if (hi_ok && hi_lat < 0) hi_lat = stall;
  }
  return {lo_lat, hi_lat};
}

}  // namespace

int main(int argc, char** argv) {
  const std::string json_path = bench::parse_flags(argc, argv, {}).text("--json");
  std::cout << "Table I: throughput and latency of HMMA.1688.F16\n";
  std::cout << "(paper: CPI theoretical 8.00, measured 8.06; latency 10 / 14 cycles)\n\n";

  const double cpi_2070 = measure_cpi(device::rtx2070());
  const double cpi_t4 = measure_cpi(device::t4());
  const auto [lo, hi] = measure_latency();

  TablePrinter t({"Metric", "Value"});
  t.add_row({"CPI theoretical", "8.00"});
  t.add_row({"CPI measured (RTX2070)", fmt_fixed(cpi_2070, 2)});
  t.add_row({"CPI measured (T4)", fmt_fixed(cpi_t4, 2)});
  t.add_row({"Latency for the first half of D16x8", std::to_string(lo)});
  t.add_row({"Latency for the second half of D16x8", std::to_string(hi)});
  t.print(std::cout);

  if (!json_path.empty()) {
    bench::BenchJson json("table1_hmma");
    json.begin_series("hmma_1688_f16",
                      {"cpi_theoretical", "cpi_rtx2070", "cpi_t4", "latency_lo", "latency_hi"});
    json.row({8.0, cpi_2070, cpi_t4, static_cast<double>(lo), static_cast<double>(hi)});
    json.write_file(json_path);
    std::cout << "json written to " << json_path << "\n";
  }
  return 0;
}
