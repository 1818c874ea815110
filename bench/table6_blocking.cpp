// Reproduces paper Table VI: Tensor-Core vs memory-IO pipe cycles per
// main-loop iteration under candidate blocking sizes (Eqs. (3)-(5)), using
// (a) the paper's measured CPIs, (b) this repository's own simulator
// measurements, and (c) the profiler's counters observed on the two
// runnable kernels — and cross-checks the Eq. (6) interleave rule.
#include <iostream>

#include "bench_common.hpp"
#include "common/table.hpp"
#include "core/profile.hpp"
#include "driver/device.hpp"
#include "kernels/micro.hpp"
#include "model/blocking.hpp"

using namespace tc;

namespace {

double measured_cpi(sass::Opcode op, sass::MemWidth width, sass::CacheOp cache,
                    std::uint32_t window) {
  driver::Device dev(device::rtx2070());
  auto data = dev.alloc<std::uint8_t>(1 << 20);
  auto clocks = dev.alloc<std::uint32_t>(64);
  const int unroll = 128;
  const int iters = 100;
  sass::Program prog =
      op == sass::Opcode::kLdg
          ? kernels::ldg_cpi_kernel(width, cache, unroll, iters, window)
          : kernels::smem_cpi_kernel(op, width, unroll, iters);
  sim::Launch launch;
  launch.program = &prog;
  launch.params = {clocks.addr, data.addr};
  const sim::CtaCoord cta{0, 0};
  dev.run_timed(launch, std::span(&cta, 1), dev.timing_whole_device());
  std::vector<std::uint32_t> host(64);
  dev.download(std::span(host.data(), host.size()), clocks);
  return kernels::cpi_from_clocks(host[0], host[32], unroll, iters);
}

double measured_hmma_cpi() {
  driver::Device dev(device::rtx2070());
  auto clocks = dev.alloc<std::uint32_t>(64);
  const auto prog = kernels::hmma_cpi_kernel(128, 100);
  sim::Launch launch;
  launch.program = &prog;
  launch.params = {clocks.addr};
  const sim::CtaCoord cta{0, 0};
  dev.run_timed(launch, std::span(&cta, 1), dev.timing_whole_device());
  std::vector<std::uint32_t> host(64);
  dev.download(std::span(host.data(), host.size()), clocks);
  return kernels::cpi_from_clocks(host[0], host[32], 128, 100);
}

void print_table(const std::string& title, const model::CpiSet& cpi,
                 bench::BenchJson* json, const std::string& series) {
  std::cout << title << " (HMMA " << fmt_fixed(cpi.hmma, 2) << ", LDG.128 "
            << fmt_fixed(cpi.ldg128, 2) << ", STS.128 " << fmt_fixed(cpi.sts128, 2)
            << ", LDS.32 " << fmt_fixed(cpi.lds32, 2) << ")\n";
  TablePrinter t({"(bm x bn x bk)", "(wm x wn x wk)", "HMMA cycles", "Memory IO cycles",
                  "bound by"});
  if (json != nullptr) {
    json->begin_series(series, {"bm", "bn", "bk", "wm", "wn", "wk", "hmma", "memio"});
  }
  for (const auto& row : model::table_vi(cpi)) {
    t.add_row({"(" + std::to_string(row.config.bm) + "x" + std::to_string(row.config.bn) + "x" +
                   std::to_string(row.config.bk) + ")",
               "(" + std::to_string(row.config.wm) + "x" + std::to_string(row.config.wn) + "x" +
                   std::to_string(row.config.wk) + ")",
               fmt_fixed(row.hmma, 0), fmt_fixed(row.memio, 0),
               row.hmma >= row.memio ? "Tensor Core" : "memory IO"});
    if (json != nullptr) {
      json->row({static_cast<double>(row.config.bm), static_cast<double>(row.config.bn),
                 static_cast<double>(row.config.bk), static_cast<double>(row.config.wm),
                 static_cast<double>(row.config.wn), static_cast<double>(row.config.wk),
                 row.hmma, row.memio});
    }
  }
  t.print(std::cout);
  std::cout << "Eq. (6): minimum HMMAs between STS.128 = "
            << model::min_hmma_between_sts128(cpi) << " (paper: 5; cuBLAS 10.1 uses 2)\n\n";
}

}  // namespace

int main(int argc, char** argv) {
  const std::string json_path = bench::parse_flags(argc, argv, {}).text("--json");
  std::optional<bench::BenchJson> json;
  if (!json_path.empty()) json.emplace("table6_blocking", "rtx2070");
  std::cout << "Table VI: cycles needed by the Tensor Core pipe vs the memory IO pipe\n\n";

  print_table("(a) with the paper's measured CPIs", model::CpiSet{},
              json ? &*json : nullptr, "paper_cpis");

  model::CpiSet ours;
  ours.hmma = measured_hmma_cpi();
  ours.ldg128 =
      measured_cpi(sass::Opcode::kLdg, sass::MemWidth::k128, sass::CacheOp::kCg, 256 * 1024);
  ours.sts128 = measured_cpi(sass::Opcode::kSts, sass::MemWidth::k128, sass::CacheOp::kCa, 0);
  ours.lds32 = measured_cpi(sass::Opcode::kLds, sass::MemWidth::k32, sass::CacheOp::kCa, 0);
  print_table("(b) with this simulator's measured CPIs", ours,
              json ? &*json : nullptr, "our_cpis");

  // (c) The same two quantities *observed* by the profiler's counters on the
  // two runnable kernels, per CTA main-loop iteration, plus the resulting
  // steady-state pipe utilizations. The analytic rows above derive the
  // bottleneck; these rows measure it.
  std::cout << "(c) observed by the profiler on the runnable kernels "
               "(per CTA iteration, LDGs from L2)\n";
  TablePrinter t({"kernel", "HMMA cycles", "Memory IO cycles", "tensor_util", "mio_util",
                  "bound by"});
  if (json) {
    json->begin_series("observed",
                       {"optimized", "hmma", "memio", "tensor_util", "mio_util"});
  }
  const struct {
    const char* label;
    core::HgemmConfig cfg;
    double opt;
  } rows[] = {{"ours (256x256x32)", core::HgemmConfig::optimized(), 1},
              {"cuBLAS-like (128x128x64)", core::HgemmConfig::cublas_like(), 0}};
  for (const auto& r : rows) {
    const auto o = core::observe_pipe_cycles(device::rtx2070(), r.cfg);
    t.add_row({r.label, fmt_fixed(o.tensor_cycles, 0), fmt_fixed(o.memio_cycles, 0),
               fmt_fixed(o.tensor_util * 100, 1) + "%", fmt_fixed(o.mio_util * 100, 1) + "%",
               o.tensor_cycles >= o.memio_cycles ? "Tensor Core" : "memory IO"});
    if (json) {
      json->row({r.opt, o.tensor_cycles, o.memio_cycles, o.tensor_util, o.mio_util});
    }
  }
  t.print(std::cout);
  if (json) {
    json->write_file(json_path);
    std::cout << "json written to " << json_path << "\n";
  }
  return 0;
}
