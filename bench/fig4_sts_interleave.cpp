// Reproduces paper Fig. 4: our HGEMM's throughput on RTX2070 when STS.128
// is interleaved with 2 HMMAs (STS2, cuBLAS's spacing) versus 5 HMMAs (STS5,
// the Eq. (6) minimum). Paper: average speedup 1.13x, maximum 1.26x.
// The trailing table shows the profiler's counter-derived pipe utilizations
// for both spacings (tighter interleaving leaves the MIO pipe hotter).
#include "bench_common.hpp"
#include "core/profile.hpp"

using namespace tc;

int main(int argc, char** argv) {
  const Flags flags = bench::parse_flags(argc, argv, {bench::step_flag(1024)});
  const std::size_t step = flags.number("--step");
  const std::string& json_path = flags.text("--json");
  std::optional<bench::BenchJson> json;
  if (!json_path.empty()) json.emplace("fig4_sts_interleave", "rtx2070");
  std::cout << "Fig. 4: STS interleaving on RTX2070 (square W x W x W, step " << step << ")\n\n";

  auto sts5 = core::HgemmConfig::optimized();
  auto sts2 = core::HgemmConfig::optimized();
  sts2.sts_interleave = 2;
  core::PerfEstimator est5(device::rtx2070(), sts5);
  core::PerfEstimator est2(device::rtx2070(), sts2);

  TablePrinter t({"W", "STS5_TFLOPS", "STS2_TFLOPS", "speedup"});
  if (json) json->begin_series("throughput", {"W", "sts5_tflops", "sts2_tflops", "speedup"});
  double sum = 0.0;
  double best = 0.0;
  const auto sizes = bench::size_sweep(step);
  for (const auto w : sizes) {
    const GemmShape s{w, w, w};
    const double t5 = est5.estimate(s).tflops;
    const double t2 = est2.estimate(s).tflops;
    const double speedup = t5 / t2;
    sum += speedup;
    best = std::max(best, speedup);
    t.add_row({std::to_string(w), fmt_fixed(t5, 2), fmt_fixed(t2, 2), fmt_fixed(speedup, 2)});
    if (json) json->row({static_cast<double>(w), t5, t2, speedup});
  }
  t.print(std::cout);
  const double avg = sum / static_cast<double>(sizes.size());
  std::cout << "average speedup of STS5 over STS2: " << fmt_fixed(avg, 2)
            << "x (paper: 1.13x); max " << fmt_fixed(best, 2) << "x (paper: 1.26x)\n\n";
  if (json) {
    json->summary("avg_speedup", avg);
    json->summary("max_speedup", best);
  }

  const auto u5 = core::observe_pipe_cycles(device::rtx2070(), sts5);
  const auto u2 = core::observe_pipe_cycles(device::rtx2070(), sts2);
  TablePrinter ut({"config", "tensor_util", "mio_util"});
  ut.add_row({"STS5", fmt_fixed(u5.tensor_util * 100, 1) + "%",
              fmt_fixed(u5.mio_util * 100, 1) + "%"});
  ut.add_row({"STS2", fmt_fixed(u2.tensor_util * 100, 1) + "%",
              fmt_fixed(u2.mio_util * 100, 1) + "%"});
  std::cout << "observed steady-state pipe utilization (profiler counters):\n";
  ut.print(std::cout);
  if (json) {
    json->begin_series("pipe_utilization", {"sts_interleave", "tensor_util", "mio_util"});
    json->row({5, u5.tensor_util, u5.mio_util});
    json->row({2, u2.tensor_util, u2.mio_util});
    json->write_file(json_path);
    std::cout << "json written to " << json_path << "\n";
  }
  return 0;
}
