// Reproduces paper Fig. 5: our HGEMM on RTX2070 with the conflict-free
// (padded) shared-memory layout versus the naive A[256][32]/B[256][32]
// layout. Paper: the naive layout roughly halves throughput.
// The trailing table shows the profiler's counter-derived utilizations and
// bank-conflict replays: the naive layout's replays saturate the MIO pipe.
#include "bench_common.hpp"
#include "core/profile.hpp"

using namespace tc;

int main(int argc, char** argv) {
  const Flags flags = bench::parse_flags(argc, argv, {bench::step_flag(1024)});
  const std::size_t step = flags.number("--step");
  const std::string& json_path = flags.text("--json");
  std::optional<bench::BenchJson> json;
  if (!json_path.empty()) json.emplace("fig5_smem_padding", "rtx2070");
  std::cout << "Fig. 5: shared-memory layout on RTX2070 (square W x W x W, step " << step
            << ")\n\n";

  auto padded = core::HgemmConfig::optimized();
  auto naive = core::HgemmConfig::optimized();
  naive.layout = core::SmemLayout::kNaiveRowMajor;
  core::PerfEstimator est_pad(device::rtx2070(), padded);
  core::PerfEstimator est_naive(device::rtx2070(), naive);

  TablePrinter t({"W", "padded_TFLOPS", "naive_TFLOPS", "speedup"});
  if (json) json->begin_series("throughput", {"W", "padded_tflops", "naive_tflops", "speedup"});
  double sum = 0.0;
  const auto sizes = bench::size_sweep(step);
  for (const auto w : sizes) {
    const GemmShape s{w, w, w};
    const double tp = est_pad.estimate(s).tflops;
    const double tn = est_naive.estimate(s).tflops;
    sum += tp / tn;
    t.add_row({std::to_string(w), fmt_fixed(tp, 2), fmt_fixed(tn, 2), fmt_fixed(tp / tn, 2)});
    if (json) json->row({static_cast<double>(w), tp, tn, tp / tn});
  }
  t.print(std::cout);
  const double avg = sum / static_cast<double>(sizes.size());
  std::cout << "average speedup of the conflict-free layout: " << fmt_fixed(avg, 2)
            << "x (paper: ~2x)\n\n";
  if (json) json->summary("avg_speedup", avg);

  const auto up = core::observe_pipe_cycles(device::rtx2070(), padded);
  const auto un = core::observe_pipe_cycles(device::rtx2070(), naive);
  TablePrinter ut({"layout", "tensor_util", "mio_util"});
  ut.add_row({"padded", fmt_fixed(up.tensor_util * 100, 1) + "%",
              fmt_fixed(up.mio_util * 100, 1) + "%"});
  ut.add_row({"naive", fmt_fixed(un.tensor_util * 100, 1) + "%",
              fmt_fixed(un.mio_util * 100, 1) + "%"});
  std::cout << "observed steady-state pipe utilization (profiler counters):\n";
  ut.print(std::cout);
  if (json) {
    json->begin_series("pipe_utilization", {"padded", "tensor_util", "mio_util"});
    json->row({1, up.tensor_util, up.mio_util});
    json->row({0, un.tensor_util, un.mio_util});
    json->write_file(json_path);
    std::cout << "json written to " << json_path << "\n";
  }
  return 0;
}
