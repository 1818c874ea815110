// Reproduces paper Fig. 6: throughput of our HGEMM and the cuBLAS-10.1-like
// baseline on square matrices on RTX2070, W = 1024..16384.
// Paper: ours climbs to the device peak (~60 TF); cuBLAS peaks at 52.75 TF
// (W=4096), declines past 4096, and collapses at W = 12032 when its L2
// blocking strategy fails. Max speedup 2.7x at W=16128, average 1.55x.
#include "bench_common.hpp"

using namespace tc;

int main(int argc, char** argv) {
  const Flags flags = bench::parse_flags(argc, argv, {bench::step_flag(1024)});
  const std::size_t step = flags.number("--step");
  const std::string& json_path = flags.text("--json");
  std::optional<bench::BenchJson> json;
  if (!json_path.empty()) json.emplace("fig6_square_rtx2070", "rtx2070");
  std::cout << "Fig. 6: square HGEMM on RTX2070 (step " << step << ")\n\n";

  core::PerfEstimator ours(device::rtx2070(), core::HgemmConfig::optimized());
  core::PerfEstimator baseline(device::rtx2070(), core::HgemmConfig::cublas_like());

  std::vector<GemmShape> shapes;
  std::vector<std::size_t> labels;
  for (const auto w : bench::size_sweep(step)) {
    shapes.push_back({w, w, w});
    labels.push_back(w);
  }
  bench::run_versus_sweep("ours vs cuBLAS-like, square, RTX2070", ours, baseline, shapes,
                          labels, json ? &*json : nullptr);
  std::cout << "paper reference: ours up to 60.37 TF; cuBLAS max 52.75 TF at 4096 with a\n"
               "sharp drop at W=12032; max speedup 2.7x; average speedup 1.55x\n";
  if (json) {
    json->write_file(json_path);
    std::cout << "json written to " << json_path << "\n";
  }
  return 0;
}
