// Reproduces paper Fig. 7: square HGEMM on T4. Paper: ours plateaus near
// 49.7 TF (76% of the 65 TF peak — DRAM-bound) and falls off past W=12800;
// cuBLAS maxes at 45.43 TF (W=2560); max speedup 1.7x at 13312, avg 1.53x.
#include "bench_common.hpp"

using namespace tc;

int main(int argc, char** argv) {
  const Flags flags = bench::parse_flags(argc, argv, {bench::step_flag(1024)});
  const std::size_t step = flags.number("--step");
  const std::string& json_path = flags.text("--json");
  std::optional<bench::BenchJson> json;
  if (!json_path.empty()) json.emplace("fig7_square_t4", "t4");
  std::cout << "Fig. 7: square HGEMM on T4 (step " << step << ")\n\n";

  core::PerfEstimator ours(device::t4(), core::HgemmConfig::optimized());
  core::PerfEstimator baseline(device::t4(), core::HgemmConfig::cublas_like());

  std::vector<GemmShape> shapes;
  std::vector<std::size_t> labels;
  for (const auto w : bench::size_sweep(step)) {
    shapes.push_back({w, w, w});
    labels.push_back(w);
  }
  bench::run_versus_sweep("ours vs cuBLAS-like, square, T4", ours, baseline, shapes, labels,
                          json ? &*json : nullptr);
  std::cout << "paper reference: ours ~49.7 TF plateau (DRAM-bound, 76% of peak), falling\n"
               "past 12800; cuBLAS max 45.43 TF; max speedup 1.7x; average 1.53x\n";
  if (json) {
    json->write_file(json_path);
    std::cout << "json written to " << json_path << "\n";
  }
  return 0;
}
