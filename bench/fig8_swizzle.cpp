// CTA launch-order sweep at the Fig. 8 cliff: supertile dispatch vs. the
// row-major baseline on square [W x W x 192] shapes.
//
// The operating point is chosen so launch order is the deciding factor:
//
//  * A shallow k (192 = 3 slab iterations) keeps one wave's k-sweep small
//    enough that consecutive waves replay the same A rows / B columns out
//    of L2 -- the cross-wave reuse regime where CTA order picks what stays
//    resident. One wave's window is ~2k(grid_x*bn + rows*bm) bytes, so
//    row-major keeps its whole footprint L2-resident only up to
//    grid_x ~ cap / (2 k bn) and falls off a cliff right at W = 12032
//    (the width where cuBLAS 10.1 loses its blocking in Fig. 8). Deep-k
//    shapes stream too many bytes between wave repeats, and every order
//    degrades alike.
//  * A 64x64x64 blocking (4 CTAs/SM) is DRAM-hungry enough -- traffic per
//    flop scales as (bm+bn)/(bm*bn) -- that the lost reuse actually costs
//    throughput instead of hiding under the tensor-pipe floor.
//
// A supertile launch order keeps each wave inside a narrow column panel, so
// its working set stays L2-resident at every grid width: the swept kernel
// holds the plateau through W = 12032 while the row-major dispatch
// reproduces the cliff. Per W the best panel width is picked by the
// estimator from a small palette, mirroring what tc::tune does with the
// launch-order dimension.
//
// Usage: fig8_swizzle [--device rtx2070|t4] [--step N] [--json path]
#include <algorithm>
#include <map>

#include "bench_common.hpp"
#include "common/table.hpp"

namespace tc::bench {
namespace {

const int kWidths[] = {2, 4, 6, 8, 12, 16};

/// The swept blocking: small tiles trade arithmetic intensity for DRAM
/// traffic, putting the kernel on the part of the roofline where L2
/// residency (and therefore launch order) moves end-to-end throughput.
core::HgemmConfig l2_stress_config() {
  core::HgemmConfig c;
  c.bm = 64;
  c.bn = 64;
  c.bk = 64;
  c.wm = 32;
  c.wn = 64;
  c.layout = core::SmemLayout::kTileMajor;
  return c;
}

/// Shallow k: 3 slab iterations, so one wave's L2 window is 2k(bm+bn) bytes
/// per grid column/row and cross-wave reuse survives exactly up to the
/// Fig. 8 cliff width on a 4 MiB L2 (see file comment).
constexpr std::size_t kDepth = 192;

int run(const device::DeviceSpec& spec, std::size_t step, BenchJson* json) {
  core::HgemmConfig row_major = l2_stress_config();
  row_major.launch_order = model::LaunchOrder::kRowMajor;
  core::PerfEstimator baseline(spec, row_major);

  // One estimator per panel width; the steady-state cache inside each is
  // reused across the whole W sweep.
  std::map<int, core::PerfEstimator> swizzled;
  for (const int w : kWidths) {
    core::HgemmConfig cfg = l2_stress_config();
    cfg.launch_order = model::LaunchOrder::kSupertile;
    cfg.supertile_width = w;
    swizzled.emplace(w, core::PerfEstimator(spec, cfg));
  }

  // The paper's sweep, with the cliff width always present regardless of
  // step so the headline comparison never falls between samples.
  std::vector<std::size_t> sizes = size_sweep(step);
  if (std::find(sizes.begin(), sizes.end(), std::size_t{12032}) == sizes.end()) {
    sizes.push_back(12032);
    std::sort(sizes.begin(), sizes.end());
  }

  TablePrinter table({"W", "supertile_TFLOPS", "best_width", "rowmajor_TFLOPS", "speedup"});
  if (json != nullptr) {
    json->begin_series("supertile_vs_rowmajor",
                       {"W", "supertile_tflops", "best_width", "rowmajor_tflops", "speedup"});
  }
  double speedup_at_cliff = 0.0;
  double width_at_cliff = 0.0;
  double max_speedup = 0.0;
  double sum_speedup = 0.0;
  for (const std::size_t w : sizes) {
    const GemmShape shape{w, w, kDepth};
    double best_tflops = 0.0;
    int best_width = kWidths[0];
    for (auto& [width, est] : swizzled) {
      const double t = est.estimate(shape).tflops;
      if (t > best_tflops) {
        best_tflops = t;
        best_width = width;
      }
    }
    const double base_tflops = baseline.estimate(shape).tflops;
    const double speedup = best_tflops / base_tflops;
    sum_speedup += speedup;
    max_speedup = std::max(max_speedup, speedup);
    if (w == 12032) {
      speedup_at_cliff = speedup;
      width_at_cliff = best_width;
    }
    table.add_row({std::to_string(w), fmt_fixed(best_tflops, 2), std::to_string(best_width),
                   fmt_fixed(base_tflops, 2), fmt_fixed(speedup, 2)});
    if (json != nullptr) {
      json->row({static_cast<double>(w), best_tflops, static_cast<double>(best_width),
                 base_tflops, speedup});
    }
  }
  const double avg_speedup = sum_speedup / static_cast<double>(sizes.size());
  if (json != nullptr) {
    json->summary("speedup_at_12032", speedup_at_cliff);
    json->summary("best_width_at_12032", width_at_cliff);
    json->summary("max_speedup", max_speedup);
    json->summary("avg_speedup", avg_speedup);
  }

  std::cout << "== supertile vs rowmajor on " << spec.name << " ==\n";
  table.print(std::cout);
  std::cout << "at the cliff (W=12032): speedup " << fmt_fixed(speedup_at_cliff, 2)
            << "x with panel width " << static_cast<int>(width_at_cliff) << "; max "
            << fmt_fixed(max_speedup, 2) << "x; average " << fmt_fixed(avg_speedup, 2)
            << "x\n";
  return speedup_at_cliff > 1.0 ? 0 : 1;
}

}  // namespace
}  // namespace tc::bench

int main(int argc, char** argv) {
  const tc::Flags flags = tc::bench::parse_flags(
      argc, argv, {tc::bench::device_flag(), tc::bench::step_flag(2048)});
  const auto spec = tc::device::spec_by_name(flags.text("--device"));
  const std::size_t step = flags.number("--step");
  const std::string& json_path = flags.text("--json");
  std::optional<tc::bench::BenchJson> json;
  if (!json_path.empty()) json.emplace("fig8_swizzle", spec.name);
  std::cout << "Fig. 8 launch-order sweep: supertile dispatch holds the tensor-bound\n"
            << "plateau through the W=12032 cliff; row-major reproduces the drop.\n\n";
  const int rc = tc::bench::run(spec, step, json ? &*json : nullptr);
  if (json) json->write_file(json_path);
  return rc;
}
