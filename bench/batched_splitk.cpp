// GemmOp lowering payoff on the two shapes the single-kernel pipeline
// served badly: skinny-grid deep-K contractions and many small GEMMs.
//
//  * split_k_skinny: a {256, 256, 4096} contraction fills exactly one
//    256x256 output tile, so the classic launch puts a single CTA on one SM
//    and streams the whole k axis serially. Splitting k across CTAs trades
//    a cheap reduction pass (plus one extra launch) for a grid that finally
//    spans the machine; the sweep shows total cycles (reduction and launch
//    overhead included) dropping as split_k grows until the per-slice
//    mainloop is too short to hide its own prologue.
//  * batched_amortization: B small GEMMs as one z-batched launch versus a
//    loop of B single launches. One plan pays the launch overhead once and
//    gives the scheduler B CTAs to spread over SMs; the loop pays overhead
//    per plane and leaves all but one SM idle every time.
//
// Both series come straight from op::lower + op::time_gemm_op — the same
// path the tuner and the serving layer cost, so the golden fixtures pin the
// op layer's end-to-end cycle accounting per device spec.
//
// Usage: batched_splitk [--device rtx2070|t4] [--json path]
#include <cstdint>
#include <iostream>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "common/table.hpp"
#include "device/spec.hpp"
#include "op/op.hpp"

namespace tc::bench {
namespace {

/// The skinny-K operating point: one output tile under the optimized
/// 256x256x32 blocking, 128 slab iterations deep.
constexpr GemmShape kSkinny{256, 256, 4096};

/// The batched operating point: one tile per plane, shallow enough that
/// launch overhead is a visible fraction of a single plane's runtime.
constexpr GemmShape kPlane{256, 256, 512};

op::OpTiming time_op(const device::DeviceSpec& spec, const op::GemmOp& gemm) {
  const op::OpPlan plan = op::lower(gemm, core::HgemmConfig::optimized());
  return op::time_gemm_op(spec, plan);
}

int run_split_k(const device::DeviceSpec& spec, BenchJson* json) {
  TablePrinter table({"split_k", "launches", "main_cycles", "reduce_cycles", "total", "speedup"});
  if (json != nullptr) {
    json->begin_series("split_k_skinny", {"split_k", "launches", "main_cycles", "reduce_cycles",
                                          "total_cycles", "speedup_vs_sk1"});
  }
  std::uint64_t sk1_total = 0;
  std::uint64_t best_total = 0;
  int best_split_k = 1;
  for (const int sk : {1, 2, 4, 8, 16, 32}) {
    op::GemmOp gemm;
    gemm.shape = kSkinny;
    gemm.split_k = sk;
    const op::OpTiming t = time_op(spec, gemm);
    // Every launch is charged its overhead: this is the user-visible cost
    // of the plan, and split-K must win *despite* the extra launch.
    const std::uint64_t total = t.total_with_overhead(spec.launch_overhead_cycles);
    const std::uint64_t reduce = t.launch_cycles.size() > 1 ? t.launch_cycles[1] : 0;
    if (sk == 1) sk1_total = total;
    if (best_total == 0 || total < best_total) {
      best_total = total;
      best_split_k = sk;
    }
    const double speedup = static_cast<double>(sk1_total) / static_cast<double>(total);
    table.add_row({std::to_string(sk), std::to_string(t.launch_cycles.size()),
                   std::to_string(t.launch_cycles[0]), std::to_string(reduce),
                   std::to_string(total), fmt_fixed(speedup, 2)});
    if (json != nullptr) {
      json->row({static_cast<double>(sk), static_cast<double>(t.launch_cycles.size()),
                 static_cast<double>(t.launch_cycles[0]), static_cast<double>(reduce),
                 static_cast<double>(total), speedup});
    }
  }
  const double best_speedup = static_cast<double>(sk1_total) / static_cast<double>(best_total);
  if (json != nullptr) {
    json->summary("best_split_k", best_split_k);
    json->summary("best_speedup", best_speedup);
    json->summary("sk1_total_cycles", static_cast<double>(sk1_total));
  }
  std::cout << "== split-K on " << kSkinny.m << "x" << kSkinny.n << "x" << kSkinny.k << " ("
            << spec.name << ") ==\n";
  table.print(std::cout);
  std::cout << "best: split_k=" << best_split_k << " at " << fmt_fixed(best_speedup, 2)
            << "x over the single-kernel launch\n\n";
  return best_speedup > 1.0 && best_split_k > 1 ? 0 : 1;
}

int run_batched(const device::DeviceSpec& spec, BenchJson* json) {
  TablePrinter table({"batch", "loop_cycles", "batched_cycles", "speedup"});
  if (json != nullptr) {
    json->begin_series("batched_amortization",
                       {"batch", "loop_cycles", "batched_cycles", "speedup"});
  }
  op::GemmOp single;
  single.shape = kPlane;
  const std::uint64_t single_total =
      time_op(spec, single).total_with_overhead(spec.launch_overhead_cycles);
  double speedup_at_max = 0.0;
  int max_batch = 1;
  for (const int b : {1, 2, 4, 8, 16, 32}) {
    op::GemmOp gemm;
    gemm.shape = kPlane;
    gemm.batch.count = b;
    const std::uint64_t batched =
        time_op(spec, gemm).total_with_overhead(spec.launch_overhead_cycles);
    const std::uint64_t loop = single_total * static_cast<std::uint64_t>(b);
    const double speedup = static_cast<double>(loop) / static_cast<double>(batched);
    speedup_at_max = speedup;
    max_batch = b;
    table.add_row({std::to_string(b), std::to_string(loop), std::to_string(batched),
                   fmt_fixed(speedup, 2)});
    if (json != nullptr) {
      json->row({static_cast<double>(b), static_cast<double>(loop),
                 static_cast<double>(batched), speedup});
    }
  }
  if (json != nullptr) {
    json->summary("speedup_at_batch_32", speedup_at_max);
    json->summary("launch_overhead_cycles", static_cast<double>(spec.launch_overhead_cycles));
  }
  std::cout << "== batched vs loop-of-singles on " << kPlane.m << "x" << kPlane.n << "x"
            << kPlane.k << " (" << spec.name << ") ==\n";
  table.print(std::cout);
  std::cout << "one z-batched launch at batch=" << max_batch << ": " << fmt_fixed(speedup_at_max, 2)
            << "x over " << max_batch << " single launches\n";
  return speedup_at_max > 1.0 ? 0 : 1;
}

}  // namespace
}  // namespace tc::bench

int main(int argc, char** argv) {
  const tc::Flags flags = tc::bench::parse_flags(argc, argv, {tc::bench::device_flag()});
  const auto spec = tc::device::spec_by_name(flags.text("--device"));
  const std::string& json_path = flags.text("--json");
  std::optional<tc::bench::BenchJson> json;
  if (!json_path.empty()) json.emplace("batched_splitk", spec.name);
  std::cout << "GemmOp lowering payoff: split-K fills the machine on skinny-grid\n"
            << "deep-K shapes; one z-batched launch amortizes launch overhead that a\n"
            << "loop of single-plane launches pays " << spec.launch_overhead_cycles
            << " cycles at a time.\n\n";
  int rc = tc::bench::run_split_k(spec, json ? &*json : nullptr);
  rc |= tc::bench::run_batched(spec, json ? &*json : nullptr);
  if (json) json->write_file(json_path);
  return rc;
}
