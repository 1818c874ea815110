// One small launch of every kernel_gen kernel, for the tests that run the
// timed engine over all of them (test_scheduling.cpp, test_prof.cpp).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "core/kernel_gen.hpp"
#include "mem/global_mem.hpp"
#include "sim/launch.hpp"

namespace tc::testsupport {

/// One small launch of a kernel_gen kernel. `resident` CTA slots serve the
/// grid; when they are fewer than its CTAs, retired slots are refilled.
struct SmCase {
  std::string name;
  sass::Program prog;
  std::uint32_t grid_x = 1;
  std::uint32_t grid_y = 1;
  std::uint32_t grid_z = 1;
  int resident = 1;
  std::vector<std::size_t> param_bytes;  // one buffer per kernel parameter
};

/// optimized, cublas_like, the scaled+ReLU epilogue, split-K 2,
/// reduce_epilogue (with slot refill) and wmma_naive.
inline std::vector<SmCase> kernel_gen_cases() {
  const auto opt = core::HgemmConfig::optimized();
  const auto cub = core::HgemmConfig::cublas_like();
  auto split = core::HgemmConfig::optimized();
  split.split_k = 2;
  const GemmShape tile{256, 256, 64};
  const std::size_t tile_ab = tile.m * tile.k * 2;
  const std::size_t tile_c = tile.m * tile.n * 2;
  core::Epilogue scaled;
  scaled.alpha = 0.5f;
  scaled.beta = 1.0f;
  scaled.act = core::Activation::kRelu;
  core::ReducePlan reduce;
  reduce.m = 8;
  reduce.n = 256;
  reduce.parts = 2;
  reduce.epilogue = scaled;
  reduce.bias = true;
  const GemmShape wmma{32, 128, 32};

  std::vector<SmCase> cases;
  cases.push_back({"optimized", core::hgemm_kernel(opt, tile), 1, 1, 1, 1,
                   {tile_ab, tile_ab, tile_c}});
  cases.push_back({"cublas_like", core::hgemm_kernel(cub, {256, 128, 128}), 1, 2, 1, 2,
                   {256 * 128 * 2, 128 * 128 * 2, 256 * 128 * 2}});
  cases.push_back({"optimized_epilogue", core::hgemm_kernel(opt, tile, scaled), 1, 1, 1, 1,
                   {tile_ab, tile_ab, tile_c}});
  cases.push_back({"split_k2", core::hgemm_kernel(split, {256, 256, 128}), 1, 1, 2, 1,
                   {tile_ab * 2, tile_ab * 2, tile_c * 2}});
  cases.push_back({"reduce_epilogue", core::reduce_epilogue_kernel(reduce), 1, 8, 1, 3,
                   {2 * 8 * 256 * 2, 8 * 256 * 2, 256 * 2}});
  cases.push_back({"wmma_naive", core::wmma_naive_kernel(wmma), 1, 2, 1, 2,
                   {wmma.m * wmma.k * 2, wmma.n * wmma.k * 2, wmma.m * wmma.n * 2}});
  return cases;
}

/// The launch of `c`, its parameter buffers allocated in `gmem` and filled
/// with seeded halves in [-0.5, 0.5).
inline sim::Launch make_launch(const SmCase& c, mem::GlobalMemory& gmem) {
  sim::Launch launch;
  launch.program = &c.prog;
  launch.grid_x = c.grid_x;
  launch.grid_y = c.grid_y;
  launch.grid_z = c.grid_z;
  Rng rng(11);
  for (const std::size_t bytes : c.param_bytes) {
    std::vector<std::uint8_t> data(bytes);
    for (std::size_t i = 0; i + 1 < bytes; i += 2) {
      const std::uint16_t bits = rng.next_half(-0.5f, 0.5f).bits();
      data[i] = static_cast<std::uint8_t>(bits & 0xFF);
      data[i + 1] = static_cast<std::uint8_t>(bits >> 8);
    }
    launch.params.push_back(gmem.alloc(bytes));
    gmem.write(launch.params.back(), data);
  }
  return launch;
}

}  // namespace tc::testsupport
