#include "model/validate.hpp"

#include <algorithm>
#include <cmath>
#include <sstream>
#include <vector>

#include "common/error.hpp"
#include "mem/global_mem.hpp"
#include "model/stack_distance.hpp"
#include "sim/launch.hpp"
#include "sim/timed_device.hpp"
#include "sim/timed_sm.hpp"

namespace tc::model {

namespace {

/// One single-SM steady-state surrogate run: `ctas_per_sm` resident CTAs,
/// k = iterations * bk, fair bandwidth share, model-forced L2 hit rate.
/// This mirrors core::run_steady_surrogate but is generic over the kernel
/// generator (tc_model cannot depend on tc_core).
/// The resident CTAs stack along grid_x (one row), matching TimedDevice's
/// depth-first dispenser (each SM takes its resident CTAs consecutively from
/// the x-major source): co-residents are row neighbours sharing the A slab.
/// Stacking them along grid_y instead would let the L1 deduplicate their
/// (identical) B columns — halving the surrogate's DRAM traffic for
/// smem-less kernels like wmma_naive and skewing the steady state fast.
prof::CounterSet run_surrogate(const device::DeviceSpec& spec, const ValidateKernelInput& kin,
                               int iterations, double l2_hit_rate, double dram_efficiency) {
  const GemmShape s{
      static_cast<std::size_t>(kin.bm),
      static_cast<std::size_t>(kin.bn) * static_cast<std::size_t>(kin.ctas_per_sm),
      static_cast<std::size_t>(kin.bk) * static_cast<std::size_t>(iterations)};
  const sass::Program prog = kin.make_kernel(s);

  sim::TimedConfig tc;
  tc.spec = spec;
  tc.dram_bytes_per_cycle = spec.dram_bytes_per_cycle_per_sm() * dram_efficiency;
  tc.l2_bytes_per_cycle = spec.l2_bytes_per_cycle_per_sm();
  tc.forced_l2_hit_rate = l2_hit_rate;
  tc.skip_mma_math = true;

  mem::GlobalMemory gmem;
  sim::Launch launch;
  launch.program = &prog;
  launch.grid_x = static_cast<std::uint32_t>(kin.ctas_per_sm);
  launch.grid_y = 1;
  const auto a_addr = gmem.alloc(s.m * s.k * 2);
  const auto b_addr = gmem.alloc(s.n * s.k * 2);
  const auto c_addr = gmem.alloc(s.m * s.n * 2);
  launch.params = {a_addr, b_addr, c_addr};

  std::vector<sim::CtaCoord> ctas;
  for (int i = 0; i < kin.ctas_per_sm; ++i) {
    ctas.push_back({static_cast<std::uint32_t>(i), 0});
  }
  sim::TimedSm sm(tc, gmem);
  return sm.run(launch, ctas);
}

}  // namespace

WaveValidation validate_wave(const device::DeviceSpec& spec, const ValidateKernelInput& kin,
                             const GemmShape& shape) {
  TC_CHECK(kin.make_kernel != nullptr, "validate_wave needs a kernel generator");
  TC_CHECK(shape.m % static_cast<std::size_t>(kin.bm) == 0 &&
               shape.n % static_cast<std::size_t>(kin.bn) == 0 &&
               shape.k % static_cast<std::size_t>(kin.bk) == 0,
           "shape must tile evenly for cross-validation");

  WaveValidation v;
  const auto grid_x = shape.n / static_cast<std::size_t>(kin.bn);
  const auto grid_y = shape.m / static_cast<std::size_t>(kin.bm);
  const double iters = std::ceil(static_cast<double>(shape.k) / kin.bk);
  const int partitions = spec.processing_blocks_per_sm;

  // --- model side: the PerfEstimator pipeline ------------------------------
  L2ReuseInput reuse_in;
  reuse_in.bm = kin.bm;
  reuse_in.bn = kin.bn;
  reuse_in.bk = kin.bk;
  reuse_in.grid_x = grid_x;
  reuse_in.grid_y = grid_y;
  reuse_in.wave_ctas = spec.num_sms * kin.ctas_per_sm;
  reuse_in.order = kin.order;
  reuse_in.swizzle_max_grid_x = kin.swizzle_max_grid_x;
  reuse_in.supertile_width = kin.supertile_width;
  reuse_in.k_iters = iters;
  reuse_in.l2_capacity = spec.l2_size_bytes;
  // The closed form stays the pinning operating point (the wmma tolerance
  // bands were calibrated against it); the trace-derived sampler prediction
  // rides along for the l2_xval comparison against the emergent rate.
  const L2Reuse reuse = l2_reuse(reuse_in);
  v.model_l2_hit_rate = reuse.ldg_l2_hit_rate;
  v.sampler_l2_hit_rate = sample_l2_reuse(reuse_in).ldg_l2_hit_rate;
  v.dram_efficiency = dram_row_efficiency(static_cast<double>(shape.k) * 2.0);

  const int it1 = 6;
  const int it2 = 14;
  const auto s1 = run_surrogate(spec, kin, it1, v.model_l2_hit_rate, v.dram_efficiency);
  const auto s2 = run_surrogate(spec, kin, it2, v.model_l2_hit_rate, v.dram_efficiency);
  v.steady.cycles_per_iter =
      std::max((static_cast<double>(s2.cycles) - static_cast<double>(s1.cycles)) / (it2 - it1),
               1.0);
  v.steady.overhead_cycles =
      std::max(static_cast<double>(s1.cycles) - v.steady.cycles_per_iter * it1, 0.0);
  v.model_tensor_util = static_cast<double>(s2.tensor_busy) /
                        (static_cast<double>(s2.cycles) * partitions);

  WaveInput wi;
  wi.spec = spec;
  wi.shape = shape;
  wi.bm = kin.bm;
  wi.bn = kin.bn;
  wi.bk = kin.bk;
  wi.ctas_per_sm = kin.ctas_per_sm;
  wi.steady = v.steady;
  v.wave = compose(wi);
  v.model_cycles = v.wave.kernel_cycles;
  // Model-predicted DRAM traffic: l2_reuse's per-wave-iteration A+B bytes
  // over all waves and iterations, plus the C writeback.
  v.model_dram_bytes = reuse.dram_bytes_per_wave_iter * iters * v.wave.waves +
                       static_cast<double>(shape.m) * static_cast<double>(shape.n) * 2.0;

  // --- device side: full multi-SM simulation -------------------------------
  const sass::Program prog = kin.make_kernel(shape);
  mem::GlobalMemory gmem;
  sim::Launch launch;
  launch.program = &prog;
  launch.grid_x = static_cast<std::uint32_t>(grid_x);
  launch.grid_y = static_cast<std::uint32_t>(grid_y);
  launch.launch_order = kin.order;
  launch.supertile_width = kin.supertile_width;
  const auto a_addr = gmem.alloc(shape.m * shape.k * 2);
  const auto b_addr = gmem.alloc(shape.n * shape.k * 2);
  const auto c_addr = gmem.alloc(shape.m * shape.n * 2);
  launch.params = {a_addr, b_addr, c_addr};

  sim::TimedDeviceConfig dc;
  dc.spec = spec;
  dc.ctas_per_sm = kin.ctas_per_sm;
  dc.skip_mma_math = true;
  if (kin.pin_l2_hit_rate) dc.forced_l2_hit_rate = v.model_l2_hit_rate;
  sim::TimedDevice dev(dc, gmem);
  const sim::DeviceResult dr = dev.run(launch);

  v.device_cycles = dr.device_cycles;
  v.device_l2_hit_rate = dr.l2_hit_rate;
  v.device_dram_bytes = dr.total.dram_bytes;
  v.sms_used = dr.sms_used;
  v.device_tensor_util =
      static_cast<double>(dr.total.tensor_busy) /
      (static_cast<double>(dr.device_cycles) * dr.sms_used * partitions);
  std::uint64_t min_cycles = dr.device_cycles;
  for (const auto& s : dr.per_sm) min_cycles = std::min(min_cycles, s.cycles);
  v.tail_imbalance =
      dr.device_cycles == 0
          ? 0.0
          : 1.0 - static_cast<double>(min_cycles) / static_cast<double>(dr.device_cycles);

  v.rel_error = (static_cast<double>(v.device_cycles) - v.model_cycles) /
                static_cast<double>(v.device_cycles);
  return v;
}

std::string WaveValidation::report() const {
  std::ostringstream os;
  os.precision(4);
  os << "wave-model cross-validation: model=" << model_cycles
     << " cy, device=" << device_cycles << " cy, rel_error=" << rel_error * 100.0 << "%\n";
  os << "  component         model        device\n";
  os << "  waves             " << wave.waves << "         tail_imbalance=" << tail_imbalance * 100.0
     << "%\n";
  os << "  l2_hit_rate       " << model_l2_hit_rate << "       " << device_l2_hit_rate
     << " (sampler=" << sampler_l2_hit_rate << ")\n";
  os << "  dram_bytes        " << model_dram_bytes << "    " << device_dram_bytes << "\n";
  os << "  tensor_util       " << model_tensor_util << "       " << device_tensor_util << "\n";
  os << "  steady: cycles_per_iter=" << steady.cycles_per_iter
     << " overhead=" << steady.overhead_cycles << " (dram_eff=" << dram_efficiency
     << ", sms_used=" << sms_used << ")\n";
  return os.str();
}

}  // namespace tc::model
