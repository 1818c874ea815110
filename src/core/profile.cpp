#include "core/profile.hpp"

#include <algorithm>
#include <cmath>

#include "core/kernel_gen.hpp"
#include "device/occupancy.hpp"
#include "model/l2_reuse.hpp"
#include "prof/counters.hpp"

namespace tc::core {

int surrogate_ctas_per_sm(const device::DeviceSpec& spec, const HgemmConfig& cfg) {
  const GemmShape probe{static_cast<std::size_t>(cfg.bm), static_cast<std::size_t>(cfg.bn),
                        static_cast<std::size_t>(2 * cfg.bk)};
  const sass::Program prog = hgemm_kernel(cfg, probe);
  return device::occupancy(spec, prog).ctas_per_sm;
}

prof::CounterSet run_steady_surrogate(const device::DeviceSpec& spec, const HgemmConfig& cfg,
                                      int ctas_per_sm, const SurrogateOptions& opt) {
  // The surrogate grid is ctas_per_sm x 1 blocks tall so every resident CTA
  // exists; k = iterations * bk sets the main-loop trip count.
  const GemmShape s{static_cast<std::size_t>(cfg.bm) * static_cast<std::size_t>(ctas_per_sm),
                    static_cast<std::size_t>(cfg.bn),
                    static_cast<std::size_t>(cfg.bk) * static_cast<std::size_t>(opt.iterations)};
  const sass::Program prog = hgemm_kernel(cfg, s);

  sim::TimedConfig tc;
  tc.spec = spec;
  tc.dram_bytes_per_cycle = spec.dram_bytes_per_cycle_per_sm() * opt.dram_efficiency;
  tc.l2_bytes_per_cycle = spec.l2_bytes_per_cycle_per_sm();
  tc.forced_l2_hit_rate = opt.l2_hit_rate;
  tc.skip_mma_math = true;
  tc.profiler = opt.profiler;

  mem::GlobalMemory gmem;
  // Reserve the address range the surrogate touches; contents irrelevant.
  sim::Launch launch;
  launch.program = &prog;
  launch.grid_x = 1;
  launch.grid_y = static_cast<std::uint32_t>(ctas_per_sm);
  const auto a_addr = gmem.alloc(s.m * s.k * 2);
  const auto b_addr = gmem.alloc(s.n * s.k * 2);
  const auto c_addr = gmem.alloc(s.m * s.n * 2);
  launch.params = {a_addr, b_addr, c_addr};

  std::vector<sim::CtaCoord> ctas;
  for (int i = 0; i < ctas_per_sm; ++i) {
    ctas.push_back({0, static_cast<std::uint32_t>(i)});
  }
  sim::TimedSm sm(tc, gmem);
  return sm.run(launch, ctas);
}

HgemmProfile profile_hgemm(const device::DeviceSpec& spec, const HgemmConfig& cfg,
                           const GemmShape& shape, prof::TraceWriter* trace) {
  HgemmProfile out;
  out.ctas_per_sm = surrogate_ctas_per_sm(spec, cfg);

  // The same model inputs PerfEstimator::estimate feeds the timed run.
  const auto grid_x =
      (shape.n + static_cast<std::size_t>(cfg.bn) - 1) / static_cast<std::size_t>(cfg.bn);
  const auto grid_y =
      (shape.m + static_cast<std::size_t>(cfg.bm) - 1) / static_cast<std::size_t>(cfg.bm);
  model::L2ReuseInput reuse_in;
  reuse_in.bm = cfg.bm;
  reuse_in.bn = cfg.bn;
  reuse_in.bk = cfg.bk;
  reuse_in.grid_x = grid_x;
  reuse_in.grid_y = grid_y;
  reuse_in.wave_ctas = spec.num_sms * out.ctas_per_sm;
  reuse_in.order = cfg.launch_order;
  reuse_in.swizzle_max_grid_x = cfg.swizzle_max_grid_x;
  reuse_in.supertile_width = cfg.supertile_width;
  reuse_in.k_iters = std::ceil(static_cast<double>(shape.k) / cfg.bk);
  reuse_in.l2_capacity = spec.l2_size_bytes;
  out.l2_hit_rate = model::l2_reuse_predict(reuse_in).ldg_l2_hit_rate;
  out.dram_efficiency = model::dram_row_efficiency(static_cast<double>(shape.k) * 2.0);

  // Enough iterations to dominate prologue/epilogue, capped so huge k stays
  // cheap (the main loop is periodic; 48 iterations characterize it fully).
  const auto k_iters = static_cast<int>(shape.k / static_cast<std::size_t>(cfg.bk));
  out.iterations = std::clamp(k_iters, 2, 48);

  out.profiler.attach_trace(trace);
  SurrogateOptions opt;
  opt.iterations = out.iterations;
  opt.l2_hit_rate = out.l2_hit_rate;
  opt.dram_efficiency = out.dram_efficiency;
  opt.profiler = &out.profiler;
  out.counters = run_steady_surrogate(spec, cfg, out.ctas_per_sm, opt);
  return out;
}

ObservedPipeCycles observe_pipe_cycles(const device::DeviceSpec& spec, const HgemmConfig& cfg) {
  ObservedPipeCycles out;
  out.ctas_per_sm = surrogate_ctas_per_sm(spec, cfg);

  // Table VI's CPI inputs assume LDGs served from L2 at full DRAM health.
  const int it1 = 6;
  const int it2 = 14;
  SurrogateOptions opt;
  opt.l2_hit_rate = 1.0;
  opt.dram_efficiency = 1.0;
  opt.iterations = it1;
  const prof::CounterSet c1 = run_steady_surrogate(spec, cfg, out.ctas_per_sm, opt);
  opt.iterations = it2;
  const prof::CounterSet c2 = run_steady_surrogate(spec, cfg, out.ctas_per_sm, opt);

  const double cta_iters = static_cast<double>(it2 - it1) * out.ctas_per_sm;
  const int partitions = spec.processing_blocks_per_sm;

  const auto d_tensor = static_cast<double>(c2.tensor_busy - c1.tensor_busy);
  const auto d_mio = static_cast<double>(c2.mio_busy - c1.mio_busy);
  const double d_port = c2.l2_port_busy_cycles - c1.l2_port_busy_cycles;

  out.tensor_cycles = d_tensor / (cta_iters * partitions);
  out.memio_cycles = (d_mio + d_port) / cta_iters;
  // Utilizations from the same run-to-run deltas, so the prologue/drain
  // cycles (where both pipes idle) don't dilute the steady-state picture.
  const auto d_cycles = static_cast<double>(c2.cycles - c1.cycles);
  out.tensor_util = d_tensor / (d_cycles * partitions);
  out.mio_util = (d_mio + d_port) / d_cycles;
  return out;
}

}  // namespace tc::core
