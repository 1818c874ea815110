#include "op/op.hpp"

#include <algorithm>

#include "check/hazard.hpp"
#include "common/error.hpp"
#include "device/occupancy.hpp"
#include "mem/global_mem.hpp"
#include "sass/diag.hpp"
#include "sass/validator.hpp"
#include "sim/launch.hpp"
#include "sim/timed_device.hpp"

namespace tc::op {

namespace {

std::size_t ceil_div(std::size_t a, std::size_t b) { return (a + b - 1) / b; }

void check_op(const GemmOp& g) {
  TC_CHECK(g.shape.m >= 1 && g.shape.n >= 1 && g.shape.k >= 1, "GemmOp shape must be non-empty");
  TC_CHECK(g.batch.count >= 1, "GemmOp batch count must be >= 1");
  const auto check_stride = [&](std::size_t stride, std::size_t plane, const char* which) {
    TC_CHECK(stride == 0 || stride >= plane,
             std::string("GemmOp ") + which + " batch stride smaller than one plane");
  };
  check_stride(g.batch.stride_a, g.shape.m * g.shape.k, "A");
  check_stride(g.batch.stride_b, g.shape.n * g.shape.k, "B");
  check_stride(g.batch.stride_c, g.shape.m * g.shape.n, "C");
}

/// Hard gate shared by both execution entry points: no program of a lowered
/// plan reaches a simulator engine unvalidated or with hazard diagnostics.
void gate(const PlannedLaunch& launch) {
  sass::validate(launch.program);
  const auto diags = check::find_hazards(launch.program);
  TC_CHECK(diags.empty(), "GemmOp lowering produced a hazardous kernel: " +
                              launch.program.name + " — " + sass::format(diags.front()));
}

/// Whether the lowered kernels read the previous C (generation-time
/// condition: beta as a *half* immediate, matching the fused tail).
bool reloads_c(const EpilogueSpec& ep) { return half(ep.beta).to_float() != 0.0f; }

}  // namespace

OpPlan lower(const GemmOp& gemm, const core::HgemmConfig& cfg) {
  check_op(gemm);
  TC_CHECK(cfg.split_k == 1 || cfg.split_k == gemm.split_k,
           "tile config split_k must be 1 or match the op's split_k");

  OpPlan plan;
  plan.op = gemm;
  plan.cfg = cfg;
  plan.cfg.split_k = gemm.split_k;
  plan.cfg.check();
  plan.contract = plan.cfg.contract_shape(gemm.shape);
  plan.slice_k = plan.cfg.slice_k(plan.contract);
  plan.fused = gemm.epilogue.fusible() && gemm.split_k == 1;

  const auto batch = static_cast<std::uint32_t>(gemm.batch.count);
  const core::KernelVariant variant{.batched = gemm.batch.count > 1};
  const core::Epilogue main_ep = plan.fused ? gemm.epilogue.scalars() : core::Epilogue{};

  PlannedLaunch main;
  main.role = LaunchRole::kMain;
  main.program = core::hgemm_kernel(plan.cfg, plan.contract, main_ep, variant);
  main.grid_x = static_cast<std::uint32_t>(plan.contract.n / static_cast<std::size_t>(plan.cfg.bn));
  main.grid_y = static_cast<std::uint32_t>(plan.contract.m / static_cast<std::size_t>(plan.cfg.bm));
  main.grid_z = batch * static_cast<std::uint32_t>(gemm.split_k);
  plan.launches.push_back(std::move(main));

  if (!plan.fused) {
    plan.workspace_elems = static_cast<std::size_t>(batch) *
                           static_cast<std::size_t>(gemm.split_k) * plan.contract.m *
                           plan.contract.n;
    core::ReducePlan rp;
    rp.m = plan.contract.m;
    rp.n = plan.contract.n;
    rp.parts = gemm.split_k;
    rp.epilogue = gemm.epilogue.scalars();
    rp.bias = gemm.epilogue.bias;
    PlannedLaunch reduce;
    reduce.role = LaunchRole::kReduce;
    reduce.program = core::reduce_epilogue_kernel(rp);
    reduce.grid_x = static_cast<std::uint32_t>(ceil_div(plan.contract.n, 256));
    reduce.grid_y = static_cast<std::uint32_t>(plan.contract.m);
    reduce.grid_z = batch;
    plan.launches.push_back(std::move(reduce));
  }
  return plan;
}

void run_gemm_op(driver::Device& dev, const GemmOp& gemm, const OpInputs& in,
                 std::span<half> out, const core::HgemmConfig& cfg, const OpExec& exec) {
  const OpPlan plan = lower(gemm, cfg);
  for (const auto& launch : plan.launches) gate(launch);

  const std::size_t m = gemm.shape.m;
  const std::size_t n = gemm.shape.n;
  const std::size_t k = gemm.shape.k;
  const std::size_t mp = plan.contract.m;
  const std::size_t np = plan.contract.n;
  const std::size_t kp = plan.contract.k;
  const auto batch = static_cast<std::size_t>(gemm.batch.count);
  const std::size_t sa = gemm.batch.a_stride(gemm.shape);
  const std::size_t sb = gemm.batch.b_stride(gemm.shape);
  const std::size_t sc = gemm.batch.c_stride(gemm.shape);
  const bool reload = reloads_c(gemm.epilogue);

  TC_CHECK(in.a.size() >= (batch - 1) * sa + m * k, "GemmOp A span too small");
  TC_CHECK(in.bt.size() >= (batch - 1) * sb + n * k, "GemmOp B^T span too small");
  TC_CHECK(!reload || in.c_in.size() >= (batch - 1) * sc + m * n,
           "GemmOp C input span too small (beta != 0)");
  TC_CHECK(!gemm.epilogue.bias || in.bias.size() >= n, "GemmOp bias span too small");
  TC_CHECK(out.size() >= (batch - 1) * sc + m * n, "GemmOp output span too small");

  // Gather user batch planes into dense zero-padded contract planes. Device
  // buffers are allocated in the same A, B, C order as the classic
  // single-kernel path, so the trivial GemmOp is byte-identical to it.
  const auto gather = [](std::span<const half> src, std::size_t stride, std::size_t count,
                         std::size_t rows, std::size_t cols, std::size_t rows_to,
                         std::size_t cols_to) {
    std::vector<half> dst(count * rows_to * cols_to);
    for (std::size_t b = 0; b < count; ++b) {
      for (std::size_t r = 0; r < rows; ++r) {
        const half* s = &src[b * stride + r * cols];
        half* d = &dst[b * rows_to * cols_to + r * cols_to];
        std::copy(s, s + cols, d);
      }
    }
    return dst;
  };
  const std::vector<half> a_pad = gather(in.a, sa, batch, m, k, mp, kp);
  const std::vector<half> bt_pad = gather(in.bt, sb, batch, n, k, np, kp);

  auto da = dev.alloc<half>(a_pad.size());
  auto db = dev.alloc<half>(bt_pad.size());
  auto dc = dev.alloc<half>(batch * mp * np);
  dev.upload(da, std::span<const half>(a_pad));
  dev.upload(db, std::span<const half>(bt_pad));
  if (reload) {
    const std::vector<half> c_pad = gather(in.c_in, sc, batch, m, n, mp, np);
    dev.upload(dc, std::span<const half>(c_pad));
  }
  driver::DevPtr<half> dw;
  if (plan.workspace_elems > 0) dw = dev.alloc<half>(plan.workspace_elems);
  driver::DevPtr<half> dbias;
  if (gemm.epilogue.bias) {
    std::vector<half> bias_pad(np);
    std::copy(in.bias.begin(), in.bias.begin() + static_cast<std::ptrdiff_t>(n),
              bias_pad.begin());
    dbias = dev.alloc<half>(bias_pad.size());
    dev.upload(dbias, std::span<const half>(bias_pad));
  }

  if (exec.timing != nullptr) *exec.timing = {};
  for (const auto& planned : plan.launches) {
    sim::Launch launch;
    launch.program = &planned.program;
    launch.grid_x = planned.grid_x;
    launch.grid_y = planned.grid_y;
    launch.grid_z = planned.grid_z;
    launch.numerics = plan.cfg.numerics;
    launch.engine = plan.cfg.engine;
    if (planned.role == LaunchRole::kMain) {
      launch.params = {da.addr, db.addr, plan.fused ? dc.addr : dw.addr};
    } else {
      launch.params = {dw.addr, dc.addr};
      if (gemm.epilogue.bias) launch.params.push_back(dbias.addr);
    }
    if (exec.timed) {
      launch.launch_order = plan.cfg.launch_order;
      launch.supertile_width = plan.cfg.supertile_width;
      const device::Occupancy occ = device::occupancy(dev.spec(), planned.program);
      const sim::DeviceResult dr =
          dev.run_timed_device(launch, dev.timed_full_device(occ.ctas_per_sm));
      if (exec.timing != nullptr) {
        exec.timing->launch_cycles.push_back(dr.device_cycles);
        exec.timing->device_cycles += dr.device_cycles;
        if (planned.role == LaunchRole::kMain) {
          exec.timing->main_l2_hit_rate = dr.l2_hit_rate;
          exec.timing->main_sms_used = dr.sms_used;
        }
      }
    } else {
      dev.launch(launch);
    }
  }

  std::vector<half> c_full(batch * mp * np);
  dev.download(std::span<half>(c_full), dc);
  for (std::size_t b = 0; b < batch; ++b) {
    for (std::size_t r = 0; r < m; ++r) {
      const half* s = &c_full[b * mp * np + r * np];
      std::copy(s, s + n, &out[b * sc + r * n]);
    }
  }
}

std::vector<half> run_gemm_op(driver::Device& dev, const GemmOp& gemm, const OpInputs& in,
                              const core::HgemmConfig& cfg) {
  const auto batch = static_cast<std::size_t>(gemm.batch.count);
  std::vector<half> out((batch - 1) * gemm.batch.c_stride(gemm.shape) +
                        gemm.shape.m * gemm.shape.n);
  run_gemm_op(dev, gemm, in, std::span<half>(out), cfg);
  return out;
}

void gemm_op_ref(const GemmOp& gemm, const OpInputs& in, std::span<half> out,
                 const core::HgemmConfig& cfg, numerics::NumericsMode mode) {
  check_op(gemm);
  core::HgemmConfig c = cfg;
  c.split_k = gemm.split_k;
  c.check();
  const GemmShape contract = c.contract_shape(gemm.shape);
  const std::size_t slice = c.slice_k(contract);

  const std::size_t m = gemm.shape.m;
  const std::size_t n = gemm.shape.n;
  const std::size_t k = gemm.shape.k;
  const auto batch = static_cast<std::size_t>(gemm.batch.count);
  const std::size_t sa = gemm.batch.a_stride(gemm.shape);
  const std::size_t sb = gemm.batch.b_stride(gemm.shape);
  const std::size_t sc = gemm.batch.c_stride(gemm.shape);
  const bool reload = reloads_c(gemm.epilogue);
  TC_CHECK(in.a.size() >= (batch - 1) * sa + m * k, "GemmOp A span too small");
  TC_CHECK(in.bt.size() >= (batch - 1) * sb + n * k, "GemmOp B^T span too small");
  TC_CHECK(!reload || in.c_in.size() >= (batch - 1) * sc + m * n,
           "GemmOp C input span too small (beta != 0)");
  TC_CHECK(!gemm.epilogue.bias || in.bias.size() >= n, "GemmOp bias span too small");
  TC_CHECK(out.size() >= (batch - 1) * sc + m * n, "GemmOp output span too small");

  const EpilogueSpec& ep = gemm.epilogue;
  const half ah(ep.alpha);
  const half bh(ep.beta);

  for (std::size_t b = 0; b < batch; ++b) {
    for (std::size_t i = 0; i < m; ++i) {
      for (std::size_t j = 0; j < n; ++j) {
        // Split-K partials: each slice accumulates from zero in k-chunks of
        // 8 (one HMMA.1688.F16 step), then the partials fold in slice order
        // with HADD2 — exactly what the workspace + reduction kernel do.
        half acc(0.0f);
        for (int s = 0; s < gemm.split_k; ++s) {
          half part(0.0f);
          for (std::size_t l0 = static_cast<std::size_t>(s) * slice;
               l0 < static_cast<std::size_t>(s + 1) * slice; l0 += 8) {
            half av[8];
            half bv[8];
            for (std::size_t t = 0; t < 8; ++t) {
              const std::size_t l = l0 + t;
              av[t] = l < k ? in.a[b * sa + i * k + l] : half(0.0f);
              bv[t] = l < k ? in.bt[b * sb + j * k + l] : half(0.0f);
            }
            part = numerics::dot_f16(mode, part, av, bv);
          }
          acc = s == 0 ? part : acc + part;  // HADD2 fold
        }

        // Epilogue with the kernels' exact rounding sequence (fused tail and
        // reduction kernel are identical here): round(beta * Cold) via
        // HMUL2, round(alpha * acc + that) via HFMA2, bias via HADD2, then
        // the activation op.
        if (!ep.is_default()) {
          half scaled(0.0f);
          if (reload) scaled = bh * in.c_in[b * sc + i * n + j];
          acc = fma_round_half(ah, acc, scaled);
          if (ep.bias) acc = acc + in.bias[j];
          if (ep.act == Activation::kRelu) acc = max_half(acc, half::from_bits(0));
          if (ep.act == Activation::kGelu) acc = gelu_half(acc);
        }
        out[b * sc + i * n + j] = acc;
      }
    }
  }
}

std::vector<half> gemm_op_ref(const GemmOp& gemm, const OpInputs& in,
                              const core::HgemmConfig& cfg, numerics::NumericsMode mode) {
  const auto batch = static_cast<std::size_t>(gemm.batch.count);
  std::vector<half> out((batch - 1) * gemm.batch.c_stride(gemm.shape) +
                        gemm.shape.m * gemm.shape.n);
  gemm_op_ref(gemm, in, std::span<half>(out), cfg, mode);
  return out;
}

OpTiming time_gemm_op(const device::DeviceSpec& spec, const OpPlan& plan,
                      const TimedOpOptions& opts) {
  OpTiming t;
  const auto batch = static_cast<std::size_t>(plan.op.batch.count);
  const std::size_t mp = plan.contract.m;
  const std::size_t np = plan.contract.n;
  const std::size_t kp = plan.contract.k;

  mem::GlobalMemory gmem;
  const auto a_addr = gmem.alloc(batch * mp * kp * 2);
  const auto b_addr = gmem.alloc(batch * np * kp * 2);
  const auto c_addr = gmem.alloc(batch * mp * np * 2);
  const std::uint32_t w_addr =
      plan.workspace_elems > 0 ? gmem.alloc(plan.workspace_elems * 2) : c_addr;
  const std::uint32_t bias_addr = plan.op.epilogue.bias ? gmem.alloc(np * 2) : c_addr;

  for (const auto& planned : plan.launches) {
    gate(planned);
    const device::Occupancy occ = device::occupancy(spec, planned.program);

    sim::Launch launch;
    launch.program = &planned.program;
    launch.grid_x = planned.grid_x;
    launch.grid_y = planned.grid_y;
    launch.grid_z = planned.grid_z;
    launch.launch_order = plan.cfg.launch_order;
    launch.supertile_width = plan.cfg.supertile_width;
    launch.numerics = plan.cfg.numerics;
    launch.engine = plan.cfg.engine;
    if (planned.role == LaunchRole::kMain) {
      launch.params = {a_addr, b_addr, plan.fused ? c_addr : w_addr};
    } else {
      launch.params = {w_addr, c_addr};
      if (plan.op.epilogue.bias) launch.params.push_back(bias_addr);
    }

    sim::TimedDeviceConfig dc;
    dc.spec = spec;
    dc.ctas_per_sm = occ.ctas_per_sm;
    dc.skip_mma_math = true;
    dc.forced_l2_hit_rate =
        planned.role == LaunchRole::kMain ? opts.forced_l2_hit_rate : -1.0;
    sim::TimedDevice dev(dc, gmem);
    const sim::DeviceResult dr = dev.run(launch);

    t.launch_cycles.push_back(dr.device_cycles);
    t.device_cycles += dr.device_cycles;
    if (planned.role == LaunchRole::kMain) {
      t.main_l2_hit_rate = dr.l2_hit_rate;
      t.main_sms_used = dr.sms_used;
    }
  }
  return t;
}

}  // namespace tc::op
