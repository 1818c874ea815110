#include "sim/functional.hpp"

#include <atomic>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/error.hpp"
#include "jit/jit.hpp"
#include "mem/banked_smem.hpp"
#include "sim/exec_core.hpp"
#include "sim/probe.hpp"

namespace tc::sim {

namespace {

struct WarpRun {
  std::unique_ptr<WarpRegs> regs = std::make_unique<WarpRegs>();
  std::int32_t pc = 0;
  bool exited = false;
  bool at_barrier = false;
  std::uint64_t executed = 0;  // lifetime instruction count (budget + stats)
};

/// Runs one CTA to completion; returns (instructions, hmma_count).
std::pair<std::uint64_t, std::uint64_t> run_cta(mem::GlobalMemory& gmem, const Launch& launch,
                                                std::uint32_t cta_x, std::uint32_t cta_y,
                                                std::uint32_t cta_z,
                                                std::uint64_t max_warp_instructions,
                                                StateProbe* probe) {
  const sass::Program& prog = *launch.program;
  const int num_warps = static_cast<int>(launch.warps_per_cta());
  mem::SharedMemory smem(prog.smem_bytes);

  std::vector<WarpRun> warps(static_cast<std::size_t>(num_warps));
  std::uint64_t instructions = 0;
  std::uint64_t hmma = 0;

  auto alive = [&] {
    int n = 0;
    for (const auto& w : warps) n += w.exited ? 0 : 1;
    return n;
  };

  while (alive() > 0) {
    int arrived = 0;
    // Advance each non-exited warp until it blocks at a barrier or exits.
    for (int wi = 0; wi < num_warps; ++wi) {
      WarpRun& w = warps[static_cast<std::size_t>(wi)];
      if (w.exited || w.at_barrier) {
        arrived += w.at_barrier ? 1 : 0;
        continue;
      }
      ExecContext ctx;
      ctx.regs = w.regs.get();
      ctx.smem = &smem;
      ctx.gmem = &gmem;
      ctx.launch = &launch;
      ctx.cta_x = cta_x;
      ctx.cta_y = cta_y;
      ctx.cta_z = cta_z;
      ctx.warp_in_cta = wi;
      ImmediateSink sink(*w.regs);

      while (true) {
        // Lifetime budget per warp: `executed` is never reset, so a runaway
        // loop is caught even when its body contains a BAR.SYNC (where the
        // warp repeatedly leaves and re-enters this inner stretch).
        TC_CHECK(w.executed < max_warp_instructions,
                 "warp exceeded instruction budget (runaway loop?) in kernel '" + prog.name +
                     "'");
        const auto& inst = prog.code[static_cast<std::size_t>(w.pc)];
        ctx.clock = w.executed;  // functional clock: instruction count
        const StepResult r = exec_step(ctx, inst, sink);
        ++w.executed;
        if (sass::is_mma(inst.op)) ++hmma;
        switch (r.kind) {
          case StepKind::kNext:
            ++w.pc;
            continue;
          case StepKind::kBranch:
            w.pc = r.branch_target;
            continue;
          case StepKind::kBarrier:
            ++w.pc;
            w.at_barrier = true;
            break;
          case StepKind::kExit:
            w.exited = true;
            break;
        }
        break;
      }
      if (w.at_barrier) ++arrived;
    }

    // Release the barrier once every live warp has arrived.
    if (arrived > 0) {
      TC_CHECK(arrived == alive(), "deadlock: some warps exited while others wait at BAR.SYNC");
      for (auto& w : warps) w.at_barrier = false;
    }
  }
  for (const auto& w : warps) instructions += w.executed;
  if (probe != nullptr) {
    for (int wi = 0; wi < num_warps; ++wi) {
      probe->capture(*warps[static_cast<std::size_t>(wi)].regs, cta_x, cta_y, cta_z, wi);
    }
  }
  return {instructions, hmma};
}

}  // namespace

FunctionalExecutor::FunctionalExecutor(mem::GlobalMemory& gmem, int host_threads)
    : gmem_(gmem),
      host_threads_(host_threads > 0
                        ? host_threads
                        : static_cast<int>(std::thread::hardware_concurrency())) {}

FunctionalStats FunctionalExecutor::run(const Launch& launch,
                                        std::uint64_t max_warp_instructions) {
  TC_CHECK(launch.program != nullptr, "launch without a program");
  TC_CHECK(launch.program->num_param_words <= launch.params.size(),
           "kernel '" + launch.program->name + "' reads " +
               std::to_string(launch.program->num_param_words) + " param words, " +
               std::to_string(launch.params.size()) + " provided");

  // JIT engine: compile once up front (validated, optimized, operand-bound);
  // the compiled program is read-only and shared by all CTA workers. The
  // interpreter path below stays byte-for-byte untouched — it is the oracle.
  std::unique_ptr<const jit::JitProgram> jp;
  if (launch.engine == ExecEngine::kJit) {
    jp = std::make_unique<const jit::JitProgram>(jit::compile(*launch.program));
  }

  const std::uint64_t total = launch.num_ctas();
  std::atomic<std::uint64_t> next{0};
  std::atomic<std::uint64_t> instructions{0};
  std::atomic<std::uint64_t> hmma{0};
  // The failed CTA with the lowest linear index (`total` while none has) and
  // its message. CTAs above it are skipped and those below it still run, so
  // the reported failure is the same at every thread count.
  std::atomic<std::uint64_t> first_failed{total};
  std::string error_msg;
  std::mutex error_mutex;

  const int nthreads = static_cast<int>(
      std::min<std::uint64_t>(static_cast<std::uint64_t>(std::max(host_threads_, 1)), total));
  std::vector<std::thread> pool;
  pool.reserve(static_cast<std::size_t>(nthreads));
  for (int t = 0; t < nthreads; ++t) {
    pool.emplace_back([&] {
      for (;;) {
        const std::uint64_t i = next.fetch_add(1);
        if (i >= total || i > first_failed.load()) return;
        const std::uint64_t plane = static_cast<std::uint64_t>(launch.grid_x) * launch.grid_y;
        const auto cz = static_cast<std::uint32_t>(i / plane);
        const auto cx = static_cast<std::uint32_t>((i % plane) % launch.grid_x);
        const auto cy = static_cast<std::uint32_t>((i % plane) / launch.grid_x);
        try {
          const auto [insts, hm] =
              jp != nullptr
                  ? jit::run_cta(*jp, gmem_, launch, cx, cy, cz, max_warp_instructions, probe_)
                  : run_cta(gmem_, launch, cx, cy, cz, max_warp_instructions, probe_);
          instructions.fetch_add(insts);
          hmma.fetch_add(hm);
        } catch (const std::exception& e) {
          std::lock_guard lock(error_mutex);
          if (i < first_failed.load()) {
            first_failed.store(i);
            error_msg = "CTA (" + std::to_string(cx) + ", " + std::to_string(cy) + ", " +
                        std::to_string(cz) + "): " + e.what();
          }
          return;
        }
      }
    });
  }
  for (auto& th : pool) th.join();
  TC_CHECK(first_failed.load() == total, "functional execution failed in " + error_msg);

  return {instructions.load(), hmma.load()};
}

}  // namespace tc::sim
