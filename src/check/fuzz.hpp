// Differential SASS fuzzer.
//
// Generates random-but-valid SASS programs — HMMA.1688/.884/IMMA mixes,
// LDS/STS/LDG/STG at widths 32/64/128, per-lane predication, single-block
// counted loops, multi-warp CTAs with BAR.SYNC — that are hazard-free BY
// CONSTRUCTION: every fixed-latency producer carries a stall covering its
// full latency, every load gets a write barrier that is waited on before any
// consumer, every store a read barrier waited on before its sources are
// reused, and all barriers are drained before a loop back edge and before
// EXIT. Each program then runs through BOTH executors:
//
//   functional (immediate writeback, schedule-independent)  vs
//   timed SM   (hazard-accurate delayed writeback)
//
// and the final per-warp register file, predicate file, and global memory
// are compared bit-for-bit. Since the program is race-free, ANY divergence
// is an executor bug, not a program bug. Failures are shrunk by greedy
// instruction deletion (branch targets re-fixed, candidates that fail
// validation or introduce hazard-detector errors are skipped) until no
// single removal preserves the divergence.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "numerics/numerics.hpp"
#include "sass/program.hpp"

namespace tc::check {

/// Which pair of engines a fuzz case is differenced across.
enum class FuzzCompare : std::uint8_t {
  kFunctionalVsTimed,   // functional interpreter vs hazard-accurate timed SM
  kJitVsInterpreter,    // functional JIT vs functional interpreter (the oracle)
};

/// Upper bound on a generated program's random body instructions (the
/// scheduler fuzzer's generator shares it).
inline constexpr int kMaxBodyOps = 24;

struct FuzzOptions {
  /// Draw register-pool seeds and input bytes from the numerics operand
  /// class — subnormals, NaN payloads, signed zeros, infinities, and exact
  /// powers of two spanning the FP16 binade ladder — instead of uniform
  /// bits. This steers HMMA/half ops straight into the edge cases where the
  /// two numerics modes disagree hardest.
  bool numeric_operands = false;
  /// HMMA semantics BOTH engines run with; the differential comparison is
  /// still bitwise, so each mode must be self-consistent across executors.
  numerics::NumericsMode numerics = numerics::NumericsMode::kIdealized;
  /// Engine pair to difference. kJitVsInterpreter runs the SAME functional
  /// executor twice — once with ExecEngine::kJit, once interpreting — so any
  /// divergence is a compiler/backend bug against the interpreter oracle.
  FuzzCompare compare = FuzzCompare::kFunctionalVsTimed;
};

/// One generated test case: the program plus everything needed to launch it
/// reproducibly (input bytes are stored so shrinking replays identical data).
struct FuzzCase {
  std::uint64_t seed = 0;
  sass::Program prog;
  std::uint32_t in_bytes = 0;   // read-only input buffer (param word 0)
  std::uint32_t out_bytes = 0;  // per-thread output slots (param word 1)
  std::vector<std::uint8_t> in_data;
};

struct FuzzFailure {
  std::uint64_t seed = 0;
  std::string phase;   // "hazard" | "divergence" | "exception"
  std::string detail;  // probe/memory diff, diagnostics, or what() text
  std::string program;  // disassembly of the shrunken repro
  int original_size = 0;
  int shrunk_size = 0;
};

struct FuzzReport {
  int programs = 0;
  int divergences = 0;
  std::vector<FuzzFailure> failures;
  [[nodiscard]] bool ok() const { return failures.empty(); }
};

/// Deterministically generates the test case for `seed`.
FuzzCase generate_case(std::uint64_t seed, const FuzzOptions& opts);

/// Runs one case through both executors; returns a description of the first
/// divergence (register, predicate, or memory), or nullopt on agreement.
/// Throws nothing: executor exceptions are reported as a divergence string.
std::optional<std::string> run_case(const FuzzCase& c, const FuzzOptions& opts);

/// Greedy instruction-deletion shrink; the returned case still diverges.
FuzzCase shrink_case(const FuzzCase& c, const FuzzOptions& opts);

/// Fuzzes `count` seeds starting at `base_seed`: generation, the static
/// hazard detector as a generator/detector cross-check, then the
/// differential run, shrinking any failure to a minimal repro.
FuzzReport run_fuzz(std::uint64_t base_seed, int count, const FuzzOptions& opts = {});

}  // namespace tc::check
