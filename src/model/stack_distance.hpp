// Reuse-distance L2 model: a byte-weighted LRU stack-distance sampler over a
// CTA-tile access trace.
//
// Where the closed-form l2_reuse() guesses a wave's patch geometry and
// applies a calibrated sharing efficiency, this sampler *derives* the L2 hit
// rate from first principles: replay the slab accesses a launch order
// actually produces (wave by wave, iteration by iteration, matching the
// TimedDevice's lockstep dispatch) against an LRU stack the size of L2, and
// count how many bytes return within capacity.
//
// The stack is the classic bucketed marker-list structure: one std::list in
// recency order plus one marker iterator per distance threshold. Each marker
// stays pinned at its byte depth, advancing O(1) amortized per access, so a
// trace of N accesses against B buckets costs O(N*B) instead of the naive
// O(N^2) stack walk. The set-associativity of the real L2 (16-way) is
// approximated as full-capacity LRU — standard for reuse-distance models and
// validated against the emergent SectorCache behaviour by the l2_xval suite.
//
// Trace generators here are deliberately *independent* implementations of
// the launch orders in sim/cta_order.*: plain nested loops (and the inverse
// Hilbert map xy2d vs. the simulator's d2xy). A property test pins both
// sides to the identical permutation so the model can never drift from what
// the device actually dispatches.
#pragma once

#include <cstdint>
#include <list>
#include <unordered_map>
#include <utility>
#include <vector>

#include "model/l2_reuse.hpp"

namespace tc::model {

/// Byte-weighted LRU stack with bucketed marker-list distance queries.
class StackDistance {
 public:
  /// Distance class for a first-touch (compulsory miss).
  static constexpr int kCold = -1;

  /// `bucket_bytes` are ascending byte-distance thresholds t_0 < ... <
  /// t_{B-1}. access() classifies each reuse into the number of thresholds
  /// <= its distance: 0 means distance < t_0, B means distance >= t_{B-1}.
  explicit StackDistance(std::vector<double> bucket_bytes);

  /// Records an access to `block_id` occupying `bytes` bytes. Returns the
  /// distance class of this access (kCold on first touch) and moves the
  /// block to the top of the stack.
  int access(std::uint64_t block_id, double bytes);

  /// Counts per distance class 0..B; histogram()[B+1] counts cold misses.
  [[nodiscard]] const std::vector<std::uint64_t>& histogram() const { return histogram_; }

  [[nodiscard]] std::uint64_t accesses() const { return accesses_; }

 private:
  struct Block {
    std::uint64_t id;
    double bytes;
    int region;  // number of markers at-or-before this block
  };
  using Iter = std::list<Block>::iterator;
  struct Marker {
    Iter pos;                 // first block at byte depth >= threshold
    double bytes_above = 0;   // exact bytes strictly before pos
  };

  std::vector<double> thresholds_;
  std::list<Block> stack_;
  std::unordered_map<std::uint64_t, Iter> index_;
  std::vector<Marker> markers_;
  std::vector<std::uint64_t> histogram_;
  std::uint64_t accesses_ = 0;
};

/// The full dispatch sequence of `order` over a grid_x x grid_y grid —
/// the model-side twin of sim::CtaSource, implemented independently.
[[nodiscard]] std::vector<std::pair<std::uint32_t, std::uint32_t>> launch_trace(
    LaunchOrder order, std::uint32_t grid_x, std::uint32_t grid_y, int supertile_width);

/// Per-array result of replaying a sampled CTA-tile trace through the stack.
struct SampledL2 {
  double ldg_l2_hit_rate = 0.0;  // byte-weighted, A and B loads combined
  double a_hit_rate = 0.0;       // A-slab bytes served from L2
  double b_hit_rate = 0.0;       // B-slab bytes served from L2
  int wave_rows = 0;             // distinct C-block rows in the first wave
  int wave_cols = 0;             // distinct C-block columns in the first wave
  std::uint64_t accesses = 0;
  std::uint64_t cold_misses = 0;
  std::vector<std::uint64_t> histogram;
};

/// Replays the A/B slab loads of `in.order` (wave by wave, iteration by
/// iteration) through a StackDistance the size of L2 and returns the
/// byte-weighted hit rates. kSwizzled is traced as its row-major dispatch
/// realization.
[[nodiscard]] SampledL2 sample_l2_reuse(const L2ReuseInput& in);

}  // namespace tc::model
