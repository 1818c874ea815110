// Persistent shape-bucketed tuning cache — the cublasLt-heuristics pattern.
//
// Production GEMM traffic is a stream of shapes; tuning is expensive and
// deterministic, so winners are computed once per *shape bucket* and reused
// bit-for-bit forever after. A CacheKey buckets the user shape (each of
// m/n/k rounds up to the next power of two with a floor of 64 — see
// docs/serving.md for the rationale and the pinned edge table), and a
// TuneCache maps keys to the tc::tune winner found at the bucket shape.
//
// The cache round-trips through a JSON file (`tc-tune-cache-v1`, written by
// common/json.hpp, read back by common/json_parse.hpp) so a server restart
// or an offline `tcgemm_cli tune --cache` pre-warm never re-tunes a bucket.
// Load is defensive: an entry whose config no longer passes the SearchSpace
// legality mirror, the SASS validator or the hazard detector is rejected
// with a diagnostic and simply re-tuned on next use — a stale or corrupt
// cache can cost time, never correctness.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/matrix.hpp"
#include "core/config.hpp"
#include "device/spec.hpp"

namespace tc::tune {

/// Identity of one tuning bucket: device spec name + bucketed shape +
/// element dtype.
struct CacheKey {
  std::string device;
  std::size_t m = 0, n = 0, k = 0;  // bucket edges (power-of-two, >= 64)
  /// Element type of the bucket. Defaulted (PR-7 launch_order precedent) so
  /// existing v1 cache files — which predate the field — load unchanged;
  /// "f16" is the only type the kernel library generates today, and
  /// validate_cache_entry rejects anything else as unservable.
  std::string dtype = "f16";

  friend bool operator==(const CacheKey&, const CacheKey&) = default;
  friend auto operator<=>(const CacheKey&, const CacheKey&) = default;

  /// "rtx2070:256x256x64" — stable display / map form. Only a non-default
  /// dtype marks the string ("rtx2070:256x256x64:bf16"), so every legacy
  /// display form is unchanged.
  [[nodiscard]] std::string str() const;
};

/// One shape dimension's bucket edge: the next power of two, floored at 64.
/// Pinned by a golden test so cache files stay forward-compatible.
[[nodiscard]] std::size_t bucket_dim(std::size_t v);

/// The bucket `shape` falls into on `spec`.
[[nodiscard]] CacheKey cache_key(const device::DeviceSpec& spec, const GemmShape& shape,
                                 const std::string& dtype = "f16");

/// The canonical shape a bucket is tuned at (its upper edges).
[[nodiscard]] GemmShape bucket_shape(const CacheKey& key);

/// One persisted winner: the full kernel config plus provenance, so a hit
/// reproduces the tuned kernel bit-for-bit and a reader can tell how the
/// entry was derived.
struct CacheEntry {
  CacheKey key;
  core::HgemmConfig cfg;
  std::uint64_t sim_cycles = 0;  // winner's simulated cycles at the bucket shape
  int budget = 0;                // timed evaluations the search spent
  std::uint64_t seed = 0;        // tuner seed
  std::string engine;            // tune::engine_name() of the search
};

/// Why load() dropped entries (and what it kept).
struct CacheLoadStats {
  std::size_t loaded = 0;
  std::size_t rejected = 0;
  std::vector<std::string> diagnostics;  // one line per rejected entry / parse failure
};

/// Validates one entry against the current build: spec must resolve, the
/// config must pass the SearchSpace legality mirror, and the generated
/// kernel must pass sass::validate + check::find_hazards at the bucket's
/// contract shape. Returns "" when servable, else a one-line diagnostic.
[[nodiscard]] std::string validate_cache_entry(const CacheEntry& e);

/// In-memory image of one cache file. Entries are kept sorted by key so
/// save() output is canonical (same winners -> byte-identical file).
class TuneCache {
 public:
  static constexpr const char* kSchema = "tc-tune-cache-v1";

  /// Parses a cache document. Malformed JSON or a wrong schema yields an
  /// *empty* cache plus a diagnostic (the server re-tunes; it never throws
  /// away a process over a bad cache file). Individually invalid entries
  /// are dropped with per-entry diagnostics.
  [[nodiscard]] static TuneCache from_json(std::string_view text,
                                           CacheLoadStats* stats = nullptr);

  /// from_json over a file; a missing file is an empty cache (cold start).
  [[nodiscard]] static TuneCache load(const std::string& path, CacheLoadStats* stats = nullptr);

  [[nodiscard]] std::string to_json() const;
  /// Replaces the file by rename (common/write_file.hpp), so a killed run
  /// leaves the old cache, never a torn one.
  void save(const std::string& path) const;

  /// nullptr on miss. The pointer is invalidated by insert().
  [[nodiscard]] const CacheEntry* find(const CacheKey& key) const;

  /// Inserts or replaces the entry for e.key.
  void insert(CacheEntry e);

  [[nodiscard]] std::size_t size() const { return entries_.size(); }
  [[nodiscard]] const std::vector<CacheEntry>& entries() const { return entries_; }

 private:
  std::vector<CacheEntry> entries_;  // sorted by key
};

}  // namespace tc::tune
