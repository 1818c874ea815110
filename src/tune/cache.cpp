#include "tune/cache.hpp"

#include <algorithm>
#include <fstream>
#include <sstream>

#include "check/hazard.hpp"
#include "common/error.hpp"
#include "common/json.hpp"
#include "common/json_parse.hpp"
#include "common/write_file.hpp"
#include "core/kernel_gen.hpp"
#include "sass/validator.hpp"
#include "sim/cta_order.hpp"
#include "tune/space.hpp"

namespace tc::tune {

namespace {

const char* layout_name(core::SmemLayout l) {
  switch (l) {
    case core::SmemLayout::kPaddedTile: return "padded_tile";
    case core::SmemLayout::kTileMajor: return "tile_major";
    case core::SmemLayout::kNaiveRowMajor: return "naive_row_major";
  }
  return "?";
}

core::SmemLayout layout_from_name(const std::string& s) {
  if (s == "padded_tile") return core::SmemLayout::kPaddedTile;
  if (s == "tile_major") return core::SmemLayout::kTileMajor;
  if (s == "naive_row_major") return core::SmemLayout::kNaiveRowMajor;
  throw Error("unknown smem layout '" + s + "' in cache entry");
}

int int_field(const JsonValue& o, const char* key) {
  return static_cast<int>(o.at(key).as_number());
}

CacheEntry entry_from_json(const JsonValue& v) {
  CacheEntry e;
  e.key.device = v.at("device").as_string();
  e.key.m = static_cast<std::size_t>(v.at("m").as_number());
  e.key.n = static_cast<std::size_t>(v.at("n").as_number());
  e.key.k = static_cast<std::size_t>(v.at("k").as_number());
  // dtype postdates the v1 schema: absence == the f16 default, no bump.
  if (v.has("dtype")) e.key.dtype = v.at("dtype").as_string();
  const JsonValue& c = v.at("config");
  e.cfg.bm = int_field(c, "bm");
  e.cfg.bn = int_field(c, "bn");
  e.cfg.bk = int_field(c, "bk");
  e.cfg.wm = int_field(c, "wm");
  e.cfg.wn = int_field(c, "wn");
  e.cfg.wk = int_field(c, "wk");
  e.cfg.layout = layout_from_name(c.at("layout").as_string());
  e.cfg.sts_interleave = int_field(c, "sts_interleave");
  e.cfg.prefetch = c.at("prefetch").as_bool();
  // Launch-order fields postdate the v1 schema; caches written before them
  // carry the defaults (the legacy analytic swizzle), so absence == default
  // and no schema bump is needed.
  if (c.has("launch_order")) {
    e.cfg.launch_order = sim::launch_order_from_name(c.at("launch_order").as_string());
  }
  if (c.has("supertile_width")) {
    e.cfg.supertile_width = int_field(c, "supertile_width");
  }
  // split_k postdates the v1 schema too: absent == 1 (single-pass kernel).
  if (c.has("split_k")) {
    e.cfg.split_k = int_field(c, "split_k");
  }
  e.sim_cycles = static_cast<std::uint64_t>(v.at("sim_cycles").as_number());
  e.budget = int_field(v, "budget");
  e.seed = static_cast<std::uint64_t>(v.at("seed").as_number());
  e.engine = v.at("engine").as_string();
  return e;
}

void entry_to_json(JsonWriter& j, const CacheEntry& e) {
  j.begin_object();
  j.field("device", e.key.device);
  j.field("m", static_cast<std::uint64_t>(e.key.m));
  j.field("n", static_cast<std::uint64_t>(e.key.n));
  j.field("k", static_cast<std::uint64_t>(e.key.k));
  j.field("dtype", e.key.dtype);
  j.key("config");
  j.begin_object();
  j.field("bm", e.cfg.bm);
  j.field("bn", e.cfg.bn);
  j.field("bk", e.cfg.bk);
  j.field("wm", e.cfg.wm);
  j.field("wn", e.cfg.wn);
  j.field("wk", e.cfg.wk);
  j.field("layout", layout_name(e.cfg.layout));
  j.field("sts_interleave", e.cfg.sts_interleave);
  j.field("prefetch", e.cfg.prefetch);
  j.field("launch_order", sim::launch_order_name(e.cfg.launch_order));
  j.field("supertile_width", e.cfg.supertile_width);
  j.field("split_k", e.cfg.split_k);
  j.end_object();
  j.field("sim_cycles", e.sim_cycles);
  j.field("budget", e.budget);
  j.field("seed", e.seed);
  j.field("engine", e.engine);
  j.end_object();
}

}  // namespace

std::string CacheKey::str() const {
  std::string s =
      device + ":" + std::to_string(m) + "x" + std::to_string(n) + "x" + std::to_string(k);
  if (dtype != "f16") s += ":" + dtype;
  return s;
}

std::size_t bucket_dim(std::size_t v) {
  std::size_t b = 64;
  while (b < v) b *= 2;
  return b;
}

CacheKey cache_key(const device::DeviceSpec& spec, const GemmShape& shape,
                   const std::string& dtype) {
  return {spec.name, bucket_dim(shape.m), bucket_dim(shape.n), bucket_dim(shape.k), dtype};
}

GemmShape bucket_shape(const CacheKey& key) { return {key.m, key.n, key.k}; }

std::string validate_cache_entry(const CacheEntry& e) {
  device::DeviceSpec spec;
  try {
    spec = device::spec_by_name(e.key.device);
  } catch (const Error&) {
    return e.key.str() + ": unknown device spec '" + e.key.device + "'";
  }
  if (e.key.dtype != "f16") {
    return e.key.str() + ": unsupported dtype '" + e.key.dtype +
           "' (the kernel library generates f16 only)";
  }
  // The static legality mirror first: cheap, and the builder would throw on
  // anything it rejects.
  Legality v{};
  try {
    v = classify(spec, e.cfg);
  } catch (const Error& err) {
    return e.key.str() + ": config rejected by legality filter (" + err.what() + ")";
  }
  if (!v.ok()) {
    return e.key.str() + ": config fails SearchSpace legality (" +
           std::string(reject_name(v.reject)) + ")";
  }
  // Then the full gate the tuner applies to every evaluated kernel: build at
  // the bucket's contract shape, validate, scan for hazards.
  try {
    const GemmShape s = e.cfg.contract_shape(bucket_shape(e.key));
    const sass::Program prog = core::hgemm_kernel(e.cfg, s);
    sass::validate(prog);
    const auto diags = check::find_hazards(prog);
    if (!diags.empty()) {
      return e.key.str() + ": cached kernel fails the hazard gate (" +
             sass::format(diags.front()) + ")";
    }
  } catch (const Error& err) {
    return e.key.str() + ": cached kernel fails validation (" + std::string(err.what()) + ")";
  }
  return {};
}

TuneCache TuneCache::from_json(std::string_view text, CacheLoadStats* stats) {
  TuneCache cache;
  CacheLoadStats local;
  CacheLoadStats& st = stats != nullptr ? *stats : local;
  JsonValue doc;
  try {
    doc = json_parse(text);
    TC_CHECK(doc.is_object() && doc.has("schema"), "not a cache document");
    TC_CHECK(doc.at("schema").as_string() == kSchema,
             "schema is '" + doc.at("schema").as_string() + "', expected " + kSchema);
    for (const JsonValue& v : doc.at("entries").as_array()) {
      CacheEntry e;
      try {
        e = entry_from_json(v);
      } catch (const Error& err) {
        ++st.rejected;
        st.diagnostics.push_back(std::string("malformed cache entry: ") + err.what());
        continue;
      }
      const std::string diag = validate_cache_entry(e);
      if (!diag.empty()) {
        ++st.rejected;
        st.diagnostics.push_back(diag);
        continue;
      }
      ++st.loaded;
      cache.insert(std::move(e));
    }
  } catch (const Error& err) {
    st.diagnostics.push_back(std::string("unreadable tuning cache: ") + err.what());
    return TuneCache{};  // a bad file is a cold start, never a crashed server
  }
  return cache;
}

TuneCache TuneCache::load(const std::string& path, CacheLoadStats* stats) {
  std::ifstream is(path);
  if (!is.good()) return TuneCache{};  // missing file: cold start
  std::ostringstream ss;
  ss << is.rdbuf();
  return from_json(ss.str(), stats);
}

std::string TuneCache::to_json() const {
  std::ostringstream os;
  JsonWriter j(os);
  j.begin_object();
  j.field("schema", kSchema);
  j.key("entries");
  j.begin_array();
  for (const auto& e : entries_) entry_to_json(j, e);
  j.end_array();
  j.end_object();
  os << "\n";
  return os.str();
}

void TuneCache::save(const std::string& path) const { write_file(path, to_json()); }

const CacheEntry* TuneCache::find(const CacheKey& key) const {
  const auto it = std::lower_bound(
      entries_.begin(), entries_.end(), key,
      [](const CacheEntry& e, const CacheKey& k) { return e.key < k; });
  if (it == entries_.end() || !(it->key == key)) return nullptr;
  return &*it;
}

void TuneCache::insert(CacheEntry e) {
  const auto it = std::lower_bound(
      entries_.begin(), entries_.end(), e.key,
      [](const CacheEntry& a, const CacheKey& k) { return a.key < k; });
  if (it != entries_.end() && it->key == e.key) {
    *it = std::move(e);
  } else {
    entries_.insert(it, std::move(e));
  }
}

}  // namespace tc::tune
