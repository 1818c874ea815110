// Tests for the remaining common utilities and the HgemmConfig contract.
#include <fcntl.h>
#include <gtest/gtest.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "common/error.hpp"
#include "common/flags.hpp"
#include "common/json.hpp"
#include "common/json_parse.hpp"
#include "common/matrix.hpp"
#include "common/table.hpp"
#include "common/write_file.hpp"
#include "core/config.hpp"

namespace tc {
namespace {

TEST(Matrix, RowAndColMajorIndexing) {
  HostMatrix<int> rm(3, 4, Layout::kRowMajor);
  HostMatrix<int> cm(3, 4, Layout::kColMajor);
  EXPECT_EQ(rm.index(1, 2), 6u);
  EXPECT_EQ(cm.index(1, 2), 7u);
  rm.at(2, 3) = 42;
  EXPECT_EQ(rm.data()[11], 42);
  cm.at(2, 3) = 42;
  EXPECT_EQ(cm.data()[11], 42);
  EXPECT_THROW(rm.at(3, 0), Error);
  EXPECT_THROW(rm.at(0, 4), Error);
}

TEST(Matrix, SizeBytes) {
  HalfMatrix m(10, 20);
  EXPECT_EQ(m.size(), 200u);
  EXPECT_EQ(m.size_bytes(), 400u);
}

TEST(GemmShape, Flops) {
  const GemmShape s{100, 200, 300};
  EXPECT_DOUBLE_EQ(s.flops(), 2.0 * 100 * 200 * 300);
  EXPECT_EQ(s, (GemmShape{100, 200, 300}));
  EXPECT_NE(s, (GemmShape{100, 200, 301}));
}

TEST(TablePrinter, AlignsAndRendersCsv) {
  TablePrinter t({"name", "value"});
  t.add_row({"x", "1"});
  t.add_row({"longer", "22"});
  std::ostringstream text;
  t.print(text);
  EXPECT_NE(text.str().find("name    value"), std::string::npos);
  std::ostringstream csv;
  t.print_csv(csv);
  EXPECT_EQ(csv.str(), "name,value\nx,1\nlonger,22\n");
}

TEST(TablePrinter, RejectsWrongArity) {
  TablePrinter t({"a", "b"});
  EXPECT_THROW(t.add_row({"only one"}), Error);
}

TEST(FmtFixed, Rounds) {
  EXPECT_EQ(fmt_fixed(8.057, 2), "8.06");
  EXPECT_EQ(fmt_fixed(59.7, 1), "59.7");
  EXPECT_EQ(fmt_fixed(-1.005, 1), "-1.0");
}

TEST(HgemmConfig, PresetsAreValid) {
  EXPECT_NO_THROW(core::HgemmConfig::optimized().check());
  EXPECT_NO_THROW(core::HgemmConfig::cublas_like().check());
  EXPECT_EQ(core::HgemmConfig::optimized().warps(), 8);
  EXPECT_EQ(core::HgemmConfig::optimized().threads(), 256);
  EXPECT_EQ(core::HgemmConfig::cublas_like().warps(), 4);
}

TEST(HgemmConfig, RejectsBadShapes) {
  auto c = core::HgemmConfig::optimized();
  c.wk = 16;  // HMMA.1688 depth is 8
  EXPECT_THROW(c.check(), Error);

  c = core::HgemmConfig::optimized();
  c.wm = 100;  // not HMMA-shaped
  EXPECT_THROW(c.check(), Error);

  c = core::HgemmConfig::optimized();
  c.bm = 192;  // 24 row groups don't divide among 8 warps... (192/128 not integral)
  EXPECT_THROW(c.check(), Error);

  c = core::HgemmConfig::optimized();
  c.sts_interleave = 0;
  EXPECT_THROW(c.check(), Error);
}

TEST(HgemmConfig, SmemFootprints) {
  // Table VII: 36 KB padded, 32 KB tile-major for 256x256x32; 32 KB for the
  // cuBLAS config.
  auto opt = core::HgemmConfig::optimized();
  EXPECT_EQ(opt.smem_bytes(), 36u * 1024);
  opt.layout = core::SmemLayout::kTileMajor;
  EXPECT_EQ(opt.smem_bytes(), 32u * 1024);
  opt.layout = core::SmemLayout::kNaiveRowMajor;
  EXPECT_EQ(opt.smem_bytes(), 32u * 1024);
  EXPECT_EQ(core::HgemmConfig::cublas_like().smem_bytes(), 32u * 1024);
}

TEST(HgemmConfig, NamesEncodeTheConfig) {
  EXPECT_EQ(core::HgemmConfig::optimized().name(), "hgemm_256x256x32_w128x64_i5_pad");
  EXPECT_EQ(core::HgemmConfig::cublas_like().name(), "hgemm_128x128x64_w64x64_i2_tile");
}

TEST(JsonWriter, NestedObjectsAndArrays) {
  std::ostringstream os;
  JsonWriter j(os);
  j.begin_object();
  j.field("tool", "tc");
  j.field("n", 3);
  j.field("ok", true);
  j.key("rows");
  j.begin_array();
  j.value(1.5);
  j.null();
  j.begin_object();
  j.field("u", std::uint64_t{18446744073709551615ull});
  j.end_object();
  j.end_array();
  j.end_object();
  EXPECT_TRUE(j.complete());
  EXPECT_EQ(os.str(),
            R"({"tool":"tc","n":3,"ok":true,"rows":[1.5,null,{"u":18446744073709551615}]})");
}

TEST(JsonWriter, EscapesStringsAndRejectsNonFinite) {
  std::ostringstream os;
  JsonWriter j(os);
  j.begin_array();
  j.value("a\"b\\c\nd\x01");
  j.value(std::numeric_limits<double>::infinity());
  j.value(std::numeric_limits<double>::quiet_NaN());
  j.end_array();
  EXPECT_EQ(os.str(), "[\"a\\\"b\\\\c\\nd\\u0001\",null,null]");
}

// json_dump(json_parse(x)) is the canonical form the persistent tuning
// cache relies on: stable under repeated round-trips, every value kind and
// escape the repo's writers emit survives intact.
TEST(JsonRoundTrip, DumpParseIsIdentityOnCanonicalForm) {
  const char* docs[] = {
      "null",
      "true",
      "[false,0,-1.5,\"\",[],{}]",
      "{\"a\":1,\"b\":[1,2,3],\"c\":{\"d\":\"e\"}}",
      "{\"schema\":\"tc-tune-cache-v1\",\"entries\":[{\"device\":\"RTX2070\",\"m\":256,"
      "\"config\":{\"prefetch\":true,\"sts_interleave\":5},\"sim_cycles\":16090}]}",
  };
  for (const char* doc : docs) {
    const std::string canonical = json_dump(json_parse(doc));
    EXPECT_EQ(json_dump(json_parse(canonical)), canonical) << doc;
  }
}

TEST(JsonRoundTrip, PreservesValueKindsAndEscapes) {
  const std::string src =
      "{\"s\":\"a\\\"b\\\\c\\nd\\t\",\"n\":-2.75,\"big\":123456789,\"t\":true,"
      "\"f\":false,\"z\":null,\"arr\":[1,\"two\",null]}";
  const JsonValue v = json_parse(json_dump(json_parse(src)));
  EXPECT_EQ(v.at("s").as_string(), "a\"b\\c\nd\t");
  EXPECT_EQ(v.at("n").as_number(), -2.75);
  EXPECT_EQ(v.at("big").as_number(), 123456789.0);
  EXPECT_TRUE(v.at("t").as_bool());
  EXPECT_FALSE(v.at("f").as_bool());
  EXPECT_TRUE(v.at("t").is_bool());
  EXPECT_FALSE(v.at("n").is_bool());
  EXPECT_TRUE(v.at("z").is_null());
  ASSERT_TRUE(v.at("arr").is_array());
  EXPECT_EQ(v.at("arr").as_array().size(), 3u);
}

TEST(JsonRoundTrip, CanonicalFormSortsObjectKeys) {
  // JsonObject is an ordered map, so dump() emits keys sorted — two
  // documents with the same content in different key order canonicalize to
  // the same bytes (what makes cache files diff-able).
  EXPECT_EQ(json_dump(json_parse("{\"b\":1,\"a\":2}")),
            json_dump(json_parse("{\"a\":2,\"b\":1}")));
  EXPECT_EQ(json_dump(json_parse("{\"b\":1,\"a\":2}")), "{\"a\":2,\"b\":1}");
}

TEST(JsonWriter, MisuseTripsCheck) {
  std::ostringstream os;
  JsonWriter j(os);
  j.begin_object();
  EXPECT_THROW(j.value(1), Error);       // value without key inside object
  EXPECT_THROW(j.end_array(), Error);    // mismatched closer
  j.key("k");
  EXPECT_THROW(j.key("k2"), Error);      // key after key
  EXPECT_THROW(j.end_object(), Error);   // dangling key
  EXPECT_FALSE(j.complete());
}

/// The error `Flags` throws for `args` against `table`; empty if they parse.
std::string flag_error(const std::vector<Flag>& table, std::vector<const char*> args) {
  try {
    (void)Flags("cmd", table, static_cast<int>(args.size()), args.data(), 0);
  } catch (const Error& e) {
    return e.what();
  }
  return "";
}

TEST(Flags, BenchStepRejectsZeroBeforeAnySweep) {
  // size_sweep's loop never ends at step 0; the range check rejects it.
  const std::vector<Flag> table = {bench::step_flag(1024)};
  EXPECT_EQ(flag_error(table, {"--step", "0"}),
            "--step takes an integer in [1, 1048576], got '0'");
  EXPECT_EQ(flag_error(table, {"--step", "1048577"}),
            "--step takes an integer in [1, 1048576], got '1048577'");
  EXPECT_EQ(flag_error(table, {"--step", "1"}), "");
}

TEST(Flags, TableGivesDefaultsAndRejectsEverythingElse) {
  const std::vector<Flag> table = {
      Flag::toggle("--check"),          Flag::integer("--n", 1, 8, "4"),
      Flag::integer("--explore", 0, 8), Flag::real("--alpha", "1"),
      Flag::choice("--act", {"none", "relu"}), Flag::path("--json")};

  const char* bare[] = {"prog"};
  const Flags d("cmd", table, 1, bare);
  EXPECT_FALSE(d.given("--check"));
  EXPECT_FALSE(d.given("--n"));
  EXPECT_EQ(d.number("--n"), 4u);
  EXPECT_EQ(d.number<double>("--alpha"), 1.0);
  EXPECT_EQ(d.text("--act"), "none");
  EXPECT_EQ(d.text("--explore"), "");
  EXPECT_EQ(d.text("--json"), "");
  EXPECT_TRUE(d.takes("--json"));
  EXPECT_FALSE(d.takes("--seed"));
  EXPECT_FALSE(d.given("--seed"));
  EXPECT_THROW((void)d.text("--seed"), Error);  // reading outside the table is a bug

  const char* args[] = {"prog",  "--check", "--n",   "8",    "--alpha",
                        "-2.5", "--act",   "relu", "--json", "out.json"};
  const Flags g("cmd", table, 10, args);
  EXPECT_TRUE(g.given("--check"));
  EXPECT_TRUE(g.given("--n"));
  EXPECT_EQ(g.number<int>("--n"), 8);
  EXPECT_EQ(g.number<double>("--alpha"), -2.5);
  EXPECT_EQ(g.text("--act"), "relu");
  EXPECT_EQ(g.text("--json"), "out.json");

  EXPECT_EQ(flag_error(table, {"--seed", "3"}), "cmd does not take --seed");
  EXPECT_EQ(flag_error(table, {"--n"}), "flag --n needs a value");
  EXPECT_EQ(flag_error(table, {"--n", "9"}), "--n takes an integer in [1, 8], got '9'");
  EXPECT_EQ(flag_error(table, {"--n", "-1"}), "--n takes an integer in [1, 8], got '-1'");
  EXPECT_EQ(flag_error(table, {"--alpha", "inf"}), "--alpha takes a finite number, got 'inf'");
  EXPECT_EQ(flag_error(table, {"--act", "gelu"}), "--act takes one of none|relu, got 'gelu'");

  EXPECT_EQ(flags_usage(table, 2, 40),
            "  [--check] [--n 4] [--explore N]\n"
            "  [--alpha 1] [--act none|relu]\n"
            "  [--json PATH]\n");
}

/// A fresh, empty directory for one WriteFile test, removed on destruction.
class ScratchDir {
 public:
  explicit ScratchDir(const std::string& name)
      : path_(std::filesystem::temp_directory_path() /
              ("tc_write_file_" + name + "_" + std::to_string(::getpid()))) {
    std::filesystem::remove_all(path_);
    std::filesystem::create_directories(path_);
  }
  ~ScratchDir() { std::filesystem::remove_all(path_); }
  [[nodiscard]] const std::filesystem::path& path() const { return path_; }

  /// True when no `*.tmp.*` file is left in the directory.
  [[nodiscard]] bool no_temp_left() const {
    for (const auto& e : std::filesystem::directory_iterator(path_)) {
      if (e.path().filename().string().find(".tmp.") != std::string::npos) return false;
    }
    return true;
  }

 private:
  std::filesystem::path path_;
};

std::string slurp(const std::filesystem::path& path) {
  std::ifstream is(path);
  std::ostringstream ss;
  ss << is.rdbuf();
  return ss.str();
}

/// The message write_file throws for `path`, or "" when it succeeds.
std::string write_file_error(const std::string& path, const std::string& contents) {
  try {
    write_file(path, contents);
  } catch (const Error& e) {
    return e.what();
  }
  return "";
}

TEST(WriteFile, ReplacesAnExistingFileWhole) {
  const ScratchDir dir("replace");
  const std::string path = (dir.path() / "doc.json").string();
  std::ofstream(path) << "a much longer old document than the new one\n";
  namespace fs = std::filesystem;
  const auto owner_only = fs::perms::owner_read | fs::perms::owner_write;
  fs::permissions(path, owner_only);
  write_file(path, "{}\n");
  EXPECT_EQ(slurp(path), "{}\n");
  EXPECT_EQ(fs::status(path).permissions(), owner_only);  // as when rewritten in place
  write_file(path, "");
  EXPECT_EQ(slurp(path), "");
  EXPECT_TRUE(dir.no_temp_left());
}

TEST(WriteFile, MissingDirectoryThrowsNamingThePathAndCreatesNothing) {
  const ScratchDir dir("missing_dir");
  const std::string path = (dir.path() / "no_such_dir" / "doc.json").string();
  EXPECT_EQ(write_file_error(path, "{}\n"), "cannot open " + path + " for writing");
  EXPECT_TRUE(std::filesystem::is_empty(dir.path()));
}

TEST(WriteFile, SymlinkedTargetKeepsItsLink) {
  const ScratchDir dir("symlink");
  const auto real = dir.path() / "real.json";
  const auto link = dir.path() / "link.json";
  std::ofstream(real) << "old\n";
  std::filesystem::create_symlink(real, link);
  write_file(link.string(), "new\n");
  EXPECT_TRUE(std::filesystem::is_symlink(link));
  EXPECT_EQ(std::filesystem::read_symlink(link), real);
  EXPECT_EQ(slurp(real), "new\n");
  EXPECT_TRUE(dir.no_temp_left());
}

TEST(WriteFile, FifoTargetIsRefused) {
  // Renaming over a FIFO or a device node would replace it; write_file
  // refuses any existing target that is not a regular file. The read end is
  // held open without blocking, so a writer that opened the FIFO could not
  // block either.
  const ScratchDir dir("fifo");
  const auto fifo = dir.path() / "pipe";
  ASSERT_EQ(::mkfifo(fifo.c_str(), 0600), 0);
  const int reader = ::open(fifo.c_str(), O_RDONLY | O_NONBLOCK);
  ASSERT_GE(reader, 0);
  EXPECT_EQ(write_file_error(fifo.string(), "{}\n"),
            "cannot write " + fifo.string() + ": not a regular file");
  EXPECT_TRUE(std::filesystem::is_fifo(fifo));
  EXPECT_TRUE(dir.no_temp_left());
  ::close(reader);
}

}  // namespace
}  // namespace tc
