// End-to-end coverage of the command-line tools, driven through the shell
// the way a user runs them: apkgen writes packages to disk, saintdroid
// analyzes/disassembles/mines, appgraph dumps graphs. CTest runs these
// with the tests/ binary dir as CWD; the tool binaries live in ../tools.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <span>
#include <string>
#include <vector>

#include <unistd.h>

#include "dex/apk.hpp"
#include "support/bytes.hpp"
#include "support/errors.hpp"
#include "workload/journal.hpp"

namespace saintdroid {
namespace {

namespace fs = std::filesystem;

const char* tool_dir() { return "../tools"; }

bool tools_present() {
  return fs::exists(fs::path(tool_dir()) / "saintdroid") &&
         fs::exists(fs::path(tool_dir()) / "apkgen") &&
         fs::exists(fs::path(tool_dir()) / "appgraph");
}

std::string slurp(const std::string& path) {
  std::ifstream in{path, std::ios::binary};
  return {std::istreambuf_iterator<char>(in),
          std::istreambuf_iterator<char>()};
}

/// The captured-output file, one per process: ctest runs this binary's
/// tests as concurrent processes in one directory.
std::string log_path() {
  return "tool_test_output-" + std::to_string(::getpid()) + ".txt";
}

/// Runs a command, captures stdout, returns {exit code, output}.
std::pair<int, std::string> run(const std::string& command) {
  const std::string log = log_path();
  const int rc = std::system((command + " > " + log + " 2>&1").c_str());
  return {rc, slurp(log)};
}

/// Runs a command on an empty stdin with stdout discarded, returns
/// {exit code, stderr}.
std::pair<int, std::string> run_stderr(const std::string& command) {
  const std::string log = log_path();
  const int rc = std::system(
      (command + " < /dev/null > /dev/null 2> " + log).c_str());
  return {rc, slurp(log)};
}

/// Writes to `out_path` a package whose container header (magic, name,
/// manifest, section length) is intact and whose one dex section holds
/// only the first half of `intact_path`'s dex: the header reads whole, only
/// a full parse of the body fails.
void write_cut_body_package(const std::string& intact_path,
                            const std::string& out_path) {
  const std::string good = slurp(intact_path);
  const Apk apk = Apk::parse(std::span{
      reinterpret_cast<const std::uint8_t*>(good.data()), good.size()});
  const std::vector<std::uint8_t> dex = apk.dexes.at(0).serialize();
  ByteWriter w;
  w.u32(0x4b504153);  // "SAPK"
  w.str("bad_body");
  apk.manifest.serialize(w);
  w.uleb(1);
  w.uleb(dex.size() / 2);  // the section length matches the bytes present
  w.bytes(std::span{dex}.first(dex.size() / 2));
  const std::vector<std::uint8_t> cut = w.take();
  ByteReader r{cut};
  (void)r.u32();
  EXPECT_EQ(r.str(), "bad_body");
  EXPECT_THROW((void)Apk::parse(cut), ParseError);
  std::ofstream out{out_path, std::ios::binary};
  out.write(reinterpret_cast<const char*>(cut.data()),
            static_cast<std::streamsize>(cut.size()));
}

class ToolsEndToEnd : public ::testing::Test {
 protected:
  void SetUp() override {
    if (!tools_present()) GTEST_SKIP() << "tool binaries not built";
    fs::create_directories("tool_test_tmp");
  }
};

TEST_F(ToolsEndToEnd, DemoGenerateAnalyzeSuggest) {
  auto [gen_rc, gen_out] =
      run(std::string(tool_dir()) + "/apkgen demo tool_test_tmp/demo.apk");
  ASSERT_EQ(gen_rc, 0) << gen_out;
  ASSERT_TRUE(fs::exists("tool_test_tmp/demo.apk"));

  auto [rc, out] = run(std::string(tool_dir()) +
                       "/saintdroid analyze tool_test_tmp/demo.apk --suggest");
  EXPECT_EQ(WEXITSTATUS(rc), 1);  // mismatches found -> exit 1
  EXPECT_NE(out.find("[API]"), std::string::npos);
  EXPECT_NE(out.find("[PRM]"), std::string::npos);
  EXPECT_NE(out.find("[add-sdk-guard]"), std::string::npos);
}

TEST_F(ToolsEndToEnd, JsonOutputIsJson) {
  run(std::string(tool_dir()) + "/apkgen demo tool_test_tmp/demo.apk");
  auto [rc, out] = run(std::string(tool_dir()) +
                       "/saintdroid analyze tool_test_tmp/demo.apk --json");
  (void)rc;
  ASSERT_FALSE(out.empty());
  EXPECT_EQ(out.front(), '{');
  EXPECT_NE(out.find("\"mismatches\":["), std::string::npos);
}

TEST_F(ToolsEndToEnd, MineAndReuseDatabase) {
  auto [mine_rc, mine_out] =
      run(std::string(tool_dir()) + "/saintdroid mine tool_test_tmp/api.db");
  ASSERT_EQ(mine_rc, 0) << mine_out;
  EXPECT_NE(mine_out.find("mined"), std::string::npos);
  ASSERT_TRUE(fs::exists("tool_test_tmp/api.db"));

  run(std::string(tool_dir()) + "/apkgen demo tool_test_tmp/demo.apk");
  auto [rc, out] =
      run(std::string(tool_dir()) +
          "/saintdroid analyze tool_test_tmp/demo.apk --db tool_test_tmp/api.db");
  EXPECT_EQ(WEXITSTATUS(rc), 1);
  EXPECT_NE(out.find("mismatches: 4"), std::string::npos);
}

TEST_F(ToolsEndToEnd, DisasmShowsBytecode) {
  run(std::string(tool_dir()) + "/apkgen demo tool_test_tmp/demo.apk");
  auto [rc, out] = run(std::string(tool_dir()) +
                       "/saintdroid disasm tool_test_tmp/demo.apk");
  EXPECT_EQ(rc, 0);
  EXPECT_NE(out.find("invoke-virtual"), std::string::npos);
  EXPECT_NE(out.find("class com/apkgen/demo/MainActivity"),
            std::string::npos);
}

TEST_F(ToolsEndToEnd, AppGraphStatsAndDot) {
  run(std::string(tool_dir()) + "/apkgen demo tool_test_tmp/demo.apk");
  auto [stats_rc, stats] = run(std::string(tool_dir()) +
                               "/appgraph tool_test_tmp/demo.apk --stats");
  EXPECT_EQ(stats_rc, 0);
  EXPECT_NE(stats.find("entry points"), std::string::npos);
  auto [dot_rc, dot] =
      run(std::string(tool_dir()) + "/appgraph tool_test_tmp/demo.apk");
  EXPECT_EQ(dot_rc, 0);
  EXPECT_EQ(dot.rfind("digraph", 0), 0u);
}

TEST_F(ToolsEndToEnd, RejectsCorruptPackage) {
  std::ofstream bad{"tool_test_tmp/bad.apk", std::ios::binary};
  bad << "not an apk";
  bad.close();
  auto [rc, out] = run(std::string(tool_dir()) +
                       "/saintdroid analyze tool_test_tmp/bad.apk");
  EXPECT_EQ(WEXITSTATUS(rc), 2);
  EXPECT_NE(out.find("parse error"), std::string::npos);
}

TEST_F(ToolsEndToEnd, BatchRefusesCorruptPackagesBeforeAnyRow) {
  // Packages are read and parsed on a worker pool, but the contract is
  // the serial one: exit 2 before any analysis or journal row, naming the
  // first bad package in input order whichever worker met it first.
  auto [gen_rc, gen_out] =
      run(std::string(tool_dir()) + "/apkgen corpus tool_test_tmp/mixed 6");
  ASSERT_EQ(gen_rc, 0) << gen_out;
  for (const char* name : {"bad_first.apk", "bad_second.apk"}) {
    std::ofstream bad{std::string{"tool_test_tmp/mixed/"} + name,
                      std::ios::binary};
    bad << "not an apk";
  }
  std::string files;
  for (int i = 0; i < 6; ++i) {
    files += " tool_test_tmp/mixed/fdroid-app-" + std::to_string(i) + ".apk";
    if (i == 2) files += " tool_test_tmp/mixed/bad_first.apk";
    if (i == 4) files += " tool_test_tmp/mixed/bad_second.apk";
  }
  fs::remove("tool_test_tmp/mixed.jsonl");
  for (const char* jobs : {"1", "4"}) {
    auto [rc, out] = run(std::string(tool_dir()) + "/saintdroid batch" +
                         files + " --jobs " + jobs +
                         " --journal tool_test_tmp/mixed.jsonl");
    EXPECT_EQ(WEXITSTATUS(rc), 2) << out;
    EXPECT_NE(out.find("tool_test_tmp/mixed/bad_first.apk: parse error"),
              std::string::npos)
        << out;
    EXPECT_EQ(out.find("bad_second"), std::string::npos) << out;
    EXPECT_EQ(out.find("mismatch"), std::string::npos) << out;  // no rows
    EXPECT_FALSE(fs::exists("tool_test_tmp/mixed.jsonl"));
  }
}

TEST_F(ToolsEndToEnd, CoordinateRefusesCorruptPackagesBeforePublish) {
  // The coordinator needs only a name and a cost per package, but it must
  // still parse each one whole: a package whose container header is intact
  // and whose dex body is cut short fails `coordinate` with exit 2, naming
  // the first bad package in input order, before any queue is published.
  auto [gen_rc, gen_out] =
      run(std::string(tool_dir()) + "/apkgen corpus tool_test_tmp/coord_bad 4");
  ASSERT_EQ(gen_rc, 0) << gen_out;
  write_cut_body_package("tool_test_tmp/coord_bad/fdroid-app-0.apk",
                         "tool_test_tmp/coord_bad/bad_body.apk");
  {
    std::ofstream second{"tool_test_tmp/coord_bad/bad_second.apk",
                         std::ios::binary};
    second << "not an apk";
  }
  std::string files;
  for (int i = 0; i < 4; ++i) {
    files +=
        " tool_test_tmp/coord_bad/fdroid-app-" + std::to_string(i) + ".apk";
    if (i == 1) files += " tool_test_tmp/coord_bad/bad_body.apk";
    if (i == 2) files += " tool_test_tmp/coord_bad/bad_second.apk";
  }
  fs::remove_all("tool_test_tmp/coord_bad_wd");
  auto [rc, out] = run(std::string(tool_dir()) +
                       "/saintdroid coordinate tool_test_tmp/coord_bad_wd" +
                       files + " --init-only");
  EXPECT_EQ(WEXITSTATUS(rc), 2) << out;
  EXPECT_NE(out.find("tool_test_tmp/coord_bad/bad_body.apk: parse error"),
            std::string::npos)
      << out;
  EXPECT_EQ(out.find("bad_second"), std::string::npos) << out;
  EXPECT_EQ(out.find("published"), std::string::npos) << out;
  EXPECT_FALSE(fs::exists("tool_test_tmp/coord_bad_wd/queue.sdwq"));
}

TEST_F(ToolsEndToEnd, BatchRefusesCutDexBodyBeforeAnyRow) {
  // `batch` keeps only a name, a target level and the bytes of each
  // package before its analysis, but it must still parse each one whole
  // first: a package whose container header is intact and whose dex body
  // is cut short exits 2 naming it — at any --jobs — with no row printed
  // and no journal written.
  auto [gen_rc, gen_out] =
      run(std::string(tool_dir()) + "/apkgen corpus tool_test_tmp/cut 5");
  ASSERT_EQ(gen_rc, 0) << gen_out;
  write_cut_body_package("tool_test_tmp/cut/fdroid-app-0.apk",
                         "tool_test_tmp/cut/bad_body.apk");
  std::string files;
  for (int i = 0; i < 5; ++i) {
    files += " tool_test_tmp/cut/fdroid-app-" + std::to_string(i) + ".apk";
    if (i == 3) files += " tool_test_tmp/cut/bad_body.apk";
  }
  fs::remove("tool_test_tmp/cut.jsonl");
  for (const char* jobs : {"1", "4"}) {
    SCOPED_TRACE(std::string{"jobs "} + jobs);
    auto [rc, out] = run(std::string(tool_dir()) + "/saintdroid batch" +
                         files + " --jobs " + jobs +
                         " --journal tool_test_tmp/cut.jsonl");
    EXPECT_EQ(WEXITSTATUS(rc), 2) << out;
    EXPECT_NE(out.find("tool_test_tmp/cut/bad_body.apk: parse error"),
              std::string::npos)
        << out;
    EXPECT_EQ(out.find("fdroid-app"), std::string::npos) << out;  // no rows
    EXPECT_EQ(out.find("mismatch"), std::string::npos) << out;
    EXPECT_FALSE(fs::exists("tool_test_tmp/cut.jsonl"));
  }
}

TEST_F(ToolsEndToEnd, UsageOnBadArguments) {
  // Every malformed invocation of every command exits 2 with the usage on
  // stderr, before touching its (here nonexistent) inputs.
  const std::vector<std::string> cases = {
      "",
      "frobnicate x.apk",
      // unknown flag
      "analyze x.apk --bogus",
      "batch x.apk --bogus",
      "merge-journals --bogus out.jsonl in.jsonl",
      "coordinate wd x.apk --bogus",
      "work wd --bogus",
      "serve st --bogus",
      "submit st x.apk --bogus",
      "disasm x.apk --bogus",
      "mine out.db --bogus",
      // flag missing its value
      "analyze x.apk --db",
      "batch x.apk --journal",
      "coordinate wd x.apk --ttl",
      "work wd --worker",
      "serve st --queue",
      "submit st x.apk --wait",
      // missing or extra positional
      "analyze",
      "analyze x.apk y.apk",
      "batch",
      "batch --jobs 2",
      "merge-journals",
      "merge-journals out.jsonl",
      "coordinate wd",
      "work",
      "work wd extra",
      "serve",
      "serve st extra --stdio",
      "submit st",
      "disasm",
      "disasm x.apk y.apk",
      "mine",
      // flags that need another flag, and malformed specs
      "batch x.apk --resume",
      "serve st --no-socket",
      "batch x.apk --shard 3/3",
      "batch x.apk --shard 1",
      "batch x.apk --shard -1/2",
      // values that are not numbers in the flag's range
      "analyze x.apk --levels a,b",
      "analyze x.apk --levels 23,",
      "batch x.apk --jobs foo",
      "batch x.apk --jobs 2x",
      "batch x.apk --jobs -1",
      "coordinate wd x.apk --lease-size -4",
      "coordinate wd x.apk --timeout soon",
      "work wd --ttl -1",
      "work wd --max-leases 1.5",
      "serve st --stdio --queue lots",
      "serve st --stdio --deadline nan",
      "submit st x.apk --wait -2",
  };
  for (const std::string& args : cases) {
    auto [rc, err] = run_stderr(std::string(tool_dir()) + "/saintdroid " +
                                args);
    EXPECT_EQ(WEXITSTATUS(rc), 2) << args << "\n" << err;
    EXPECT_NE(err.find("usage:"), std::string::npos) << args << "\n" << err;
  }
}

TEST_F(ToolsEndToEnd, FlagsMayPrecedePositionals) {
  run(std::string(tool_dir()) + "/apkgen demo tool_test_tmp/flags.apk");
  auto [after_rc, after] = run(std::string(tool_dir()) +
                               "/saintdroid analyze tool_test_tmp/flags.apk "
                               "--json --levels 21,29");
  auto [before_rc, before] = run(std::string(tool_dir()) +
                                 "/saintdroid analyze --json --levels 21,29 "
                                 "tool_test_tmp/flags.apk");
  EXPECT_EQ(WEXITSTATUS(after_rc), 1) << after;
  EXPECT_EQ(WEXITSTATUS(before_rc), 1) << before;
  // Equal reports up to the timing in the trailing usage block.
  const auto report = [](const std::string& json) {
    return json.substr(0, json.find("\"usage\""));
  };
  EXPECT_EQ(report(before), report(after));
  EXPECT_EQ(before.front(), '{');
  EXPECT_NE(before.find("\"mismatches\":[{"), std::string::npos) << before;
}

TEST_F(ToolsEndToEnd, HelpListsEveryCommand) {
  auto [rc, out] = run(std::string(tool_dir()) + "/saintdroid --help");
  EXPECT_EQ(rc, 0);
  EXPECT_EQ(out.rfind("usage: saintdroid analyze <apk>", 0), 0u) << out;
  for (const char* command :
       {"batch", "merge-journals", "coordinate", "work", "serve", "submit",
        "disasm", "mine", "--help"})
    EXPECT_NE(out.find(std::string{"saintdroid "} + command),
              std::string::npos)
        << command;
}

TEST_F(ToolsEndToEnd, MinePublishesWholeDatabasesOnly) {
  // A destination that cannot be written fails with the path named and
  // leaves nothing behind; a good one is replaced whole, with no
  // temporary file left next to it.
  auto [bad_rc, bad] = run(std::string(tool_dir()) +
                           "/saintdroid mine tool_test_tmp/no/such/api.db");
  EXPECT_EQ(WEXITSTATUS(bad_rc), 2) << bad;
  EXPECT_NE(bad.find("cannot write tool_test_tmp/no/such/api.db"),
            std::string::npos)
      << bad;

  fs::remove_all("tool_test_tmp/mine");
  fs::create_directories("tool_test_tmp/mine");
  std::ofstream{"tool_test_tmp/mine/api.db"} << "stale";
  auto [rc, out] = run(std::string(tool_dir()) +
                       "/saintdroid mine tool_test_tmp/mine/api.db");
  ASSERT_EQ(rc, 0) << out;
  std::size_t files = 0;
  for (const auto& entry : fs::directory_iterator("tool_test_tmp/mine")) {
    EXPECT_EQ(entry.path().filename(), "api.db");
    ++files;
  }
  EXPECT_EQ(files, 1u);
  run(std::string(tool_dir()) + "/apkgen demo tool_test_tmp/mine/demo.apk");
  auto [db_rc, db_out] = run(std::string(tool_dir()) +
                             "/saintdroid analyze tool_test_tmp/mine/demo.apk"
                             " --db tool_test_tmp/mine/api.db");
  EXPECT_EQ(WEXITSTATUS(db_rc), 1) << db_out;
  EXPECT_NE(db_out.find("mismatches: 4"), std::string::npos) << db_out;
}

TEST_F(ToolsEndToEnd, ShardedBatchesMergeIntoOneCanonicalJournal) {
  auto [gen_rc, gen_out] =
      run(std::string(tool_dir()) + "/apkgen corpus tool_test_tmp/corpus 9");
  ASSERT_EQ(gen_rc, 0) << gen_out;

  // The app-file list, in one fixed order: the order defines the corpus
  // fingerprint, so every shard invocation must see the same list.
  std::string files;
  for (int i = 0; i < 9; ++i) {
    const std::string path =
        "tool_test_tmp/corpus/fdroid-app-" + std::to_string(i) + ".apk";
    ASSERT_TRUE(fs::exists(path)) << path;
    files += " " + path;
  }

  // Two shard processes, each journaling its interleaved slice. Corpus
  // apps have mismatches, so batch exits 1 — not a failure here.
  for (int s = 0; s < 2; ++s) {
    auto [rc, out] = run(std::string(tool_dir()) + "/saintdroid batch" +
                         files + " --jobs 2 --shard " + std::to_string(s) +
                         "/2 --journal tool_test_tmp/shard" +
                         std::to_string(s) + ".jsonl");
    EXPECT_LE(WEXITSTATUS(rc), 1) << out;
    EXPECT_NE(out.find("shard " + std::to_string(s) + "/2"),
              std::string::npos);
  }

  auto [rc, out] = run(std::string(tool_dir()) +
                       "/saintdroid merge-journals tool_test_tmp/merged.jsonl"
                       " tool_test_tmp/shard0.jsonl"
                       " tool_test_tmp/shard1.jsonl");
  EXPECT_EQ(WEXITSTATUS(rc), 0) << out;
  EXPECT_NE(out.find("9 apps, 0 duplicate"), std::string::npos);
  EXPECT_NE(out.find("0 conflicts"), std::string::npos);

  // Merging in the opposite input order produces a byte-identical file.
  auto [rev_rc, rev_out] =
      run(std::string(tool_dir()) +
          "/saintdroid merge-journals tool_test_tmp/merged_rev.jsonl"
          " tool_test_tmp/shard1.jsonl"
          " tool_test_tmp/shard0.jsonl");
  EXPECT_EQ(WEXITSTATUS(rev_rc), 0) << rev_out;
  EXPECT_EQ(slurp("tool_test_tmp/merged.jsonl"),
            slurp("tool_test_tmp/merged_rev.jsonl"));

  // A journal from a different shard layout (an unsharded run of the same
  // apps) is refused loudly, not silently interleaved.
  auto [full_rc, full_out] =
      run(std::string(tool_dir()) + "/saintdroid batch" + files +
          " --jobs 2 --journal tool_test_tmp/full.jsonl");
  EXPECT_LE(WEXITSTATUS(full_rc), 1) << full_out;
  auto [bad_rc, bad_out] =
      run(std::string(tool_dir()) +
          "/saintdroid merge-journals tool_test_tmp/merged_bad.jsonl"
          " tool_test_tmp/shard0.jsonl tool_test_tmp/full.jsonl");
  EXPECT_EQ(WEXITSTATUS(bad_rc), 2) << bad_out;
  EXPECT_NE(bad_out.find("merge-journals"), std::string::npos);
}

TEST_F(ToolsEndToEnd, FleetMergesTheRowsOfOneBatch) {
  // `coordinate` and two concurrent `work --jobs 2` agents over one corpus:
  // merged.jsonl holds exactly the canonical rows of a `batch` journal
  // over the same packages — parsing where the agents analyze, on their
  // pooled workers, changes nothing the fleet produces.
  auto [gen_rc, gen_out] =
      run(std::string(tool_dir()) + "/apkgen corpus tool_test_tmp/fleet 12");
  ASSERT_EQ(gen_rc, 0) << gen_out;
  std::string files;
  for (int i = 0; i < 12; ++i)
    files += " tool_test_tmp/fleet/fdroid-app-" + std::to_string(i) + ".apk";
  fs::remove("tool_test_tmp/fleet_batch.jsonl");
  auto [batch_rc, batch_out] =
      run(std::string(tool_dir()) + "/saintdroid batch" + files +
          " --jobs 2 --journal tool_test_tmp/fleet_batch.jsonl");
  ASSERT_LE(WEXITSTATUS(batch_rc), 1) << batch_out;

  const std::string wd = "tool_test_tmp/fleet_wd";
  fs::remove_all(wd);
  const std::string saintdroid = std::string(tool_dir()) + "/saintdroid";
  const std::string work = saintdroid + " work " + wd +
                           " --jobs 2 --wait 60 --worker ";
  // One subshell, so run() captures the exit codes the last lines echo.
  auto [rc, out] = run(
      "(" + saintdroid + " coordinate " + wd + files +
      " --lease-size 2 --timeout 120 > tool_test_tmp/fleet_coord.log 2>&1 &"
      " c=$!; " +
      work + "a > tool_test_tmp/fleet_a.log 2>&1 & a=$!; " + work +
      "b > tool_test_tmp/fleet_b.log 2>&1 & b=$!;"
      " wait $c; echo coordinate=$?; wait $a; echo a=$?; wait $b; echo b=$?)");
  EXPECT_EQ(rc, 0) << out;
  const std::string coord = slurp("tool_test_tmp/fleet_coord.log");
  // The corpus apps have mismatches: `coordinate` exits 1, not 0.
  EXPECT_NE(out.find("coordinate=1"), std::string::npos) << out << coord;
  EXPECT_NE(out.find("a=0"), std::string::npos) << out;
  EXPECT_NE(out.find("b=0"), std::string::npos) << out;
  EXPECT_NE(coord.find("published 12 apps in 6 leases"), std::string::npos)
      << coord;
  EXPECT_NE(coord.find("startup: read+parse"), std::string::npos) << coord;
  EXPECT_NE(coord.find("0 duplicate rows"), std::string::npos) << coord;
  for (const char* log : {"tool_test_tmp/fleet_a.log",
                          "tool_test_tmp/fleet_b.log"})
    EXPECT_NE(slurp(log).find("lease resolution"), std::string::npos) << log;

  const auto canonical = [](const std::string& path) {
    std::vector<std::string> lines;
    for (const auto& row : load_journal(path))
      lines.push_back(canonical_row_bytes(row));
    std::sort(lines.begin(), lines.end());
    return lines;
  };
  const std::vector<std::string> merged = canonical(wd + "/merged.jsonl");
  EXPECT_EQ(merged.size(), 12u);
  EXPECT_EQ(merged, canonical("tool_test_tmp/fleet_batch.jsonl"));
}

}  // namespace
}  // namespace saintdroid
