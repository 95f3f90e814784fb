// End-to-end coverage of the command-line tools, driven through the shell
// the way a user runs them: apkgen writes packages to disk, saintdroid
// analyzes/disassembles/mines, appgraph dumps graphs. CTest runs these
// with the tests/ binary dir as CWD; the tool binaries live in ../tools.
#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <string>

namespace saintdroid {
namespace {

namespace fs = std::filesystem;

const char* tool_dir() { return "../tools"; }

bool tools_present() {
  return fs::exists(fs::path(tool_dir()) / "saintdroid") &&
         fs::exists(fs::path(tool_dir()) / "apkgen") &&
         fs::exists(fs::path(tool_dir()) / "appgraph");
}

/// Runs a command, captures stdout, returns {exit code, output}.
std::pair<int, std::string> run(const std::string& command) {
  const std::string log = "tool_test_output.txt";
  const int rc = std::system((command + " > " + log + " 2>&1").c_str());
  std::ifstream in{log};
  std::string output{std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>()};
  return {rc, output};
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

TEST_F(ToolsEndToEnd, UsageOnBadArguments) {
  auto [rc, out] = run(std::string(tool_dir()) + "/saintdroid");
  EXPECT_NE(WEXITSTATUS(rc), 0);
  EXPECT_NE(out.find("usage:"), std::string::npos);
}

std::string slurp(const std::string& path) {
  std::ifstream in{path, std::ios::binary};
  return {std::istreambuf_iterator<char>(in),
          std::istreambuf_iterator<char>()};
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

}  // namespace
}  // namespace saintdroid
