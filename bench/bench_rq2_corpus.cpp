// RQ2 — real-world applicability: SAINTDroid over the 3,571-app corpus.
//
// Paper targets (§V-B):
//   * 68,268 potential API invocation mismatches; 41.19% of apps with >= 1
//   * 2,115 API callback mismatches in 20.05% of apps
//   * permission groups: 1,815 apps target >= 23, 1,756 target < 23;
//     224 (12.34%) request mismatches in the first group, 1,206 (68.68%)
//     revocation mismatches in the second; 1,430 apps total
//   * sampled precision: API 85%, APC 100%, PRM 100%
//
// The corpus is seeded to those population rates, but every number below
// is *measured* by running the detector — no ledger facts reach the tool.
//
// Pass an app count as argv[1] to subsample (default: full corpus).
//
// The bench is journal-aware: `--journal <file>` runs the corpus suite
// through the crash-safe journal and `--resume` merges an existing
// journal's rows back instead of re-analyzing them, so the full 3,571-app
// study survives preemption (`bench_rq2_corpus 3571 --journal rq2.jsonl
// [--resume]` after a kill picks up where it died).
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "adf/repository.hpp"
#include "core/saintdroid.hpp"
#include "support/meter.hpp"
#include "support/thread_pool.hpp"
#include "workload/corpus.hpp"
#include "workload/ground_truth.hpp"
#include "workload/harness.hpp"

namespace sd = saintdroid;

int main(int argc, char** argv) {
  const auto& repo = sd::FrameworkRepository::standard();
  const sd::RealWorldCorpus corpus{repo};
  int count = corpus.size();
  std::string journal_path;
  bool resume = false;
  for (int i = 1; i < argc; ++i) {
    if (std::string_view{argv[i]} == "--journal" && i + 1 < argc)
      journal_path = argv[++i];
    else if (std::string_view{argv[i]} == "--resume")
      resume = true;
    else if (argv[i][0] != '-')
      count = std::min(count, std::atoi(argv[i]));
  }
  if (resume && journal_path.empty()) {
    std::fprintf(stderr, "bench_rq2_corpus: --resume needs --journal\n");
    return 2;
  }

  // Per-app wall-clock deadline so one pathological app degrades to a
  // partial report instead of stalling the whole corpus run (see
  // docs/robustness.md). Generous relative to the ~ms medians: it should
  // never fire on a healthy host, but bounds the worst case.
  sd::SaintDroidOptions tool_options;
  tool_options.budget.deadline_seconds = 10.0;

  sd::SaintDroid tool{repo, tool_options};

  std::uint64_t api_total = 0;
  std::uint64_t apc_total = 0;
  int apps_with_api = 0;
  int apps_with_apc = 0;
  int target_ge23 = 0;
  int target_lt23 = 0;
  int request_apps = 0;
  int revocation_apps = 0;

  sd::Score api_score;
  sd::Score apc_score;
  sd::Score prm_score;
  // The paper hand-checks a 60-app sample; we also track a same-sized
  // sample for the like-for-like precision figure.
  sd::Score sample_api;
  int sampled = 0;

  for (int i = 0; i < count; ++i) {
    const sd::BenchApp app = corpus.generate(i);
    const sd::AnalysisResult result = tool.analyze(app.apk);

    const auto api = result.count(sd::MismatchKind::kApiInvocation);
    const auto apc = result.count(sd::MismatchKind::kApiCallback);
    const auto req = result.count(sd::MismatchKind::kPermissionRequest);
    const auto rev = result.count(sd::MismatchKind::kPermissionRevocation);
    api_total += api;
    apc_total += apc;
    if (api) ++apps_with_api;
    if (apc) ++apps_with_apc;
    if (app.apk.manifest.target_sdk >= 23) {
      ++target_ge23;
      if (req) ++request_apps;
    } else {
      ++target_lt23;
      if (rev) ++revocation_apps;
    }

    api_score += sd::score_detections(app.truth, result.mismatches,
                                      sd::MismatchKind::kApiInvocation);
    apc_score += sd::score_detections(app.truth, result.mismatches,
                                      sd::MismatchKind::kApiCallback);
    prm_score += sd::score_detections(app.truth, result.mismatches,
                                      sd::MismatchKind::kPermissionRequest);
    if (sampled < 60 && !result.mismatches.empty()) {
      sample_api += sd::score_detections(app.truth, result.mismatches,
                                         sd::MismatchKind::kApiInvocation);
      ++sampled;
    }
  }

  const double pct = 100.0 / count;
  std::printf("RQ2: SAINTDroid over %d real-world apps\n\n", count);
  std::printf("API invocation mismatches: %llu total; %d apps (%.2f%%) with "
              ">= 1   [paper: 68,268; 41.19%%]\n",
              static_cast<unsigned long long>(api_total), apps_with_api,
              apps_with_api * pct);
  std::printf("API callback mismatches:   %llu total; %d apps (%.2f%%) with "
              ">= 1   [paper: 2,115; 20.05%%]\n",
              static_cast<unsigned long long>(apc_total), apps_with_apc,
              apps_with_apc * pct);
  std::printf("\npermission groups: %d apps target >= 23, %d target < 23 "
              "[paper: 1,815 / 1,756]\n", target_ge23, target_lt23);
  if (target_ge23)
    std::printf("  request mismatches:    %4d apps (%.2f%% of group) "
                "[paper: 224; 12.34%%]\n",
                request_apps, 100.0 * request_apps / target_ge23);
  if (target_lt23)
    std::printf("  revocation mismatches: %4d apps (%.2f%% of group) "
                "[paper: 1,206; 68.68%%]\n",
                revocation_apps, 100.0 * revocation_apps / target_lt23);
  std::printf("  apps with any permission mismatch: %d [paper: 1,430]\n",
              request_apps + revocation_apps);

  std::printf("\nprecision against the seeded ground truth (full corpus):\n");
  std::printf("  API %.1f%%   APC %.1f%%   PRM %.1f%%   "
              "[paper, 60-app sample: 85%% / 100%% / 100%%]\n",
              100.0 * api_score.precision(), 100.0 * apc_score.precision(),
              100.0 * prm_score.precision());
  std::printf("  (60-app sample, paper methodology: API precision %.1f%%)\n",
              100.0 * sample_api.precision());
  std::printf("  recall for reference (ground truth known here, unlike the "
              "paper): API %.1f%%, APC %.1f%%, PRM %.1f%%\n",
              100.0 * api_score.recall(), 100.0 * apc_score.recall(),
              100.0 * prm_score.recall());

  // --- journal pass-through: the resumable full-corpus study -------------
  // With --journal the whole count-app suite runs through the crash-safe
  // journal: a killed run re-invoked with --resume merges every journaled
  // row back and analyzes only the remainder, so the full 3,571-app study
  // survives preemption at the cost of re-running only the in-flight apps.
  if (!journal_path.empty()) {
    const int hw = static_cast<int>(sd::ThreadPool::default_workers());
    const std::vector<sd::BenchApp> all_apps =
        corpus.generate_range(0, count, hw);
    const auto db = tool.shared_database();
    const sd::AnalyzerFactory factory = [&repo, &db, &tool_options] {
      return std::make_unique<sd::SaintDroid>(repo, db, tool_options);
    };
    sd::SuiteRunOptions journal_options;
    journal_options.jobs = hw;
    journal_options.journal_path = journal_path;
    journal_options.resume = resume;
    journal_options.corpus_id = sd::corpus_fingerprint(all_apps);
    const sd::Stopwatch watch;
    const sd::SuiteResult suite =
        sd::run_suite_parallel(factory, all_apps, journal_options);
    std::printf("\njournaled corpus suite -> %s: %zu apps, %zu resumed "
                "from journal, %zu analyzed, %.2fs\n",
                journal_path.c_str(), suite.rows.size(), suite.resumed_rows,
                suite.rows.size() - suite.resumed_rows, watch.seconds());
  }
  return 0;
}
