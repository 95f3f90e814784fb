// Table III — per-app analysis time for SAINTDroid, CID and Lint on the 19
// buildable benchmark apps.
//
// Methodology mirrors the paper (§IV-C): static analyses are repeated three
// times and averaged; Lint gets four consecutive runs with the first
// discarded (its build warms caches). Dashes mark tools that fail on an
// app (CID exceeds its analysis budget on the four largest apps; Lint
// crashes on the largest). Expected shape: SAINTDroid fastest on nearly
// every app — up to ~8x and ~4x on average against the baselines — with
// Lint competitive only on the smallest apps.
#include <cstdio>
#include <string>
#include <vector>

#include "adf/repository.hpp"
#include "baselines/cid.hpp"
#include "baselines/lint.hpp"
#include "core/saintdroid.hpp"
#include "support/stats.hpp"
#include "workload/benchmarks.hpp"

namespace sd = saintdroid;

namespace {

/// Average analysis seconds over `runs` repetitions, skipping `discard`
/// leading runs; negative when the tool fails on the app.
double timed_runs(sd::Analyzer& tool, const sd::Apk& apk, int runs,
                  int discard) {
  double total = 0.0;
  int counted = 0;
  for (int i = 0; i < runs; ++i) {
    const sd::AnalysisResult result = tool.analyze(apk);
    if (!result.completed) return -1.0;
    if (i < discard) continue;
    total += result.usage.seconds;
    ++counted;
  }
  return total / counted;
}

std::string cell(double seconds) {
  if (seconds < 0) return "--";
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.2f", seconds * 1000.0);
  return buf;
}

}  // namespace

int main() {
  const auto& repo = sd::FrameworkRepository::standard();
  const auto apps = sd::accuracy_bench(repo);

  // Per-app wall-clock deadline (docs/robustness.md): a stalled analysis
  // degrades to a partial report instead of hanging the bench. Sized to
  // never fire on a healthy host.
  sd::SaintDroidOptions saint_options;
  saint_options.budget.deadline_seconds = 10.0;

  sd::SaintDroid saint{repo, saint_options};
  sd::CidAnalyzer cid{repo};
  sd::LintAnalyzer lint{repo};

  std::printf("Table III: analysis time (milliseconds; average of 3 runs, "
              "Lint: last 3 of 4)\n\n");
  std::printf("%-18s %10s %12s %12s %12s\n", "app", "dex KLOC", "SAINTDroid",
              "CID", "Lint");

  sd::OnlineStats saint_stats;
  std::vector<double> cid_ratios;
  std::vector<double> lint_ratios;

  for (const auto& app : apps) {
    const double t_saint = timed_runs(saint, app.apk, 3, 0);
    const double t_cid = timed_runs(cid, app.apk, 3, 0);
    const double t_lint = timed_runs(lint, app.apk, 4, 1);

    std::printf("%-18s %10.1f %12s %12s %12s\n", app.apk.name.c_str(),
                app.apk.kloc(), cell(t_saint).c_str(), cell(t_cid).c_str(),
                cell(t_lint).c_str());

    saint_stats.add(t_saint * 1000.0);
    if (t_cid > 0) cid_ratios.push_back(t_cid / t_saint);
    if (t_lint > 0) lint_ratios.push_back(t_lint / t_saint);
  }

  const auto summarize = [](const char* name,
                            const std::vector<double>& ratios) {
    if (ratios.empty()) return;
    sd::OnlineStats s;
    for (const double r : ratios) s.add(r);
    std::printf("  vs %-5s  speedup avg %.1fx, max %.1fx (over %zu apps "
                "both tools complete)\n",
                name, s.mean(), s.max(), s.count());
  };

  std::printf("\nSAINTDroid: avg %.2f ms per app (%.2f - %.2f ms)\n",
              saint_stats.mean(), saint_stats.min(), saint_stats.max());
  summarize("CID", cid_ratios);
  summarize("Lint", lint_ratios);
  std::printf("\npaper targets: SAINTDroid up to 8.3x faster, ~4x on "
              "average; CID fails on the 4 largest apps; Lint fastest only "
              "on the smallest apps.\n");

  return 0;
}
