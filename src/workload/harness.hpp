// Head-to-head evaluation harness: runs an analyzer over a suite of
// ground-truthed apps and aggregates the confusion counts the paper's
// Table II reports. Shared by the accuracy bench and the integration
// regression gates so both always agree on methodology (failed runs count
// every real issue in the app as a miss, per family).
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "core/analyzer.hpp"
#include "core/outcome.hpp"
#include "workload/benchmarks.hpp"
#include "workload/ground_truth.hpp"

namespace saintdroid {

class FrameworkRepository;

/// Per-family confusion counts.
struct FamilyScores {
  Score api;
  Score apc;
  Score prm;
  Score sem;  ///< semantic-change findings (MismatchKind::kSemanticChange)
  Score sdc;  ///< declared-SDK lint findings (MismatchKind::kSdkDeclaration)

  Score total() const;
  FamilyScores& operator+=(const FamilyScores& other);
};

/// One app's outcome under one tool.
struct SuiteAppRow {
  std::string app;
  bool completed = true;
  /// Budget-degraded partial report (run completed, coverage did not).
  bool incomplete = false;
  std::string failure_reason;
  /// Structured failure (taxonomy kind, phase, message) when !completed.
  std::optional<AnalysisFailure> failure;
  /// Detections reported, independent of ground-truth scoring — what the
  /// batch CLI prints when no ledger exists.
  std::size_t mismatch_count = 0;
  FamilyScores scores;
  ResourceUsage usage;
  /// How the incremental analysis layer served this app (all-zero when no
  /// incremental cache was configured). Operational telemetry, journaled
  /// sparsely and cleared in canonical row bytes: a cache hit and a full
  /// run are required to produce identical canonical rows.
  IncrementalStats incr;
};

/// How many leases one worker completed in a work-stealing run — the
/// skew-visibility datum: a fast worker shows more leases, a straggler
/// fewer, and a dead worker's leases show up under whoever reclaimed them.
struct WorkerLeaseCount {
  std::string worker;
  int leases = 0;
};

/// One tool's outcome over a whole suite.
struct SuiteResult {
  std::string tool;
  std::vector<SuiteAppRow> rows;
  FamilyScores aggregate;
  int failures = 0;
  /// Rows whose analysis completed but was budget-degraded (partial
  /// coverage, SuiteAppRow::incomplete) — surfaced separately in batch
  /// summaries so overload shedding is visible in offline runs too.
  int incomplete = 0;
  /// Apps skipped because a graceful-shutdown stop was requested mid-run
  /// (SuiteRunOptions::stop). Their slots are dropped from `rows`; a
  /// resumed run analyzes exactly these apps.
  std::size_t skipped_rows = 0;
  /// Framework build retries (see framework_build_retries() in
  /// adf/repository.hpp) observed process-wide during this run: image or
  /// substrate once-guard re-entries after a failed attempt. Zero on a
  /// healthy host; nonzero means transient framework failures were retried
  /// and is worth surfacing in batch summaries. Operational telemetry —
  /// not part of the deterministic row contract.
  std::uint64_t framework_retries = 0;
  /// Rows merged back from the journal instead of being analyzed (only a
  /// resumed run has any). Operational telemetry — the rows themselves are
  /// identical either way, this just records how much work resume saved.
  std::size_t resumed_rows = 0;
  /// Lease accounting of a distributed work-stealing run (src/dist) —
  /// filled by the coordinator's collect(), zero/empty everywhere else.
  /// Operational telemetry, never part of the deterministic row contract.
  std::size_t leases_issued = 0;
  /// Reclaim generations summed over all leases: how many times an expired
  /// or crashed claim was reissued. Zero on a healthy run.
  std::size_t leases_reclaimed = 0;
  /// Per-worker completed-lease counts, sorted by worker name.
  std::vector<WorkerLeaseCount> worker_lease_counts;
  /// Suite-wide incremental-layer counters, summed over rows. Operational
  /// telemetry — batch summaries surface it; never part of the
  /// deterministic row contract.
  IncrementalStats incremental;
};

/// Deterministic interleaved shard slice for multi-process corpus runs:
/// shard `shard_index` of `shard_count` owns apps at input positions
/// {shard_index, shard_index + shard_count, ...}, in input order. The
/// slices partition the input exactly, and interleaving balances the
/// long-tailed app-size distribution across shards, which (unlike the
/// in-process workers) cannot claim each other's apps. Throws ConfigError
/// unless
/// 0 <= shard_index < shard_count.
std::vector<BenchApp> shard_slice(std::span<const BenchApp> apps,
                                  int shard_index, int shard_count);

/// Order-sensitive FNV-1a fingerprint over the app names of `apps`,
/// rendered as 16 hex digits. Two shard journals merge only if they were
/// cut from app lists with the same fingerprint — always fingerprint the
/// *full* list, before shard_slice.
std::string corpus_fingerprint(std::span<const BenchApp> apps);

/// The same fingerprint over bare app names, in order: for callers that
/// keep names rather than parsed apps (the work-stealing coordinator).
/// corpus_fingerprint(apps) equals this over the apps' names.
std::string corpus_fingerprint(std::span<const std::string> names);

/// Rebuilds a SuiteResult from already-scored rows — e.g. merged journal
/// rows reordered to corpus order by the work-stealing coordinator. Folds
/// the aggregate and failure count with exactly the semantics of run_suite
/// so a rebuilt result compares equal to a live run's (wall-clock usage
/// fields aside).
SuiteResult suite_from_rows(std::string tool, std::vector<SuiteAppRow> rows);

/// Analyzes and scores one app — the single definition of row semantics
/// shared by the serial and parallel suite paths and by the online serve
/// layer, so a served response row is byte-identical to the row a batch
/// run would journal for the same app. Runs inside the analyze_outcome
/// isolation boundary: a throwing analysis becomes a structured failure
/// row, never an escaping exception.
SuiteAppRow analyze_app_row(Analyzer& tool, const BenchApp& app);

/// Runs `tool` over `apps`, scoring each result against its ledger. Every
/// per-app analysis runs inside the analyze_outcome isolation boundary: an
/// app whose analysis throws yields a structured failure row (never sinks
/// the suite), and a failed analysis contributes every real issue of the
/// app as a false negative in its family.
SuiteResult run_suite(Analyzer& tool, std::span<const BenchApp> apps);

/// Makes one analyzer instance for one worker of a parallel suite run.
/// Called once per worker (not per app); implementations should share the
/// expensive immutable state — the FrameworkRepository and a pre-mined
/// ApiDatabase — and keep only cheap mutable state per instance. Must be
/// callable from the submitting thread before any worker runs.
using AnalyzerFactory = std::function<std::unique_ptr<Analyzer>()>;

/// Parallel run_suite: runs `apps` on `jobs` workers, each with its own
/// factory-made analyzer, and merges rows back in input order. Workers
/// claim the next unanalyzed slot from one shared counter, so a
/// long-tailed app-size distribution keeps every worker busy until the
/// suite drains. The result is deterministic — identical rows, aggregate,
/// and failure count to run_suite for any `jobs`, because every row slot
/// is written exactly once at its input index and aggregation happens
/// after the join, in order. (Wall-clock fields inside ResourceUsage still
/// vary run to run, exactly as they do serially.) `jobs <= 1` degenerates
/// to the serial loop on the calling thread.
SuiteResult run_suite_parallel(const AnalyzerFactory& factory,
                               std::span<const BenchApp> apps, int jobs);

/// What warm_target_levels did. Operational telemetry for the batch
/// summary's startup line.
struct WarmupStats {
  /// Distinct clamped target levels warmed.
  std::size_t levels = 0;
  /// Images parsed from / substrates rebound from the model cache during
  /// the warm-up (deltas of the repository's counters).
  std::uint64_t image_cache_hits = 0;
  std::uint64_t substrate_cache_hits = 0;
  double seconds = 0.0;
};

/// Builds the shared framework substrate (and with it the image) of every
/// distinct clamped level among `target_levels` (the apps' manifest target
/// SDKs, duplicates welcome), up to `jobs` levels at a time on a thread
/// pool — the warm-up of `batch` and `work`. A level whose build fails is
/// skipped: the analyses against it retry and attribute the failure to
/// their own rows. Never throws.
WarmupStats warm_target_levels(const FrameworkRepository& repo,
                               std::span<const int> target_levels, int jobs);

/// Knobs for a journaled (crash-safe, resumable) suite run.
struct SuiteRunOptions {
  int jobs = 1;
  /// When non-empty, every completed row is appended to this JSONL journal
  /// as soon as it finishes (flushed per row), so a killed run loses at
  /// most the rows in flight.
  std::string journal_path;
  /// Skip apps already present in the journal: their journaled rows are
  /// merged back verbatim (matched by app name) and only the remainder is
  /// analyzed. Without a journal_path this is a no-op.
  bool resume = false;
  /// Journal header metadata (journal schema 2): the fingerprint of the
  /// full app list this run is a slice of (corpus_fingerprint, empty for
  /// "unspecified") and this run's shard spec. Recorded as the journal's
  /// first line; on resume, a journal whose header names a different
  /// corpus or shard fails loudly instead of silently interleaving runs,
  /// and merge-journals uses the same header to refuse mismatched shards.
  std::string corpus_id;
  int shard_index = 0;
  int shard_count = 1;
  /// Run once from the calling thread after resume merging, before the
  /// serial loop or any worker starts — the place to pre-build shared
  /// immutable state (framework images, substrates) so a cold cache is
  /// warmed once instead of stampeded by the fan-out (warm_target_levels
  /// fans the levels out itself). Must not throw; swallow per-level
  /// failures and let the analyses attribute them.
  std::function<void()> warmup;
  /// Graceful-shutdown probe, polled between apps (never mid-analysis).
  /// Once it returns true, no further app is started: the in-flight apps
  /// finish and journal normally, the not-yet-started ones are skipped and
  /// counted in SuiteResult::skipped_rows. Must be thread-safe (workers of
  /// a parallel run poll it concurrently); an empty function never stops.
  std::function<bool()> stop;
};

/// run_suite_parallel with a crash-safe journal. Rows land at their input
/// index exactly as in the plain overload; journal append order follows
/// completion order, which is fine because resume matches rows by app
/// name, not position. A resumed run's SuiteResult equals the result of an
/// uninterrupted run except for wall-clock usage fields of resumed rows.
SuiteResult run_suite_parallel(const AnalyzerFactory& factory,
                               std::span<const BenchApp> apps,
                               const SuiteRunOptions& options);

/// The app of one suite slot, produced on the worker that analyzes it and
/// released once its row is written. The span overloads lend the caller's
/// app (an owner-less pointer, no copy); a streaming caller hands over an
/// app it just parsed, so a suite never holds more than one parsed app per
/// worker.
using SlotApp = std::shared_ptr<const BenchApp>;

/// Produces the app of slot i (never null), whose name must be names[i].
/// Called at most once per slot — never for a slot merged back by resume
/// or skipped by `stop` — from the worker about to analyze it, so
/// concurrently for distinct slots. Runs inside the per-app isolation
/// boundary: an exception becomes that slot's structured failure row
/// (phase "resolve"), named names[i].
using SlotResolver = std::function<SlotApp(std::size_t)>;

/// The streaming core every run_suite_parallel overload forwards to: the
/// suite is `names`, in input order (resume matching, failure rows), and
/// each app comes from `resolve` where it is analyzed. Same rows, journal
/// and stop/resume semantics as the span overloads over the same apps.
SuiteResult run_suite_parallel(const AnalyzerFactory& factory,
                               std::span<const std::string> names,
                               const SlotResolver& resolve,
                               const SuiteRunOptions& options);

}  // namespace saintdroid
