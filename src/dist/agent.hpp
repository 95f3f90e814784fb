// The worker side of the work-stealing scheduler: claim a lease, analyze
// its apps through the ordinary journaled suite harness, mark it done, ask
// for more. An agent is just a loop around primitives that already exist —
// WorkDir::claim_next for mutual exclusion, run_suite_parallel for the
// analysis (warm FrameworkSubstrate + ModelCache, per-app fault isolation,
// crash-safe journal), WorkDir::complete for the done marker. Before a
// lease's analysis the agent resolves its items into apps on the same
// `jobs` workers; for the CLI `work` command that is where packages are
// read and parsed, once per fleet — the coordinator keeps only each
// package's name, path and cost. One agent with jobs=N uses the same
// in-process fan-out as `batch --jobs N`; many agents on one work
// directory — threads, processes, hosts on a shared filesystem — steal
// from the same queue without coordinating with each other at all.
//
// Crash story: an agent that dies mid-lease leaves a claim file whose
// heartbeat goes stale; any surviving agent (or the coordinator) reclaims
// it after the TTL and the lease is re-analyzed. Rows the dead agent
// already journaled are not lost — they dedup byte-identically against the
// re-run's rows at merge time. An agent that *stalls* (not dies) keeps
// journaling too; same dedup argument. Nothing is ever lost, at worst work
// is repeated — at-least-once delivery on top of a deterministic analysis.
#pragma once

#include <cstdint>
#include <functional>
#include <span>
#include <string>

#include "dist/workdir.hpp"
#include "workload/harness.hpp"

namespace saintdroid {

/// Turns one queue item into an analyzable app. In-process agents (tests,
/// benches) resolve item.name against an already-loaded corpus; the CLI
/// `work` command reads and parses item.path from disk — the one place a
/// fleet parses each package. Must be pure: every execution of a lease
/// must see the same app bytes. Must be thread-safe: run_agent resolves a
/// lease's items concurrently on its `jobs` workers.
using AppResolver = std::function<BenchApp(const WorkItem&)>;

struct AgentOptions {
  /// Unique agent identity: names the claim owner and the agent's journal
  /// (journal-<worker>.jsonl). Two live agents must never share a name —
  /// they would interleave one journal. A *restarted* agent reusing its
  /// predecessor's name is fine (the journal resumes).
  std::string worker;
  /// In-process fan-out per lease, for resolving its items and for
  /// analyzing them; <= 0 resolves to hardware concurrency, exactly like
  /// `batch --jobs 0`.
  int jobs = 1;
  /// Claims whose heartbeat is older than this are reclaimed.
  std::uint64_t ttl_seconds = 60;
  /// Idle wait between claim attempts when other agents hold every lease,
  /// and between queue-existence polls before the coordinator publishes.
  double poll_seconds = 0.05;
  /// How long to wait for queue.sdwq to appear before giving up (an agent
  /// may legitimately start before its coordinator).
  double queue_wait_seconds = 10.0;
  /// Stop after completing (or losing) this many leases; 0 = run until the
  /// work directory is finished. The kill-a-worker tests use 1.
  int max_leases = 0;
  AppResolver resolve;
  AnalyzerFactory factory;
  /// On-disk model cache: when both fields are set, `repository` is
  /// pointed at `model_cache_dir` once the queue is found, before any
  /// lease's warmup (see core/model_cache.hpp).
  std::string model_cache_dir;
  const FrameworkRepository* repository = nullptr;
  /// Per-lease warmup, called with the lease's slice before its fan-out.
  std::function<void(std::span<const BenchApp>)> warmup;
  /// Graceful-shutdown probe (e.g. shutdown_requested), polled before each
  /// claim and between the apps of the running lease. Once true, the agent
  /// finishes its in-flight app, seals its journal, leaves the current
  /// claim unmarked (the heartbeat stops, so survivors reclaim it after
  /// the TTL — or a restarted agent of the same name resumes it), and
  /// returns with AgentResult::interrupted set. Must be thread-safe.
  std::function<bool()> interrupted;
};

struct AgentResult {
  /// Effective in-process jobs after resolving jobs <= 0.
  int jobs = 1;
  int leases_completed = 0;
  /// Leases fully analyzed whose claim had been reclaimed before
  /// complete() — the rows still count, they dedup at merge.
  int leases_lost = 0;
  /// Expired claims this agent reissued for others (or itself) to re-claim.
  int leases_reclaimed = 0;
  std::size_t apps_analyzed = 0;
  /// Rows merged back from this agent's own journal instead of re-analyzed
  /// (only re-executions of a reclaimed lease have any).
  std::size_t rows_resumed = 0;
  std::uint64_t framework_retries = 0;
  /// Wall seconds spent resolving lease items into apps (for `work`:
  /// reading and parsing packages), summed over leases.
  double resolve_seconds = 0;
  /// The loop stopped because AgentOptions::interrupted fired. The journal
  /// is sealed; rows already analyzed are on disk.
  bool interrupted = false;
};

/// Runs the agent loop until the work directory is finished (every lease
/// done), max_leases is reached, or no queue appears within
/// queue_wait_seconds (ConfigError). Throws ConfigError on missing
/// worker/resolve/factory.
AgentResult run_agent(const WorkDir& dir, const AgentOptions& options);

}  // namespace saintdroid
