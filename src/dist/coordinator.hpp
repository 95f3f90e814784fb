// The coordinator side of the work-stealing scheduler: plan the queue,
// publish it, supervise the lease lifecycle, collect the merged result.
//
// The coordinator owns no socket and holds no lock while agents run — its
// entire authority is the published queue.sdwq plus the TTL reclaim pass
// it shares with every agent. After publish it is even optional: agents
// reclaim expired leases themselves, so a coordinator that dies mid-run
// costs nothing but the final collect, which any process can redo later
// against the same work directory.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "dist/lease.hpp"
#include "dist/workdir.hpp"
#include "workload/harness.hpp"
#include "workload/journal.hpp"

namespace saintdroid {

struct CoordinatorOptions {
  /// Apps per lease; <= 0 picks default_lease_size(apps.size()).
  int lease_size = 0;
  /// Recorded in the queue and the collected SuiteResult.
  std::string tool = "saintdroid";
};

/// Builds the work queue for `items` (name, package path, cost estimate,
/// in full-list input order): the largest-cost-first lease plan and the
/// corpus fingerprint over the *full* name list — the same fingerprint a
/// `batch --shard` run of this list would stamp, so work-stealing journals
/// and static-shard journals are mutually merge-checkable. Needs no parsed
/// app: a coordinator can drop each package once it has its name and
/// cost. Throws ConfigError on an empty item list.
WorkQueue plan_work_queue(std::vector<WorkItem> items,
                          const CoordinatorOptions& options = {});

/// The same plan from parsed apps: items named after the apps, costed by
/// estimate_app_cost. `paths`, when non-empty, must parallel `apps`
/// (paths[i] is where an out-of-process agent loads apps[i]); empty paths
/// leave items resolvable by name only. Throws ConfigError on an empty app
/// list or a paths/apps length mismatch.
WorkQueue plan_work_queue(std::span<const BenchApp> apps,
                          std::span<const std::string> paths,
                          const CoordinatorOptions& options = {});

struct SuperviseOptions {
  /// Claims whose heartbeat is older than this are reclaimed and reissued.
  std::uint64_t ttl_seconds = 60;
  double poll_seconds = 0.1;
  /// Give up after this long; 0 = supervise until finished.
  double timeout_seconds = 0;
};

struct SuperviseOutcome {
  /// Every lease reached done (false only on timeout).
  bool finished = false;
  /// Expired leases this supervisor reissued.
  int reclaimed = 0;
};

/// Coordinator main loop after publish: poll the lease census, reclaim
/// expired claims, return once every lease is done (or timeout elapses).
SuperviseOutcome supervise(const WorkDir& dir,
                           const SuperviseOptions& options = {});

/// collect()'s output: the rebuilt suite plus the journal merge that
/// produced it (duplicates = rows re-executed by reclaims or races;
/// conflicts = determinism violations, never acceptable).
struct CollectResult {
  SuiteResult suite;
  JournalMerge merge;
};

/// Merges every worker journal into merged.jsonl and rebuilds the
/// SuiteResult in queue-item (input) order — the same row order a
/// single-process `run_suite_parallel` over the full list produces, so the
/// differential tests can compare them directly. Lease accounting
/// (leases_issued / leases_reclaimed / per-worker lease counts) is read
/// from the .done files. Throws ConfigError when the directory has no
/// queue or no worker journals, and Error when a queue item has no merged
/// row (the work directory is not finished).
CollectResult collect(const WorkDir& dir);

}  // namespace saintdroid
