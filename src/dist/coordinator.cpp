#include "dist/coordinator.hpp"

#include <chrono>
#include <map>
#include <thread>
#include <unordered_map>

#include "support/errors.hpp"
#include "support/meter.hpp"

namespace saintdroid {

WorkQueue plan_work_queue(std::vector<WorkItem> items,
                          const CoordinatorOptions& options) {
  if (items.empty())
    throw ConfigError("plan_work_queue: cannot plan an empty corpus");
  std::vector<std::string> names;
  names.reserve(items.size());
  for (const auto& item : items) names.push_back(item.name);
  WorkQueue queue;
  queue.corpus = corpus_fingerprint(names);
  queue.tool = options.tool;
  queue.items = std::move(items);
  const int lease_size = options.lease_size > 0
                             ? options.lease_size
                             : default_lease_size(queue.items.size());
  queue.leases = plan_leases(queue.items, lease_size);
  return queue;
}

WorkQueue plan_work_queue(std::span<const BenchApp> apps,
                          std::span<const std::string> paths,
                          const CoordinatorOptions& options) {
  if (!paths.empty() && paths.size() != apps.size())
    throw ConfigError("plan_work_queue: " + std::to_string(paths.size()) +
                      " paths for " + std::to_string(apps.size()) + " apps");
  std::vector<WorkItem> items(apps.size());
  for (std::size_t i = 0; i < apps.size(); ++i) {
    items[i].name = apps[i].apk.name;
    if (!paths.empty()) items[i].path = paths[i];
    items[i].cost = estimate_app_cost(apps[i].apk);
  }
  return plan_work_queue(std::move(items), options);
}

SuperviseOutcome supervise(const WorkDir& dir,
                           const SuperviseOptions& options) {
  SuperviseOutcome outcome;
  const Stopwatch watch;
  const auto poll = std::chrono::milliseconds(std::max<long long>(
      1, static_cast<long long>(options.poll_seconds * 1000.0)));
  // Staleness is observed, not computed from stamps: the monitor reclaims
  // a claim only after its bytes sat unchanged for the TTL on *this*
  // process's steady clock, so wall-clock skew between the coordinator and
  // its workers cannot spuriously reclaim a live lease.
  LeaseMonitor monitor{dir};
  for (;;) {
    outcome.reclaimed += monitor.reclaim_stale(options.ttl_seconds);
    const WorkDirStatus status = dir.status();
    if (status.finished()) {
      outcome.finished = true;
      return outcome;
    }
    if (options.timeout_seconds > 0 &&
        watch.seconds() >= options.timeout_seconds)
      return outcome;
    std::this_thread::sleep_for(poll);
  }
}

CollectResult collect(const WorkDir& dir) {
  const std::optional<WorkQueue> queue = dir.load_queue();
  if (!queue.has_value())
    throw ConfigError("collect: no work queue in " + dir.root());
  const std::vector<std::string> journals = dir.worker_journals();
  if (journals.empty())
    throw ConfigError("collect: no worker journals in " + dir.root());

  CollectResult result;
  result.merge = merge_journals(journals);
  write_journal(dir.merged_journal_path(), result.merge.header,
                result.merge.rows);

  std::unordered_map<std::string, const SuiteAppRow*> by_app;
  by_app.reserve(result.merge.rows.size());
  for (const auto& row : result.merge.rows) by_app.emplace(row.app, &row);

  std::vector<SuiteAppRow> ordered;
  ordered.reserve(queue->items.size());
  for (const auto& item : queue->items) {
    const auto it = by_app.find(item.name);
    if (it == by_app.end())
      throw Error("collect: no journal row for app " + item.name +
                  " — is the work directory finished?");
    ordered.push_back(*it->second);
  }
  result.suite = suite_from_rows(queue->tool, std::move(ordered));

  result.suite.leases_issued = queue->leases.size();
  // std::map, not unordered: worker_lease_counts comes out name-sorted, so
  // reports and bench JSON are deterministic across runs.
  std::map<std::string, int> per_worker;
  for (const LeaseState& state : dir.done_states()) {
    result.suite.leases_reclaimed +=
        static_cast<std::size_t>(state.generation);
    ++per_worker[state.worker.empty() ? std::string{"(unknown)"}
                                      : state.worker];
  }
  result.suite.worker_lease_counts.reserve(per_worker.size());
  for (const auto& [worker, leases] : per_worker)
    result.suite.worker_lease_counts.push_back({worker, leases});
  return result;
}

}  // namespace saintdroid
