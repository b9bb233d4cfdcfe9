#include "obs/export.h"

#include <cstdlib>
#include <fstream>
#include <vector>

#ifdef __linux__
#include <unistd.h>
#endif

#include "obs/span.h"
#include "util/csv_writer.h"

namespace msp::obs {

namespace {

bool EndsWith(const std::string& s, const std::string& suffix) {
  return s.size() >= suffix.size() &&
         s.compare(s.size() - suffix.size(), suffix.size(), suffix) == 0;
}

}  // namespace

bool WriteMetricsFile(const Registry& registry, const std::string& path,
                      std::string* error) {
  if (EndsWith(path, ".csv")) {
    CsvWriter csv(path);
    if (!csv.ok()) {
      if (error) *error = "cannot open metrics file: " + path;
      return false;
    }
    csv.WriteRow({"metric", "labels", "field", "value"});
    std::vector<std::vector<std::string>> rows;
    registry.WriteCsvRows(&rows);
    for (const auto& row : rows) csv.WriteRow(row);
    return true;
  }
  std::ofstream out(path, std::ios::trunc);
  if (!out) {
    if (error) *error = "cannot open metrics file: " + path;
    return false;
  }
  registry.WritePrometheus(out);
  out.flush();
  if (!out) {
    if (error) *error = "failed writing metrics file: " + path;
    return false;
  }
  return true;
}

bool WriteTraceFile(const std::string& path, std::string* error) {
  std::ofstream out(path, std::ios::trunc);
  if (!out) {
    if (error) *error = "cannot open trace file: " + path;
    return false;
  }
  Tracer::WriteChromeTrace(out);
  out.flush();
  if (!out) {
    if (error) *error = "failed writing trace file: " + path;
    return false;
  }
  return true;
}

// ---------------------------------------------------------------------
// The canonical series list. Pre-registering gives `--metrics-out`
// dumps a stable spine: planner, online, and durability series are
// present (as zeros) even on runs that never exercise them.

void RegisterStandardMetrics(Registry* registry) {
  // planner.*
  registry->counter("planner.plans_total");
  registry->counter("planner.cache_hits_total");
  registry->counter("planner.cache_misses_total");
  registry->counter("planner.cache_evictions_total");
  registry->gauge("planner.cache_entries");
  registry->counter("planner.portfolio_runs_total");
  registry->counter("planner.auto_runs_total");
  registry->counter("planner.infeasible_total");
  registry->histogram("planner.plan_latency_us");
  // online.*
  registry->counter("online.updates_rejected_total");
  registry->counter("online.churn_inputs_moved_total");
  registry->counter("online.churn_inputs_dropped_total");
  registry->counter("online.reducers_created_total");
  registry->counter("online.reducers_destroyed_total");
  registry->counter("online.policy_consults_total");
  registry->counter("online.repairs_total");
  registry->counter("online.replans_total");
  registry->counter("online.plans_computed_total");
  registry->histogram("online.repair_latency_us");
  // serving.*
  registry->counter("serving.tasks_processed_total");
  registry->counter("serving.updates_skipped_total");
  // durability.*
  registry->counter("durability.records_appended_total");
  registry->counter("durability.bytes_appended_total");
  registry->counter("durability.fsyncs_total");
  registry->counter("durability.rotations_total");
  registry->histogram("durability.fsync_latency_us");
  registry->histogram("durability.group_commit_batch");
  registry->histogram("durability.recovery_replay_us");
  // mr.* (engine jobs; labeled by kind at record time)
  registry->counter("mr.jobs_total");
  registry->counter("mr.shuffle_bytes_total");
  registry->counter("mr.shuffle_records_total");
  // Allocation ledgers (obs/alloc.h AllocScope around each hot path).
  registry->counter("planner.alloc_bytes_total");
  registry->counter("planner.allocs_total");
  registry->counter("online.alloc_bytes_total");
  registry->counter("online.allocs_total");
  registry->counter("sim.alloc_bytes_total");
  registry->counter("sim.allocs_total");
  // Self-diagnosis (obs/watchdog.h).
  registry->counter("watchdog.stalls_total");
  // process.* (refreshed by SampleProcessMetrics at each dump)
  registry->gauge("process.uptime_seconds");
  registry->gauge("process.rss_bytes");
  registry->gauge("process.threads");
}

void SampleProcessMetrics(Registry* registry) {
  registry->gauge("process.uptime_seconds")
      ->Set(static_cast<int64_t>(MonotonicMicros() / 1000000));
  int64_t rss_bytes = 0;
  int64_t threads = 0;
#ifdef __linux__
  {
    // /proc/self/statm: "size resident shared ..." in pages.
    std::ifstream statm("/proc/self/statm");
    uint64_t size_pages = 0;
    uint64_t resident_pages = 0;
    if (statm >> size_pages >> resident_pages) {
      rss_bytes = static_cast<int64_t>(
          resident_pages *
          static_cast<uint64_t>(::sysconf(_SC_PAGESIZE)));
    }
  }
  {
    std::ifstream status("/proc/self/status");
    std::string line;
    while (std::getline(status, line)) {
      if (line.rfind("Threads:", 0) == 0) {
        threads = std::strtoll(line.c_str() + 8, nullptr, 10);
        break;
      }
    }
  }
#endif
  registry->gauge("process.rss_bytes")->Set(rss_bytes);
  registry->gauge("process.threads")->Set(threads);
}

}  // namespace msp::obs
