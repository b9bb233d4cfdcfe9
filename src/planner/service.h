// PlannerService — thread-safe planning facade over src/core.
//
// The service answers "which mapping schema, for this size vector and
// q" fast and repeatedly. Requests are canonicalized (canonical.h) and
// take one of two paths:
//
//  * auto (PlanOptions::use_portfolio false — the serving default — or
//    a budget too tight for the portfolio): the SolveA2AAuto /
//    SolveX2YAuto dispatcher runs on the canonical instance and the
//    schema is rewritten back to the request's ids. This is the paper's
//    construction as is: no post-pass and no plan cache, so an auto
//    plan counts as neither a cache hit nor a miss.
//  * portfolio: the canonical instance is looked up in a sharded LRU
//    plan cache (plan_cache.h) — permuted / uniformly-scaled instances
//    share one entry — and solved on a miss by the concurrent algorithm
//    portfolio (portfolio.h). Cache hits do no solving at all: the
//    cached canonical schema is rewritten back to the request's
//    original input ids and returned.
//
// The cache holds only portfolio plans, so neither kind of plan is ever
// served for the other.
//
//   PlannerService planner;
//   auto in = A2AInstance::Create({8, 6, 4, 2}, 12).value();
//   PlanResult r = planner.Plan(in);           // cold: runs portfolio
//   PlanResult r2 = planner.Plan(in);          // warm: cache hit
//   planner.PrintStats(std::cerr);
//
// All public methods are safe to call from any number of threads.

#ifndef MSP_PLANNER_SERVICE_H_
#define MSP_PLANNER_SERVICE_H_

#include <cstdint>
#include <iosfwd>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "core/instance.h"
#include "core/schema.h"
#include "obs/histogram.h"
#include "obs/metrics.h"
#include "planner/plan_cache.h"
#include "planner/portfolio.h"
#include "util/thread_pool.h"

namespace msp::planner {

/// Construction-time configuration of a PlannerService.
struct PlannerConfig {
  /// Worker threads for portfolio runs and PlanMany batches
  /// (0 = hardware concurrency).
  std::size_t num_threads = 0;
  /// Number of independent plan-cache shards (portfolio plans only).
  std::size_t cache_shards = 8;
  /// LRU capacity of each shard (total capacity = shards * this).
  std::size_t cache_capacity_per_shard = 256;
  /// Plan() falls back from the portfolio to the auto dispatcher when
  /// the request's budget_ms is positive and below this threshold.
  double portfolio_min_budget_ms = 1.0;
  /// Optional metrics sink: when set, the service publishes
  /// planner.* counters and the plan-latency histogram into it.
  /// Latency percentiles are always available via latency() either
  /// way (the service owns a histogram when no registry is attached).
  obs::Registry* metrics = nullptr;
};

/// Per-request knobs.
struct PlanOptions {
  /// When false, skip the portfolio and use the auto dispatcher.
  bool use_portfolio = true;
  /// Soft time budget in milliseconds; 0 means unlimited. A tight
  /// budget (< PlannerConfig::portfolio_min_budget_ms) selects the
  /// auto dispatcher (and so skips the cache) instead of the portfolio.
  double budget_ms = 0.0;
};

/// Outcome of one Plan() call. The schema (when present) is expressed
/// over the *original* instance's input ids and passes
/// ValidateA2A/ValidateX2Y for it.
struct PlanResult {
  std::optional<MappingSchema> schema;  // nullopt: infeasible instance
  bool cache_hit = false;
  std::string algorithm;  // winning algorithm ("" when infeasible)
  SchemaStats stats;      // computed against the original instance
  /// Per-algorithm scoreboard; empty on cache hits and auto fallbacks.
  std::vector<AlgorithmScore> scoreboard;
  uint64_t plan_micros = 0;
};

/// Snapshot of the service counters. Exact under concurrency: every
/// counter is mutated under a lock.
struct PlannerStats {
  uint64_t plans = 0;
  uint64_t a2a_plans = 0;
  uint64_t x2y_plans = 0;
  uint64_t cache_hits = 0;
  uint64_t cache_misses = 0;
  uint64_t cache_insertions = 0;
  uint64_t cache_replacements = 0;
  uint64_t cache_evictions = 0;
  uint64_t cache_entries = 0;
  uint64_t portfolio_runs = 0;
  uint64_t auto_runs = 0;  // budget fallbacks + use_portfolio=false
  uint64_t infeasible = 0;
};

/// Thread-safe planning service; see file comment for the data flow.
class PlannerService {
 public:
  explicit PlannerService(const PlannerConfig& config = {});

  PlannerService(const PlannerService&) = delete;
  PlannerService& operator=(const PlannerService&) = delete;

  /// Plans one instance. Portfolio tasks of a cache miss run on the
  /// service's thread pool.
  PlanResult Plan(const A2AInstance& instance, const PlanOptions& opts = {});
  PlanResult Plan(const X2YInstance& instance, const PlanOptions& opts = {});

  /// Plans a batch, one pool task per instance (each request solved
  /// inline in its worker; results in input order).
  std::vector<PlanResult> PlanMany(const std::vector<A2AInstance>& instances,
                                   const PlanOptions& opts = {});
  std::vector<PlanResult> PlanMany(const std::vector<X2YInstance>& instances,
                                   const PlanOptions& opts = {});

  /// Exact counter snapshot.
  PlannerStats stats() const;

  /// Renders the counters and a latency summary (exact-count
  /// percentiles from the log-bucket histogram) as an aligned table.
  void PrintStats(std::ostream& out) const;

  /// Snapshot of the plan-latency histogram (all plans since
  /// construction — no ring cap).
  obs::HistogramSnapshot latency() const { return plan_latency_->snapshot(); }

  void ClearCache() { cache_.Clear(); }
  const PlannerConfig& config() const { return config_; }

 private:
  template <typename Instance>
  PlanResult PlanImpl(const Instance& instance, const PlanOptions& opts,
                      ThreadPool* pool);
  template <typename Instance>
  std::vector<PlanResult> PlanManyImpl(const std::vector<Instance>& instances,
                                       const PlanOptions& opts);
  void RecordPlan(const PlanResult& result, bool is_a2a, bool used_portfolio);

  PlannerConfig config_;
  ThreadPool pool_;
  PlanCache cache_;

  mutable std::mutex stats_mu_;
  PlannerStats counters_;  // cache_* filled from cache_.stats()

  // Plan wall times; points at the registry's histogram when a metrics
  // sink is attached, else at own_latency_.
  obs::Histogram own_latency_;
  obs::Histogram* plan_latency_ = &own_latency_;
  // Registry handles, resolved once at construction (null without a
  // sink; the record path is then a pointer test).
  struct Instruments {
    obs::Counter* plans = nullptr;
    obs::Counter* cache_hits = nullptr;
    obs::Counter* cache_misses = nullptr;
    obs::Counter* cache_evictions = nullptr;
    obs::Gauge* cache_entries = nullptr;
    obs::Counter* portfolio_runs = nullptr;
    obs::Counter* auto_runs = nullptr;
    obs::Counter* infeasible = nullptr;
    obs::Counter* alloc_bytes = nullptr;  // planner.alloc_bytes_total
    obs::Counter* allocs = nullptr;       // planner.allocs_total
  };
  Instruments pub_;
  uint64_t published_evictions_ = 0;  // under stats_mu_
};

}  // namespace msp::planner

#endif  // MSP_PLANNER_SERVICE_H_
