#include "planner/service.h"

#include <algorithm>
#include <condition_variable>
#include <memory>
#include <ostream>
#include <thread>
#include <utility>

#include "core/a2a.h"
#include "core/x2y.h"
#include "obs/alloc.h"
#include "obs/span.h"
#include "util/table.h"
#include "util/timer.h"

namespace msp::planner {

namespace {

std::size_t ResolveThreads(std::size_t requested) {
  if (requested > 0) return requested;
  const unsigned hw = std::thread::hardware_concurrency();
  return hw > 0 ? hw : 4;
}

std::optional<MappingSchema> SolveAuto(const A2AInstance& in) {
  return SolveA2AAuto(in);
}
std::optional<MappingSchema> SolveAuto(const X2YInstance& in) {
  return SolveX2YAuto(in);
}

constexpr bool IsA2A(const A2AInstance*) { return true; }
constexpr bool IsA2A(const X2YInstance*) { return false; }

std::size_t NumInputs(const A2AInstance& in) { return in.num_inputs(); }
std::size_t NumInputs(const X2YInstance& in) {
  return in.num_x() + in.num_y();
}

}  // namespace

PlannerService::PlannerService(const PlannerConfig& config)
    : config_(config),
      pool_(ResolveThreads(config.num_threads)),
      cache_(config.cache_shards, config.cache_capacity_per_shard) {
  if (obs::Registry* reg = config_.metrics) {
    plan_latency_ = reg->histogram("planner.plan_latency_us");
    pub_.plans = reg->counter("planner.plans_total");
    pub_.cache_hits = reg->counter("planner.cache_hits_total");
    pub_.cache_misses = reg->counter("planner.cache_misses_total");
    pub_.cache_evictions = reg->counter("planner.cache_evictions_total");
    pub_.cache_entries = reg->gauge("planner.cache_entries");
    pub_.portfolio_runs = reg->counter("planner.portfolio_runs_total");
    pub_.auto_runs = reg->counter("planner.auto_runs_total");
    pub_.infeasible = reg->counter("planner.infeasible_total");
    pub_.alloc_bytes = reg->counter("planner.alloc_bytes_total");
    pub_.allocs = reg->counter("planner.allocs_total");
  }
}

template <typename Instance>
PlanResult PlannerService::PlanImpl(const Instance& instance,
                                    const PlanOptions& opts,
                                    ThreadPool* pool) {
  obs::Span span("planner.plan");
  // Charges the planning thread's allocations (canonicalization, cache
  // rewrite, portfolio orchestration; pool workers self-charge).
  obs::AllocScope alloc_scope(pub_.alloc_bytes, pub_.allocs);
  Stopwatch watch;
  PlanResult result;

  const auto canonical = Canonicalize(instance);
  const bool used_portfolio =
      opts.use_portfolio && (opts.budget_ms <= 0.0 ||
                             opts.budget_ms >= config_.portfolio_min_budget_ms);

  if (!used_portfolio) {
    // The paper's construction as is: one dispatcher solve, no merge
    // post-pass and no cache traffic (a drifting size vector almost
    // never repeats, so a lookup would only pay for a key and a copy).
    if (auto schema = SolveAuto(canonical.instance)) {
      result.algorithm = "auto";
      result.schema =
          Decanonicalize(canonical.original_ids, std::move(*schema));
    }
  } else {
    const PlanKey key = MakeKey(canonical.instance);
    if (auto cached = cache_.Lookup(key)) {
      // Warm path: no solving, just rewrite the canonical schema back
      // to the original ids.
      result.cache_hit = true;
      result.algorithm = cached->algorithm;
      result.schema = Decanonicalize(canonical.original_ids, cached->schema);
    } else {
      PortfolioResult run = RunPortfolio(canonical.instance, pool);
      result.scoreboard = std::move(run.scoreboard);
      result.algorithm = run.best_algorithm;
      if (run.best.has_value()) {
        auto plan = std::make_shared<CachedPlan>();
        const AlgorithmScore& best = result.scoreboard[run.best_index];
        plan->algorithm = result.algorithm;
        plan->num_reducers = best.reducers;
        plan->communication = best.communication;
        plan->schema = std::move(*run.best);
        result.schema = Decanonicalize(canonical.original_ids, plan->schema);
        cache_.Insert(key, std::move(plan));
      }
    }
  }

  if (result.schema.has_value()) {
    result.stats = SchemaStats::Compute(instance, *result.schema);
  }
  result.plan_micros = watch.ElapsedMicros();
  RecordPlan(result, IsA2A(&instance), used_portfolio);
  if (span.active()) {
    span.Arg("inputs", static_cast<uint64_t>(NumInputs(instance)));
    span.Arg("cache_hit", result.cache_hit);
    span.Arg("algorithm", result.algorithm);
  }
  return result;
}

template <typename Instance>
std::vector<PlanResult> PlannerService::PlanManyImpl(
    const std::vector<Instance>& instances, const PlanOptions& opts) {
  std::vector<PlanResult> results(instances.size());
  if (instances.empty()) return results;
  // One pool task per request; each solves inline (no nested portfolio
  // submissions, so pool workers never block on each other). A per-call
  // latch rather than ThreadPool::Wait() keeps concurrent batches
  // independent.
  std::mutex mu;
  std::condition_variable done;
  std::size_t remaining = instances.size();
  for (std::size_t i = 0; i < instances.size(); ++i) {
    pool_.Submit([&, i] {
      results[i] = PlanImpl(instances[i], opts, /*pool=*/nullptr);
      std::lock_guard<std::mutex> lock(mu);
      if (--remaining == 0) done.notify_all();
    });
  }
  std::unique_lock<std::mutex> lock(mu);
  done.wait(lock, [&] { return remaining == 0; });
  return results;
}

PlanResult PlannerService::Plan(const A2AInstance& instance,
                                const PlanOptions& opts) {
  return PlanImpl(instance, opts, &pool_);
}

PlanResult PlannerService::Plan(const X2YInstance& instance,
                                const PlanOptions& opts) {
  return PlanImpl(instance, opts, &pool_);
}

std::vector<PlanResult> PlannerService::PlanMany(
    const std::vector<A2AInstance>& instances, const PlanOptions& opts) {
  return PlanManyImpl(instances, opts);
}

std::vector<PlanResult> PlannerService::PlanMany(
    const std::vector<X2YInstance>& instances, const PlanOptions& opts) {
  return PlanManyImpl(instances, opts);
}

void PlannerService::RecordPlan(const PlanResult& result, bool is_a2a,
                                bool used_portfolio) {
  plan_latency_->Record(result.plan_micros);
  {
    std::lock_guard<std::mutex> lock(stats_mu_);
    ++counters_.plans;
    if (is_a2a) {
      ++counters_.a2a_plans;
    } else {
      ++counters_.x2y_plans;
    }
    if (!result.schema.has_value()) ++counters_.infeasible;
    if (!result.cache_hit && result.schema.has_value()) {
      if (used_portfolio) {
        ++counters_.portfolio_runs;
      } else {
        ++counters_.auto_runs;
      }
    }
  }
  if (pub_.plans == nullptr) return;
  pub_.plans->Inc();
  if (!result.schema.has_value()) pub_.infeasible->Inc();
  if (!used_portfolio) {
    if (result.schema.has_value()) pub_.auto_runs->Inc();
    return;  // auto plans never touch the cache
  }
  if (result.cache_hit) {
    pub_.cache_hits->Inc();
  } else {
    pub_.cache_misses->Inc();
    if (result.schema.has_value()) {
      pub_.portfolio_runs->Inc();
      // A portfolio win is attributed to the algorithm that produced
      // the deployed schema.
      config_.metrics
          ->counter("planner.portfolio_wins_total",
                    {{"algorithm", result.algorithm}})
          ->Inc();
    }
  }
  // Cache occupancy and evictions accrue inside the cache shards;
  // refresh the published view from their counters (cheap relative to
  // a portfolio run).
  const PlanCacheStats cache = cache_.stats();
  pub_.cache_entries->Set(static_cast<int64_t>(cache.entries));
  {
    std::lock_guard<std::mutex> lock(stats_mu_);
    if (cache.evictions > published_evictions_) {
      pub_.cache_evictions->Inc(cache.evictions - published_evictions_);
      published_evictions_ = cache.evictions;
    }
  }
}

PlannerStats PlannerService::stats() const {
  PlannerStats snapshot;
  {
    std::lock_guard<std::mutex> lock(stats_mu_);
    snapshot = counters_;
  }
  const PlanCacheStats cache = cache_.stats();
  snapshot.cache_hits = cache.hits;
  snapshot.cache_misses = cache.misses;
  snapshot.cache_insertions = cache.insertions;
  snapshot.cache_replacements = cache.replacements;
  snapshot.cache_evictions = cache.evictions;
  snapshot.cache_entries = cache.entries;
  return snapshot;
}

void PlannerService::PrintStats(std::ostream& out) const {
  const PlannerStats s = stats();
  const obs::HistogramSnapshot lat = plan_latency_->snapshot();

  TablePrinter table("planner stats");
  table.SetHeader({"counter", "value"});
  table.AddRow({"plans", TablePrinter::Fmt(s.plans)});
  table.AddRow({"a2a / x2y", TablePrinter::Fmt(s.a2a_plans) + " / " +
                                 TablePrinter::Fmt(s.x2y_plans)});
  table.AddRow({"cache hits", TablePrinter::Fmt(s.cache_hits)});
  table.AddRow({"cache misses", TablePrinter::Fmt(s.cache_misses)});
  const uint64_t lookups = s.cache_hits + s.cache_misses;
  table.AddRow({"hit rate",
                lookups == 0
                    ? "-"
                    : TablePrinter::Fmt(static_cast<double>(s.cache_hits) /
                                        static_cast<double>(lookups))});
  table.AddRow({"cache entries", TablePrinter::Fmt(s.cache_entries)});
  table.AddRow({"cache evictions", TablePrinter::Fmt(s.cache_evictions)});
  table.AddRow({"portfolio runs", TablePrinter::Fmt(s.portfolio_runs)});
  table.AddRow({"auto runs", TablePrinter::Fmt(s.auto_runs)});
  table.AddRow({"infeasible", TablePrinter::Fmt(s.infeasible)});
  if (lat.count() > 0) {
    table.AddRow({"plan us (mean)", TablePrinter::Fmt(lat.mean())});
    table.AddRow({"plan us (p50)", TablePrinter::Fmt(lat.Percentile(50))});
    table.AddRow({"plan us (p95)", TablePrinter::Fmt(lat.Percentile(95))});
    table.AddRow(
        {"plan us (max)", TablePrinter::Fmt(static_cast<double>(lat.max()))});
  }
  table.Print(out);
}

}  // namespace msp::planner
