// Experiment O1 — the online assignment subsystem: per-update latency,
// churn, and quality gap of three strategies replaying the same seeded
// update traces (arrivals, departures, resizes, capacity retunes):
//
//  * incremental — local repair + drift-policy re-plans deployed via
//    the min-move delta (the online subsystem's intended mode);
//  * replan-every — a full re-plan after every update, deployed from
//    scratch (the offline "just re-run the paper's algorithm" answer);
//  * plan-once — pure local repair, never re-planning.
//
// Expected shape: incremental moves orders of magnitude fewer bytes
// than replan-every while staying within the policy's drift bound of
// the fresh plan's reducer count; plan-once is cheapest per update but
// its quality gap grows with trace length. Latency is reported as
// mean/p50/p99 so tail effects of the hot-path layout are visible.
//
// A second table (O1b) isolates the LiveState repair hot path at
// m >= 10^4 alive inputs: a clique-cover schema over 10,200 equal
// inputs is bulk-seeded, then remove / shrink / regrow / add ops (each
// a storm of coverage decrements or lookups) are timed.
//
// `--smoke` shortens every trace, skips the m >= 10^4 sweep and the
// Google Benchmark loops; `--json=FILE` writes the BENCH_o1_online.json
// trajectory file whose gated metrics are the deterministic churn and
// quality series (see tools/benchgate.py). Results are mirrored to
// bench_o1_online.csv in the working directory.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <iostream>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "bench_util.h"
#include "core/instance.h"
#include "core/schema.h"
#include "obs/alloc.h"
#include "obs/metrics.h"
#include "online/assigner.h"
#include "online/policy.h"
#include "online/repair.h"
#include "online/trace.h"
#include "planner/service.h"
#include "util/csv_writer.h"
#include "util/summary_stats.h"
#include "util/table.h"
#include "util/timer.h"
#include "workload/updates.h"

namespace {

using namespace msp;

struct TraceShape {
  std::string name;
  std::string key;  // metric-name prefix in the bench JSON
  wl::TraceConfig config;
};

// Smoke shortens every trace (same shapes, same seeds) so the CI leg
// stays fast; the committed BENCH_ baselines are smoke-generated, so
// gated metrics compare like with like.
std::vector<TraceShape> MakeShapes(bool smoke) {
  wl::TraceConfig a2a_small;
  a2a_small.initial_inputs = 40;
  a2a_small.steps = smoke ? 150 : 400;
  a2a_small.seed = 31;
  wl::TraceConfig a2a_large = a2a_small;
  a2a_large.initial_inputs = 200;
  a2a_large.steps = smoke ? 200 : 600;
  a2a_large.seed = 32;
  wl::TraceConfig x2y = a2a_small;
  x2y.x2y = true;
  x2y.initial_inputs = 80;
  x2y.steps = smoke ? 150 : 400;
  x2y.seed = 33;
  return {
      {"a2a m0=40", "a2a_m40", a2a_small},
      {"a2a m0=200", "a2a_m200", a2a_large},
      {"x2y m0=80", "x2y_m80", x2y},
  };
}

struct Strategy {
  std::string name;
  std::shared_ptr<online::ReplanPolicy> policy;
  bool full_reassign = false;
};

std::vector<Strategy> MakeStrategies() {
  return {
      {"incremental",
       std::make_shared<online::DriftThresholdPolicy>(1.5, 2.0, 128), false},
      {"replan-every", std::make_shared<online::AlwaysReplanPolicy>(), true},
      {"plan-once", std::make_shared<online::NeverReplanPolicy>(), false},
  };
}

struct ReplayOutcome {
  double mean_update_us = 0;
  double p50_update_us = 0;
  double p99_update_us = 0;
  online::OnlineTotals totals;
  uint64_t plans_computed = 0;  // planner calls that returned a schema
  online::QualitySnapshot quality;
};

ReplayOutcome Replay(const online::UpdateTrace& trace,
                     const Strategy& strategy) {
  online::OnlineConfig config;
  config.x2y = trace.x2y;
  config.capacity = trace.initial_capacity;
  config.policy = strategy.policy;
  config.full_reassign_on_replan = strategy.full_reassign;
  config.plan_options.use_portfolio = false;
  obs::Registry registry;
  config.metrics = &registry;
  online::OnlineAssigner assigner(config);
  std::vector<double> update_us;
  update_us.reserve(trace.updates.size());
  for (const online::Update& update : trace.updates) {
    Stopwatch watch;
    assigner.Apply(update);
    update_us.push_back(static_cast<double>(watch.ElapsedMicros()));
  }
  ReplayOutcome outcome;
  const SummaryStats latency = SummaryStats::Compute(update_us);
  outcome.mean_update_us = latency.mean();
  outcome.p50_update_us = latency.Percentile(50.0);
  outcome.p99_update_us = latency.Percentile(99.0);
  outcome.totals = assigner.totals();
  outcome.plans_computed =
      registry.counter("online.plans_computed_total")->value();
  outcome.quality = assigner.Quality();
  return outcome;
}

void PrintComparisonTable(bool smoke, CsvWriter* csv,
                          benchutil::BenchJson* json) {
  TablePrinter table(
      "O1: online strategies — latency, churn, and quality per trace");
  table.SetHeader({"trace", "strategy", "us/update", "p50 us", "p99 us",
                   "inputs moved", "bytes moved", "plans", "replans", "z",
                   "z/LB"});
  csv->WriteRow({"table", "trace", "strategy", "us_per_update", "p50_us",
                 "p99_us", "inputs_moved", "bytes_moved", "plans_computed",
                 "replans", "reducers", "reducers_over_lb"});
  for (const TraceShape& shape : MakeShapes(smoke)) {
    const online::UpdateTrace trace = wl::GenerateTrace(shape.config);
    for (const Strategy& strategy : MakeStrategies()) {
      const ReplayOutcome outcome = Replay(trace, strategy);
      const double gap =
          outcome.quality.lb_reducers == 0
              ? 0.0
              : static_cast<double>(outcome.quality.live_reducers) /
                    static_cast<double>(outcome.quality.lb_reducers);
      table.AddRow({shape.name, strategy.name,
                    TablePrinter::Fmt(outcome.mean_update_us, 1),
                    TablePrinter::Fmt(outcome.p50_update_us, 1),
                    TablePrinter::Fmt(outcome.p99_update_us, 1),
                    TablePrinter::Fmt(outcome.totals.churn.inputs_moved),
                    TablePrinter::Fmt(outcome.totals.churn.bytes_moved),
                    TablePrinter::Fmt(outcome.plans_computed),
                    TablePrinter::Fmt(outcome.totals.replans),
                    TablePrinter::Fmt(outcome.quality.live_reducers),
                    TablePrinter::Fmt(gap)});
      csv->WriteRow(
          {"O1", shape.name, strategy.name,
           TablePrinter::Fmt(outcome.mean_update_us, 1),
           TablePrinter::Fmt(outcome.p50_update_us, 1),
           TablePrinter::Fmt(outcome.p99_update_us, 1),
           std::to_string(outcome.totals.churn.inputs_moved),
           std::to_string(outcome.totals.churn.bytes_moved),
           std::to_string(outcome.plans_computed),
           std::to_string(outcome.totals.replans),
           std::to_string(outcome.quality.live_reducers),
           TablePrinter::Fmt(gap)});
      // Churn and quality are fully deterministic (seeded traces, no
      // threads) — gated; latency is trajectory-only.
      const std::string key = shape.key + "." + strategy.name;
      json->Add(key + ".bytes_moved",
                static_cast<double>(outcome.totals.churn.bytes_moved),
                "bytes");
      json->Add(key + ".inputs_moved",
                static_cast<double>(outcome.totals.churn.inputs_moved),
                "inputs");
      json->Add(key + ".plans_computed",
                static_cast<double>(outcome.plans_computed), "plans");
      json->Add(key + ".replans",
                static_cast<double>(outcome.totals.replans), "replans");
      json->Add(key + ".reducers",
                static_cast<double>(outcome.quality.live_reducers),
                "reducers");
      json->Add(key + ".mean_update_us", outcome.mean_update_us, "us",
                "lower", /*gate=*/false);
    }
  }
  table.Print(std::cout);
  std::cout
      << "\nExpected shape: incremental moves far fewer inputs/bytes than\n"
         "replan-every (which rebuilds the assignment each update) while\n"
         "keeping z within the drift bound; plan-once never replans, so\n"
         "its z/LB gap is the largest and grows with the trace.\n\n";
}

// --- O1c: steady-state allocation accounting of the repair path ---
//
// A warmed-up assigner oscillates the sizes of eight fixed inputs: the
// id space, the alive set, and the load scale stay put while every
// update still repairs (evictions, re-covers, reducer churn). In this
// regime the repair path must perform literally zero heap allocations
// — the gated metric's baseline is 0 and benchgate's zero-stays-zero
// rule holds it there. Under sanitizer builds the counting allocator
// is interposed away and the count reads 0; the committed baselines
// come from plain builds.

struct SteadyAllocOutcome {
  uint64_t allocs = 0;
  uint64_t alloc_bytes = 0;
  double mean_update_us = 0;
};

SteadyAllocOutcome RunSteadyAllocWindow() {
  wl::TraceConfig shape;
  shape.initial_inputs = 40;
  shape.steps = 300;
  shape.seed = 34;
  const online::UpdateTrace trace = wl::GenerateTrace(shape);

  obs::Registry registry;
  online::OnlineConfig config;
  config.capacity = trace.initial_capacity;
  config.policy_spec.name = "never";
  config.metrics = &registry;
  online::OnlineAssigner assigner(config);
  std::vector<std::optional<InputId>> live_of_trace;
  online::TraceIdTranslator translator(&live_of_trace);
  for (const online::Update& update : trace.updates) {
    online::Update live = update;
    if (!translator.Translate(&live)) continue;
    const auto result = assigner.ApplyDeferred(live);
    if (live.kind == online::UpdateKind::kAddInput) {
      translator.RecordAdd(result.applied ? result.new_id : std::nullopt);
    }
  }

  std::vector<InputId> ids(assigner.live_state().alive_ids.begin(),
                           assigner.live_state().alive_ids.end());
  std::sort(ids.begin(), ids.end());
  ids.resize(std::min<std::size_t>(ids.size(), 8));
  const auto oscillate = [&](std::size_t cycles) {
    for (std::size_t cycle = 0; cycle < cycles; ++cycle) {
      for (const InputId id : ids) {
        assigner.ApplyDeferred(
            online::Update::Resize(id, (cycle % 2 == 0) ? 3 : 2));
      }
    }
    return cycles * ids.size();
  };
  oscillate(20);  // reach the oscillation's high-water marks

  obs::Counter* allocs = registry.counter("online.allocs_total");
  obs::Counter* alloc_bytes = registry.counter("online.alloc_bytes_total");
  SteadyAllocOutcome outcome;
  const uint64_t allocs_before = allocs->value();
  const uint64_t bytes_before = alloc_bytes->value();
  Stopwatch watch;
  const std::size_t updates = oscillate(20);
  outcome.mean_update_us = watch.ElapsedSeconds() * 1e6 /
                           static_cast<double>(updates);
  outcome.allocs = allocs->value() - allocs_before;
  outcome.alloc_bytes = alloc_bytes->value() - bytes_before;
  return outcome;
}

void PrintSteadyAllocTable(CsvWriter* csv, benchutil::BenchJson* json) {
  TablePrinter table(
      "O1c: repair-path heap traffic over a 160-update steady-state "
      "window");
  table.SetHeader({"storage", "allocs", "alloc bytes", "us/update"});
  csv->WriteRow({"table", "storage", "allocs", "alloc_bytes",
                 "us_per_update"});
  const SteadyAllocOutcome outcome = RunSteadyAllocWindow();
  table.AddRow({"pooled", TablePrinter::Fmt(outcome.allocs),
                TablePrinter::Fmt(outcome.alloc_bytes),
                TablePrinter::Fmt(outcome.mean_update_us, 2)});
  csv->WriteRow({"O1c", "pooled", std::to_string(outcome.allocs),
                 std::to_string(outcome.alloc_bytes),
                 TablePrinter::Fmt(outcome.mean_update_us, 2)});
  // Its baseline is 0, and benchgate holds zero-baseline metrics at
  // exactly zero.
  json->Add("steady.pooled.allocs", static_cast<double>(outcome.allocs),
            "allocs");
  table.Print(std::cout);
  std::cout
      << "\nExpected shape: zero allocations — scratch vectors and retired\n"
         "reducer buffers live on the assigner and are recycled, so a\n"
         "steady-state repair touches the allocator not at all.\n\n";
}

// --- O1d: greedy vs optimal (Hungarian) min-move matching ---
//
// Replays each trace under a periodic re-plan policy twice, identical
// except for the delta-matching backend. The matching only changes the
// churn accounting of each re-plan (the deployed schema is the
// planner's either way), so the two replays stay in lockstep and the
// per-trace gap is deterministic — gated like the churn series.

void PrintMatchingTable(bool smoke, CsvWriter* csv,
                        benchutil::BenchJson* json) {
  TablePrinter table(
      "O1d: min-move matching — greedy vs exact Hungarian churn");
  table.SetHeader({"trace", "replans", "greedy bytes", "hungarian bytes",
                   "gap bytes", "gap %"});
  csv->WriteRow({"table", "trace", "replans", "greedy_bytes",
                 "hungarian_bytes", "gap_bytes", "gap_pct"});
  for (const TraceShape& shape : MakeShapes(smoke)) {
    const online::UpdateTrace trace = wl::GenerateTrace(shape.config);
    const auto replay = [&](online::DeltaMatching matching) {
      online::OnlineConfig config;
      config.x2y = trace.x2y;
      config.capacity = trace.initial_capacity;
      config.policy_spec.name = "every-n";
      config.policy_spec.every_n = 16;
      config.delta_matching = matching;
      config.plan_options.use_portfolio = false;
      online::OnlineAssigner assigner(config);
      std::vector<std::optional<InputId>> live_of_trace;
      online::TraceIdTranslator translator(&live_of_trace);
      for (const online::Update& update : trace.updates) {
        online::Update live = update;
        if (!translator.Translate(&live)) continue;
        const auto result = assigner.Apply(live);
        if (live.kind == online::UpdateKind::kAddInput) {
          translator.RecordAdd(result.applied ? result.new_id
                                              : std::nullopt);
        }
      }
      return assigner.totals();
    };
    const online::OnlineTotals greedy =
        replay(online::DeltaMatching::kGreedy);
    const online::OnlineTotals exact =
        replay(online::DeltaMatching::kHungarian);
    const uint64_t gap =
        greedy.churn.bytes_moved - exact.churn.bytes_moved;
    const double gap_pct =
        greedy.churn.bytes_moved == 0
            ? 0.0
            : 100.0 * static_cast<double>(gap) /
                  static_cast<double>(greedy.churn.bytes_moved);
    table.AddRow({shape.name, TablePrinter::Fmt(greedy.replans),
                  TablePrinter::Fmt(greedy.churn.bytes_moved),
                  TablePrinter::Fmt(exact.churn.bytes_moved),
                  TablePrinter::Fmt(gap), TablePrinter::Fmt(gap_pct, 1)});
    csv->WriteRow({"O1d", shape.name, std::to_string(greedy.replans),
                   std::to_string(greedy.churn.bytes_moved),
                   std::to_string(exact.churn.bytes_moved),
                   std::to_string(gap), TablePrinter::Fmt(gap_pct, 1)});
    json->Add(shape.key + ".hungarian_bytes_moved",
              static_cast<double>(exact.churn.bytes_moved), "bytes");
    json->Add(shape.key + ".matching_gap_bytes", static_cast<double>(gap),
              "bytes", "lower", /*gate=*/false);
  }
  table.Print(std::cout);
  std::cout
      << "\nExpected shape: the exact matching never ships more bytes than\n"
         "greedy; the gap is the per-replan price of the greedy\n"
         "heuristic's conflicting-overlap mistakes, usually a few percent.\n\n";
}

// --- the pair-coverage hot path at m >= 10^4 ---
//
// A clique cover over g groups of 50 equal inputs (one reducer per
// group pair, exactly full at q) reaches m = 10,200 alive inputs with
// ~52M covered pairs — the regime where the coverage layout dominates
// repair latency. Each measured op is coverage-heavy:
//  * remove  — strips ~200 copies, each decrementing ~99 pair counts;
//  * shrink  — load-only resize (a control op);
//  * regrow  — resize back up, whose uncovered-partner scan does one
//              coverage lookup per alive input.

constexpr std::size_t kHotGroupSize = 50;
constexpr std::size_t kHotGroups = 204;  // m = 10,200
constexpr InputSize kHotSize = 40;
constexpr InputSize kHotCapacity = 2 * kHotGroupSize * kHotSize;

MappingSchema CliqueCoverSchema() {
  MappingSchema schema;
  schema.reducers.reserve(kHotGroups * (kHotGroups - 1) / 2);
  for (std::size_t a = 0; a < kHotGroups; ++a) {
    for (std::size_t b = a + 1; b < kHotGroups; ++b) {
      Reducer reducer;
      reducer.reserve(2 * kHotGroupSize);
      for (std::size_t i = 0; i < kHotGroupSize; ++i) {
        reducer.push_back(static_cast<InputId>(a * kHotGroupSize + i));
        reducer.push_back(static_cast<InputId>(b * kHotGroupSize + i));
      }
      schema.reducers.push_back(std::move(reducer));
    }
  }
  return schema;
}

struct HotPathOutcome {
  double seed_ms = 0;
  double remove_p50 = 0, remove_p99 = 0;
  double regrow_p50 = 0, regrow_p99 = 0;
  double add_p50 = 0, add_p99 = 0;
  double footprint_mb = 0;
};

HotPathOutcome RunHotPath() {
  online::OnlineConfig config;
  config.capacity = kHotCapacity;
  config.policy_spec.name = "never";
  online::OnlineAssigner assigner(config);

  const std::size_t m = kHotGroups * kHotGroupSize;
  const std::vector<InputSize> sizes(m, kHotSize);
  HotPathOutcome outcome;
  Stopwatch seed_watch;
  const bool seeded =
      assigner.Seed(sizes, {}, CliqueCoverSchema(), /*validate=*/false);
  outcome.seed_ms = seed_watch.ElapsedSeconds() * 1e3;
  if (!seeded) return outcome;
  outcome.footprint_mb =
      static_cast<double>(assigner.live_state().cover.footprint_bytes()) /
      (1024.0 * 1024.0);

  std::vector<double> remove_us;
  std::vector<double> regrow_us;
  std::vector<double> add_us;
  // Spread the ops across groups so no reducer degenerates.
  for (std::size_t k = 0; k < 120; ++k) {
    const InputId victim = static_cast<InputId>(k * 83 + 1);
    Stopwatch watch;
    assigner.RemoveInput(victim);
    remove_us.push_back(static_cast<double>(watch.ElapsedMicros()));

    const InputId resized = static_cast<InputId>(k * 83 + 2);
    assigner.ResizeInput(resized, kHotSize / 2);  // shrink: control op
    watch.Reset();
    assigner.ResizeInput(resized, kHotSize);      // regrow: lookup storm
    regrow_us.push_back(static_cast<double>(watch.ElapsedMicros()));

    if (k % 10 == 0) {
      // Add path: CoverStar over all m alive partners (the
      // uncovered-set backend's dominant loop), then remove the
      // arrival again so the instance stays comparable.
      watch.Reset();
      const auto added = assigner.AddInput(kHotSize);
      add_us.push_back(static_cast<double>(watch.ElapsedMicros()));
      if (added.new_id.has_value()) assigner.RemoveInput(*added.new_id);
    }
  }
  const SummaryStats removes = SummaryStats::Compute(remove_us);
  const SummaryStats regrows = SummaryStats::Compute(regrow_us);
  const SummaryStats adds = SummaryStats::Compute(add_us);
  outcome.remove_p50 = removes.Percentile(50.0);
  outcome.remove_p99 = removes.Percentile(99.0);
  outcome.regrow_p50 = regrows.Percentile(50.0);
  outcome.regrow_p99 = regrows.Percentile(99.0);
  outcome.add_p50 = adds.Percentile(50.0);
  outcome.add_p99 = adds.Percentile(99.0);
  return outcome;
}

void PrintHotPathTable(CsvWriter* csv) {
  TablePrinter table(
      "O1b: LiveState repair hot path at m = 10,200 (52M pairs, "
      "triangular coverage)");
  table.SetHeader({"backend", "seed ms", "remove p50 us", "remove p99 us",
                   "regrow p50 us", "regrow p99 us", "add p50 us",
                   "add p99 us", "cover MB"});
  csv->WriteRow({"table", "backend", "seed_ms", "remove_p50_us",
                 "remove_p99_us", "regrow_p50_us", "regrow_p99_us",
                 "add_p50_us", "add_p99_us", "cover_mb"});
  const HotPathOutcome outcome = RunHotPath();
  std::vector<std::string> row = {
      "triangular+bitmap",
      TablePrinter::Fmt(outcome.seed_ms, 0),
      TablePrinter::Fmt(outcome.remove_p50, 1),
      TablePrinter::Fmt(outcome.remove_p99, 1),
      TablePrinter::Fmt(outcome.regrow_p50, 1),
      TablePrinter::Fmt(outcome.regrow_p99, 1),
      TablePrinter::Fmt(outcome.add_p50, 1),
      TablePrinter::Fmt(outcome.add_p99, 1),
      TablePrinter::Fmt(outcome.footprint_mb, 0)};
  table.AddRow(row);
  row.insert(row.begin(), "O1b");
  csv->WriteRow(row);
  table.Print(std::cout);
  std::cout
      << "\nExpected shape: the add path scans every alive partner\n"
         "through the uncovered set (one rank-bitmap read per membership\n"
         "test). Coverage is the dense triangular array at a fixed 4\n"
         "bytes per alive pair.\n\n";
}

void BM_IncrementalUpdate(benchmark::State& state) {
  wl::TraceConfig config;
  config.initial_inputs = static_cast<std::size_t>(state.range(0));
  config.steps = 200;
  config.seed = 41;
  const online::UpdateTrace trace = wl::GenerateTrace(config);
  for (auto _ : state) {
    online::OnlineConfig online_config;
    online_config.capacity = trace.initial_capacity;
    online_config.policy =
        std::make_shared<online::DriftThresholdPolicy>(1.5, 2.0, 128);
    online_config.plan_options.use_portfolio = false;
    online::OnlineAssigner assigner(online_config);
    for (const online::Update& update : trace.updates) {
      auto result = assigner.Apply(update);
      benchmark::DoNotOptimize(result);
    }
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(trace.updates.size()));
}
BENCHMARK(BM_IncrementalUpdate)->Arg(40)->Arg(200);

void BM_ReplanEveryUpdate(benchmark::State& state) {
  wl::TraceConfig config;
  config.initial_inputs = static_cast<std::size_t>(state.range(0));
  config.steps = 200;
  config.seed = 42;
  const online::UpdateTrace trace = wl::GenerateTrace(config);
  for (auto _ : state) {
    online::OnlineConfig online_config;
    online_config.capacity = trace.initial_capacity;
    online_config.policy = std::make_shared<online::AlwaysReplanPolicy>();
    online_config.full_reassign_on_replan = true;
    online_config.plan_options.use_portfolio = false;
    online::OnlineAssigner assigner(online_config);
    for (const online::Update& update : trace.updates) {
      auto result = assigner.Apply(update);
      benchmark::DoNotOptimize(result);
    }
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(trace.updates.size()));
}
BENCHMARK(BM_ReplanEveryUpdate)->Arg(40)->Arg(200);

void BM_MinMoveDelta(benchmark::State& state) {
  // Arg 0: m0. Arg 1 = 0 diffs a repaired live schema against itself,
  // the floor of the escalation path's bookkeeping (every reducer
  // matches itself). Arg 1 = 1 diffs it against a fresh PlannerService
  // plan of the same alive set: the pair a deployed re-plan matches,
  // with many overlapping candidates per reducer.
  wl::TraceConfig config;
  config.initial_inputs = static_cast<std::size_t>(state.range(0));
  config.steps = 1;
  config.seed = 43;
  const online::UpdateTrace trace = wl::GenerateTrace(config);
  online::OnlineConfig online_config;
  online_config.capacity = trace.initial_capacity;
  online_config.policy = std::make_shared<online::NeverReplanPolicy>();
  online::OnlineAssigner assigner(online_config);
  for (const online::Update& update : trace.updates) assigner.Apply(update);
  const MappingSchema schema = assigner.Schema();
  std::vector<InputSize> sizes;
  std::vector<InputSize> alive_sizes;
  std::vector<InputId> live_of_dense;
  for (InputId id = 0; id < trace.updates.size(); ++id) {
    sizes.push_back(assigner.is_alive(id) ? assigner.size_of(id) : 1);
    if (assigner.is_alive(id)) {
      alive_sizes.push_back(assigner.size_of(id));
      live_of_dense.push_back(id);
    }
  }
  MappingSchema target = schema;
  if (state.range(1) == 1) {
    const auto instance =
        A2AInstance::Create(std::move(alive_sizes), trace.initial_capacity);
    planner::PlannerService planner;
    const planner::PlanResult plan = planner.Plan(*instance);
    target.reducers.clear();
    for (const Reducer& reducer : plan.schema->reducers) {
      Reducer live;
      for (InputId dense_id : reducer) {
        live.push_back(live_of_dense[dense_id]);
      }
      std::sort(live.begin(), live.end());
      target.reducers.push_back(std::move(live));
    }
  }
  uint64_t candidates = 0;
  for (auto _ : state) {
    auto delta = online::MinMoveDelta(sizes, schema, target);
    candidates = delta.overlapping_pairs;
    benchmark::DoNotOptimize(delta);
  }
  state.counters["candidates"] = static_cast<double>(candidates);
}
BENCHMARK(BM_MinMoveDelta)
    ->Args({100, 0})
    ->Args({400, 0})
    ->Args({100, 1})
    ->Args({400, 1});

}  // namespace

int main(int argc, char** argv) {
  const benchutil::BenchArgs args = benchutil::ParseBenchArgs(&argc, argv);

  CsvWriter csv("bench_o1_online.csv");
  benchutil::BenchJson json("o1_online");
  PrintComparisonTable(args.smoke, &csv, &json);
  PrintSteadyAllocTable(&csv, &json);
  PrintMatchingTable(args.smoke, &csv, &json);
  // The m = 10,200 coverage sweep seeds ~52M pairs three times —
  // minutes of work, so the smoke leg skips it (its regressions are
  // covered by the gated churn series above plus the S1 smoke).
  if (!args.smoke) PrintHotPathTable(&csv);
  if (benchutil::EmitBenchJson(json, args) != 0) return 1;
  if (!args.smoke) {
    benchmark::Initialize(&argc, argv);
    benchmark::RunSpecifiedBenchmarks();
    benchmark::Shutdown();
  }
  return 0;
}
