// ServingService / ServingShard tests: sharded replay must equal
// direct single-threaded replay instance by instance, per-key order
// and window framing must be preserved across task boundaries, stats
// must aggregate exactly, and the whole thing must hold up under a
// many-instance concurrency stress (this suite runs under TSan in CI).

#include <algorithm>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/schema_io.h"
#include "gtest/gtest.h"
#include "online/assigner.h"
#include "online/trace.h"
#include "online/budget.h"
#include "serving/service.h"
#include "workload/updates.h"

namespace msp::serving {
namespace {

using online::OnlineAssigner;
using online::OnlineConfig;
using online::Update;
using online::UpdateTrace;

UpdateTrace MakeTrace(bool x2y, uint64_t seed, std::size_t steps = 150) {
  wl::TraceConfig config;
  config.x2y = x2y;
  config.initial_inputs = 24;
  config.steps = steps;
  config.seed = seed;
  return wl::GenerateTrace(config);
}

OnlineConfig InstanceConfig(const UpdateTrace& trace) {
  OnlineConfig config;
  config.x2y = trace.x2y;
  config.capacity = trace.initial_capacity;
  config.policy_spec.name = "drift";
  config.policy_spec.cooldown = 8;
  // Shard workers and the single-threaded reference must pick the same
  // re-plans, so both use the deterministic auto dispatcher.
  config.plan_options.use_portfolio = false;
  return config;
}

// Single-threaded reference replay with the shard's window semantics.
std::string DirectReplay(const UpdateTrace& trace, std::size_t window,
                         online::OnlineTotals* totals = nullptr) {
  OnlineAssigner assigner(InstanceConfig(trace));
  for (const Update& update : trace.updates) {
    const online::UpdateResult result = assigner.ApplyDeferred(update);
    EXPECT_TRUE(result.applied) << result.error;
    if (assigner.pending_decision_updates() >= window) {
      assigner.PolicyCheckpoint();
    }
  }
  EXPECT_TRUE(assigner.ValidateNow());
  if (totals != nullptr) *totals = assigner.totals();
  return SchemaToText(assigner.Schema());
}

TEST(ServingServiceTest, ShardedReplayMatchesDirectReplay) {
  ServingConfig config;
  config.num_shards = 3;
  ServingService service(config);

  std::map<std::string, UpdateTrace> traces;
  for (uint64_t i = 0; i < 6; ++i) {
    const bool x2y = i % 2 == 1;
    const std::string key = "instance-" + std::to_string(i);
    traces.emplace(key, MakeTrace(x2y, 40 + i));
  }
  for (const auto& [key, trace] : traces) {
    service.CreateInstance(key, InstanceConfig(trace),
                           /*translate_trace_ids=*/true);
    service.SubmitBatch(key, trace.updates, /*batch_size=*/4);
  }
  service.Flush();

  std::string error;
  EXPECT_TRUE(service.ValidateAll(&error)) << error;

  std::map<std::string, std::string> served;
  service.ForEachInstance(
      [&](const std::string& key, const OnlineAssigner& assigner) {
        served[key] = SchemaToText(assigner.Schema());
      });
  ASSERT_EQ(served.size(), traces.size());
  for (const auto& [key, trace] : traces) {
    EXPECT_EQ(served[key], DirectReplay(trace, 4)) << key;
  }
}

TEST(ServingServiceTest, TaskFramingDoesNotChangeResults) {
  // The same stream submitted as one task, event-by-event, or split at
  // an arbitrary point must leave identical instances behind: the
  // policy window rides the assigner's pending count, not the task.
  const UpdateTrace trace = MakeTrace(false, 91);
  ServingConfig config;
  config.num_shards = 2;
  ServingService service(config);

  service.CreateInstance("whole", InstanceConfig(trace), true);
  service.SubmitBatch("whole", trace.updates, 4);

  service.CreateInstance("split", InstanceConfig(trace), true);
  const std::size_t cut = trace.updates.size() / 3;
  std::vector<Update> head(trace.updates.begin(),
                           trace.updates.begin() + cut);
  std::vector<Update> tail(trace.updates.begin() + cut,
                           trace.updates.end());
  service.SubmitBatch("split", head, 4);
  service.SubmitBatch("split", tail, 4);

  service.CreateInstance("single", InstanceConfig(trace), true);
  for (const Update& update : trace.updates) {
    service.SubmitBatch("single", {update}, 4);
  }

  service.Flush();
  std::map<std::string, std::string> served;
  service.ForEachInstance(
      [&](const std::string& key, const OnlineAssigner& assigner) {
        served[key] = SchemaToText(assigner.Schema());
      });
  EXPECT_EQ(served["split"], served["whole"]);
  EXPECT_EQ(served["single"], served["whole"]);
}

TEST(ServingServiceTest, CheckpointAllFlushesTrailingWindows) {
  // With a window larger than the stream, no checkpoint fires during
  // replay; CheckpointAll is the end-of-stream flush that decides the
  // trailing partial window (what an unbatched replay does per event).
  const UpdateTrace trace = MakeTrace(false, 55, 40);
  ServingConfig config;
  config.num_shards = 2;
  ServingService service(config);
  service.CreateInstance("tail", InstanceConfig(trace), true);
  service.SubmitBatch("tail", trace.updates, /*batch_size=*/1 << 20);
  service.Flush();
  EXPECT_EQ(service.stats().total.repairs + service.stats().total.replans,
            0u);
  service.CheckpointAll();
  service.Flush();
  EXPECT_EQ(service.stats().total.repairs + service.stats().total.replans,
            1u);
  std::string error;
  EXPECT_TRUE(service.ValidateAll(&error)) << error;
}

TEST(ServingServiceTest, StatsAggregateExactly) {
  ServingConfig config;
  config.num_shards = 4;
  ServingService service(config);
  uint64_t expected_updates = 0;
  for (uint64_t i = 0; i < 8; ++i) {
    const UpdateTrace trace = MakeTrace(false, 60 + i, 80);
    const std::string key = "stats-" + std::to_string(i);
    expected_updates += trace.updates.size();
    service.CreateInstance(key, InstanceConfig(trace), true);
    service.SubmitBatch(key, trace.updates, 0);
  }
  service.Flush();

  const ServingStats stats = service.stats();
  EXPECT_EQ(stats.shards.size(), 4u);
  uint64_t shard_updates = 0;
  uint64_t shard_instances = 0;
  uint64_t shard_moved = 0;
  std::size_t shard_samples = 0;
  for (const ShardStats& shard : stats.shards) {
    shard_updates += shard.updates;
    shard_instances += shard.instances;
    shard_moved += shard.churn.inputs_moved;
    shard_samples += shard.latency.count();
  }
  // Generated traces are feasible by construction: every event applies.
  EXPECT_EQ(stats.total.updates, expected_updates);
  EXPECT_EQ(stats.total.updates, shard_updates);
  EXPECT_EQ(stats.total.instances, shard_instances);
  EXPECT_EQ(stats.total.instances, 8u);
  EXPECT_EQ(stats.total.rejected, 0u);
  EXPECT_EQ(stats.total.churn.inputs_moved, shard_moved);
  EXPECT_EQ(stats.total.latency.count(), shard_samples);
  EXPECT_EQ(stats.total.latency.count(), expected_updates);
  EXPECT_GT(stats.total.repairs + stats.total.replans, 0u);
}

TEST(ServingServiceTest, ShardRoutingIsStableAndCoversAllShards) {
  ServingConfig config;
  config.num_shards = 4;
  ServingService service(config);
  std::vector<bool> hit(service.num_shards(), false);
  for (int i = 0; i < 64; ++i) {
    const std::string key = "key-" + std::to_string(i);
    const std::size_t shard = service.ShardOf(key);
    ASSERT_LT(shard, service.num_shards());
    EXPECT_EQ(service.ShardOf(key), shard);  // stable
    hit[shard] = true;
  }
  for (std::size_t s = 0; s < hit.size(); ++s) {
    EXPECT_TRUE(hit[s]) << "shard " << s << " never selected";
  }
}

TEST(ServingServiceTest, UpdatesForUnknownKeyCountAsSkipped) {
  ServingConfig config;
  config.num_shards = 2;
  ServingService service(config);
  service.Submit("ghost", Update::Add(10));
  service.Flush();
  EXPECT_EQ(service.stats().total.skipped, 1u);
  EXPECT_EQ(service.stats().total.updates, 0u);
}

TEST(ServingServiceTest, SharedPlannerPoolsTheCacheAcrossShards) {
  auto planner = std::make_shared<planner::PlannerService>(
      planner::PlannerConfig{.num_threads = 1});
  ServingConfig config;
  config.num_shards = 2;
  config.planner_service = planner;
  ServingService service(config);
  EXPECT_EQ(&service.planner(), planner.get());

  // Auto-dispatched instances (the serving default) plan without
  // touching the cache: neither hits nor misses, nothing stored.
  const UpdateTrace trace = MakeTrace(false, 70, 40);
  for (const char* key : {"auto-a", "auto-b"}) {
    OnlineConfig instance = InstanceConfig(trace);
    instance.policy_spec.name = "always";
    service.CreateInstance(key, instance, true);
    service.SubmitBatch(key, trace.updates, 0);
  }
  service.Flush();
  planner::PlannerStats stats = planner->stats();
  EXPECT_GT(stats.plans, 0u);
  EXPECT_EQ(stats.auto_runs, stats.plans);
  EXPECT_EQ(stats.cache_hits, 0u);
  EXPECT_EQ(stats.cache_misses, 0u);
  EXPECT_EQ(stats.cache_entries, 0u);

  // Two identical portfolio instances under an always-replan policy:
  // the second stream's plans hit the cache the first stream filled.
  for (const char* key : {"a", "same-a"}) {
    OnlineConfig instance = InstanceConfig(trace);
    instance.policy_spec.name = "always";
    instance.plan_options.use_portfolio = true;
    service.CreateInstance(key, instance, true);
    service.SubmitBatch(key, trace.updates, 0);
  }
  service.Flush();
  stats = planner->stats();
  EXPECT_GT(stats.portfolio_runs, 0u);
  EXPECT_GT(stats.cache_hits, 0u);
  EXPECT_EQ(stats.cache_hits + stats.cache_misses,
            stats.plans - stats.auto_runs);
}

TEST(ServingServiceTest, ConcurrencyStressStaysOracleValid) {
  ServingConfig config;
  config.num_shards = 4;
  ServingService service(config);

  // 16 instances, interleaved event-by-event submission from the
  // caller thread: the worst task-framing the router can see.
  std::vector<std::string> keys;
  std::vector<UpdateTrace> traces;
  for (uint64_t i = 0; i < 16; ++i) {
    keys.push_back("stress-" + std::to_string(i));
    traces.push_back(MakeTrace(i % 2 == 1, 100 + i, 60));
    service.CreateInstance(keys.back(), InstanceConfig(traces.back()),
                           true);
  }
  std::size_t longest = 0;
  for (const UpdateTrace& trace : traces) {
    longest = std::max(longest, trace.updates.size());
  }
  uint64_t expected = 0;
  for (std::size_t step = 0; step < longest; ++step) {
    for (std::size_t i = 0; i < keys.size(); ++i) {
      if (step < traces[i].updates.size()) {
        service.SubmitBatch(keys[i], {traces[i].updates[step]}, 4);
        ++expected;
      }
    }
  }
  service.Flush();
  std::string error;
  EXPECT_TRUE(service.ValidateAll(&error)) << error;
  EXPECT_EQ(service.stats().total.updates, expected);
  EXPECT_EQ(service.stats().total.rejected, 0u);
}

// The service-wide default churn budget (ServingConfig::default_budget)
// must reproduce a direct BudgetedAssigner replay exactly: same final
// schema, same deferral books, surfaced through the shard stats.
TEST(ServingServiceTest, DefaultChurnBudgetMatchesDirectBudgetedReplay) {
  const UpdateTrace trace = MakeTrace(false, 91, 250);
  online::BudgetConfig budget;
  budget.window_updates = 16;
  budget.bytes_per_window = 400;

  // Direct reference with the shard's per-event window semantics
  // (batch_size 0 => checkpoint after every applied submit).
  online::BudgetedAssigner ref(InstanceConfig(trace), budget);
  for (const Update& update : trace.updates) {
    const online::SubmitOutcome outcome = ref.Submit(update);
    if (outcome == online::SubmitOutcome::kApplied &&
        ref.assigner().pending_decision_updates() >= 1) {
      ref.PolicyCheckpoint();
    }
  }
  while (ref.deferred() > 0 && ref.CloseWindow() > 0) {
  }
  ref.PolicyCheckpoint();

  ServingConfig config;
  config.num_shards = 2;
  config.default_budget = budget;
  ServingService service(config);
  service.CreateInstance("budgeted", InstanceConfig(trace),
                         /*translate_trace_ids=*/true);
  service.SubmitBatch("budgeted", trace.updates);
  service.CheckpointAll();
  service.Flush();

  const ServingStats stats = service.stats();
  EXPECT_GT(stats.total.budget_deferred_total, 0u)
      << "budget never bound: pick a tighter bytes_per_window";
  EXPECT_EQ(stats.total.budget_deferred_total, ref.deferred_total());
  EXPECT_EQ(stats.total.budget_pending, ref.deferred());
  EXPECT_EQ(stats.total.updates, ref.assigner().totals().updates);

  std::string served;
  service.ForEachInstance(
      [&](const std::string&, const OnlineAssigner& assigner) {
        served = SchemaToText(assigner.Schema());
      });
  EXPECT_EQ(served, SchemaToText(ref.assigner().Schema()));
}

// A per-instance budget passed to CreateInstance overrides the
// service default — here an explicit unbudgeted config opts one
// instance out while its sibling inherits the tight default.
TEST(ServingServiceTest, PerInstanceBudgetOverridesTheDefault) {
  const UpdateTrace trace = MakeTrace(false, 92, 200);
  ServingConfig config;
  config.num_shards = 2;
  config.default_budget.window_updates = 16;
  config.default_budget.bytes_per_window = 300;
  ServingService service(config);

  // Two keys pinned to different shards, so the per-shard stats can
  // attribute the deferral counters unambiguously.
  std::string capped = "capped-0";
  for (int i = 0; service.ShardOf(capped) != 0 && i < 64; ++i) {
    capped = "capped-" + std::to_string(i);
  }
  std::string uncapped = "uncapped-0";
  for (int i = 0; service.ShardOf(uncapped) != 1 && i < 64; ++i) {
    uncapped = "uncapped-" + std::to_string(i);
  }
  ASSERT_EQ(service.ShardOf(capped), 0u);
  ASSERT_EQ(service.ShardOf(uncapped), 1u);

  service.CreateInstance(capped, InstanceConfig(trace),
                         /*translate_trace_ids=*/true);
  service.CreateInstance(uncapped, InstanceConfig(trace),
                         /*translate_trace_ids=*/true,
                         online::BudgetConfig{});  // bytes 0 = unbudgeted
  service.SubmitBatch(capped, trace.updates);
  service.SubmitBatch(uncapped, trace.updates);
  service.CheckpointAll();
  service.Flush();

  const ServingStats stats = service.stats();
  EXPECT_GT(stats.shards[0].budget_deferred_total, 0u);
  EXPECT_EQ(stats.shards[1].budget_deferred_total, 0u);
  EXPECT_EQ(stats.shards[1].budget_pending, 0u);
  std::string error;
  EXPECT_TRUE(service.ValidateAll(&error)) << error;
}

// The lock-free probes are polled cross-thread by the watchdog and the
// RPC admission path; an out-of-range index must die loudly at the
// call site instead of reading out of bounds.
TEST(ServingServiceDeathTest, OutOfRangeShardProbesDie) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  ServingConfig config;
  config.num_shards = 2;
  ServingService service(config);
  EXPECT_DEATH(service.shard_heartbeat(config.num_shards),
               "shard_heartbeat index");
  EXPECT_DEATH(service.InjectApplyDelayForTest(config.num_shards, 1),
               "InjectApplyDelayForTest index");
}

}  // namespace
}  // namespace msp::serving
