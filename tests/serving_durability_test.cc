// Serving-layer durability under concurrency (runs under TSan in CI):
// N shard workers append to their changelogs while producer threads
// submit batches, and recovery into a fresh service must reproduce
// every instance bit-identically — per-key FIFO and the log-before-ack
// barrier are what make that equality hold. Also: counter
// reconciliation between live and recovered stats, rotation under
// load, and continuation (a recovered service keeps logging, and a
// second recovery sees the continuation too), and the refusal of a
// churn budget on a WAL-attached service.

#include <cstdint>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "core/schema_io.h"
#include "durability/wal.h"
#include "gtest/gtest.h"
#include "online/assigner.h"
#include "online/budget.h"
#include "online/trace.h"
#include "serving/service.h"
#include "util/fs.h"
#include "workload/updates.h"

namespace msp::serving {
namespace {

using online::OnlineConfig;
using online::UpdateTrace;

constexpr std::size_t kShards = 3;
constexpr std::size_t kInstances = 8;
constexpr std::size_t kBatch = 4;

UpdateTrace MakeTrace(bool x2y, uint64_t seed) {
  wl::TraceConfig config;
  config.x2y = x2y;
  config.initial_inputs = 20;
  config.steps = 120;
  config.seed = seed;
  return wl::GenerateTrace(config);
}

OnlineConfig InstanceConfig(const UpdateTrace& trace) {
  OnlineConfig config;
  config.x2y = trace.x2y;
  config.capacity = trace.initial_capacity;
  config.policy_spec.name = "drift";
  config.policy_spec.cooldown = 8;
  // Recovery replays the log deterministically, so the live run must
  // plan deterministically too.
  config.plan_options.use_portfolio = false;
  return config;
}

/// Everything ForEachInstance can observe about one instance.
struct InstanceImage {
  std::string schema;
  uint64_t updates = 0;
  uint64_t rejected = 0;
  uint64_t repairs = 0;
  uint64_t replans = 0;
  online::ChurnStats churn;
  InputSize capacity = 0;
  std::size_t num_inputs = 0;

  bool operator==(const InstanceImage&) const = default;
};

std::map<std::string, InstanceImage> Capture(const ServingService& service) {
  std::map<std::string, InstanceImage> images;
  service.ForEachInstance(
      [&images](const std::string& key, const online::OnlineAssigner& a) {
        InstanceImage image;
        image.schema = SchemaToText(a.Schema());
        image.updates = a.totals().updates;
        image.rejected = a.totals().rejected;
        image.repairs = a.totals().repairs;
        image.replans = a.totals().replans;
        image.churn = a.totals().churn;
        image.capacity = a.capacity();
        image.num_inputs = a.num_inputs();
        images[key] = std::move(image);
      });
  return images;
}

std::map<std::string, UpdateTrace> MakeTraces() {
  std::map<std::string, UpdateTrace> traces;
  for (uint64_t i = 0; i < kInstances; ++i) {
    traces.emplace("tenant-" + std::to_string(i),
                   MakeTrace(/*x2y=*/i % 2 == 1, 90 + i));
  }
  return traces;
}

// Runs the concurrent durable workload into `fs` under `wal` options
// and returns the live per-instance images at quiescence.
std::map<std::string, InstanceImage> RunConcurrent(
    MemFileSystem* fs, durability::WalOptions wal, ServingStats* stats) {
  wal.fs = fs;
  ServingConfig config;
  config.num_shards = kShards;
  ServingService service(config);
  std::string error;
  EXPECT_TRUE(service.AttachWal(wal, &error)) << error;

  const auto traces = MakeTraces();
  for (const auto& [key, trace] : traces) {
    service.CreateInstance(key, InstanceConfig(trace),
                           /*translate_trace_ids=*/true);
  }
  // Four producers, two tenants each: submissions to the same shard
  // interleave across threads, per-key order stays intact because each
  // key has one producer (the service's FIFO guarantee is per key).
  std::vector<std::thread> producers;
  std::vector<std::string> keys;
  for (const auto& [key, trace] : traces) keys.push_back(key);
  for (std::size_t t = 0; t < 4; ++t) {
    producers.emplace_back([t, &keys, &traces, &service] {
      for (std::size_t i = t; i < keys.size(); i += 4) {
        const UpdateTrace& trace = traces.at(keys[i]);
        // Windowed sub-batches, so workers interleave keys mid-trace.
        for (std::size_t at = 0; at < trace.updates.size(); at += kBatch) {
          const std::size_t end =
              std::min(at + kBatch, trace.updates.size());
          service.SubmitBatch(
              keys[i],
              std::vector<online::Update>(trace.updates.begin() + at,
                                          trace.updates.begin() + end),
              kBatch);
        }
      }
    });
  }
  for (std::thread& producer : producers) producer.join();
  service.CheckpointAll();
  service.Flush();
  EXPECT_TRUE(service.ValidateAll(&error)) << error;
  if (stats != nullptr) *stats = service.stats();
  return Capture(service);
}

// Recovers the directory into a fresh service and returns its images.
std::map<std::string, InstanceImage> Recover(MemFileSystem* fs,
                                             durability::WalOptions wal,
                                             ServingStats* stats) {
  wal.fs = fs;
  wal.recover = true;
  ServingConfig config;
  config.num_shards = kShards;
  auto service = std::make_unique<ServingService>(config);
  std::string error;
  EXPECT_TRUE(service->AttachWal(wal, &error)) << error;
  service->Flush();
  EXPECT_TRUE(service->ValidateAll(&error)) << error;
  if (stats != nullptr) *stats = service->stats();
  return Capture(*service);
}

TEST(ServingDurabilityTest, ConcurrentLoggingRecoversBitIdentical) {
  MemFileSystem fs;
  durability::WalOptions wal;
  wal.dir = "wal";
  wal.fsync_every_n = 8;
  ServingStats live_stats;
  const auto live = RunConcurrent(&fs, wal, &live_stats);
  ASSERT_EQ(live.size(), kInstances);
  EXPECT_GT(live_stats.total.wal_records, 0u);
  EXPECT_GT(live_stats.total.wal_fsyncs, 0u);

  ServingStats recovered_stats;
  const auto recovered = Recover(&fs, wal, &recovered_stats);
  ASSERT_EQ(recovered.size(), kInstances);
  for (const auto& [key, image] : live) {
    ASSERT_TRUE(recovered.contains(key)) << key;
    EXPECT_EQ(recovered.at(key), image) << key << " diverged on recovery";
  }
  // Counter reconciliation: recovery rebuilt every instance from
  // exactly the records the live run appended (the final Flush synced
  // them all), and the per-instance totals above re-add to the same
  // aggregate churn the live shards reported.
  EXPECT_EQ(recovered_stats.total.recovered_instances, kInstances);
  EXPECT_EQ(recovered_stats.total.recovered_records,
            live_stats.total.wal_records);
  EXPECT_FALSE(recovered_stats.total.recovered_torn_tail);
  // The shard counters (what the workers processed) and the assigner
  // totals (what the instances absorbed) must tell the same story on
  // both sides: live shard counters == summed live instance totals ==
  // summed recovered instance totals. (A recovered service's own shard
  // counters start at zero — its workers processed nothing yet.)
  uint64_t live_updates = 0, recovered_updates = 0;
  online::ChurnStats live_churn, recovered_churn;
  for (const auto& [key, image] : live) {
    live_updates += image.updates;
    live_churn += image.churn;
  }
  for (const auto& [key, image] : recovered) {
    recovered_updates += image.updates;
    recovered_churn += image.churn;
  }
  EXPECT_EQ(live_updates, live_stats.total.updates);
  EXPECT_EQ(live_churn, live_stats.total.churn);
  EXPECT_EQ(recovered_updates, live_updates);
  EXPECT_EQ(recovered_churn, live_churn);
  EXPECT_EQ(recovered_stats.total.updates, 0u);
}

TEST(ServingDurabilityTest, RotationUnderConcurrentLoadRecovers) {
  MemFileSystem fs;
  durability::WalOptions wal;
  wal.dir = "wal";
  wal.fsync_every_n = 4;
  wal.rotate_every = 64;  // several rotations per shard mid-run
  ServingStats live_stats;
  const auto live = RunConcurrent(&fs, wal, &live_stats);
  EXPECT_GT(live_stats.total.wal_rotations, 0u);
  EXPECT_GT(live_stats.total.wal_epoch, 1u);

  ServingStats recovered_stats;
  const auto recovered = Recover(&fs, wal, &recovered_stats);
  ASSERT_EQ(recovered.size(), kInstances);
  for (const auto& [key, image] : live) {
    EXPECT_EQ(recovered.at(key), image) << key << " diverged on recovery";
  }
  // Post-rotation recovery replays only the tail after the newest
  // snapshot, not the whole history.
  EXPECT_LT(recovered_stats.total.recovered_records,
            live_stats.total.wal_records);
}

TEST(ServingDurabilityTest, RecoveredServiceContinuesDurably) {
  MemFileSystem fs;
  durability::WalOptions wal;
  wal.dir = "wal";
  wal.fsync_every_n = 8;
  const auto live = RunConcurrent(&fs, wal, nullptr);

  // Recovered service accepts further updates...
  durability::WalOptions recover_wal = wal;
  recover_wal.fs = &fs;
  recover_wal.recover = true;
  ServingConfig config;
  config.num_shards = kShards;
  std::map<std::string, InstanceImage> continued;
  {
    ServingService service(config);
    std::string error;
    ASSERT_TRUE(service.AttachWal(recover_wal, &error)) << error;
    for (std::size_t i = 0; i < kInstances; ++i) {
      service.Submit("tenant-" + std::to_string(i),
                     online::Update::Add(7));
    }
    service.CheckpointAll();
    service.Flush();
    ASSERT_TRUE(service.ValidateAll(&error)) << error;
    continued = Capture(service);
    for (const auto& [key, image] : continued) {
      EXPECT_EQ(image.updates, live.at(key).updates + 1) << key;
    }
  }
  // ...and a second recovery sees the continuation, not just the
  // original run: the recovered epoch's changelog kept logging.
  const auto recovered = Recover(&fs, wal, nullptr);
  ASSERT_EQ(recovered.size(), kInstances);
  for (const auto& [key, image] : continued) {
    EXPECT_EQ(recovered.at(key), image) << key << " lost the continuation";
  }
}

// A checkpoint with nothing pending decides nothing, so it logs
// nothing: once a CheckpointAll has flushed every trailing window, a
// second one on the quiescent service appends no record at all.
TEST(ServingDurabilityTest, QuiescentCheckpointAllAppendsNoRecords) {
  MemFileSystem fs;
  durability::WalOptions wal;
  wal.dir = "wal";
  wal.fs = &fs;
  ServingConfig config;
  config.num_shards = kShards;
  ServingService service(config);
  std::string error;
  ASSERT_TRUE(service.AttachWal(wal, &error)) << error;
  for (auto& [key, trace] : MakeTraces()) {
    ASSERT_EQ(service.CreateInstance(key, InstanceConfig(trace),
                                     /*translate_trace_ids=*/true),
              "");
    service.SubmitBatch(key, std::move(trace.updates), kBatch);
  }
  service.CheckpointAll();
  service.Flush();
  const uint64_t records = service.stats().total.wal_records;
  EXPECT_GT(records, 0u);
  service.CheckpointAll();
  service.Flush();
  EXPECT_EQ(service.stats().total.wal_records, records);
}

// A churn budget cannot ride a WAL: the changelog logs events in
// apply order, which budget deferral would reorder. The combination is
// refused when it is asked for — never accepted with the budget
// silently dropped.
TEST(ServingDurabilityTest, BudgetedCreateIsRefusedOnceWalIsAttached) {
  MemFileSystem fs;
  durability::WalOptions wal;
  wal.dir = "wal";
  wal.fs = &fs;
  ServingService service{ServingConfig{}};
  std::string error;
  ASSERT_TRUE(service.AttachWal(wal, &error)) << error;
  OnlineConfig config;
  config.capacity = 100;
  online::BudgetConfig budget;
  budget.bytes_per_window = 500;
  const std::string refused = service.CreateInstance(
      "budgeted", config, /*translate_trace_ids=*/true, budget);
  EXPECT_NE(refused.find("WAL"), std::string::npos) << refused;
  EXPECT_EQ(service.CreateInstance("plain", config, true), "");
  service.Flush();
  EXPECT_EQ(service.stats().total.instances, 1u);
}

TEST(ServingDurabilityTest, AttachWalRefusesADefaultBudget) {
  MemFileSystem fs;
  durability::WalOptions wal;
  wal.dir = "wal";
  wal.fs = &fs;
  ServingConfig config;
  config.default_budget.bytes_per_window = 500;
  ServingService service(config);
  std::string error;
  EXPECT_FALSE(service.AttachWal(wal, &error));
  EXPECT_NE(error.find("churn budget"), std::string::npos) << error;
  EXPECT_FALSE(fs.FileExists("wal/MANIFEST"));
}

// The service validates the instance spec before anything is queued,
// so a bad config is an error string, not an abort on a shard worker.
TEST(ServingDurabilityTest, CreateInstanceRefusesInvalidSpecs) {
  ServingService service{ServingConfig{}};
  OnlineConfig config;  // capacity 0
  EXPECT_NE(service.CreateInstance("zero", config), "");
  config.capacity = 100;
  config.policy_spec.name = "every-n";
  config.policy_spec.every_n = 0;
  EXPECT_NE(service.CreateInstance("every-0", config), "");
  config.policy_spec.name = "drift";
  online::BudgetConfig budget;
  budget.bytes_per_window = 500;
  EXPECT_NE(service.CreateInstance("untranslated", config,
                                   /*translate_trace_ids=*/false, budget),
            "");
  service.Flush();
  EXPECT_EQ(service.stats().total.instances, 0u);
}

}  // namespace
}  // namespace msp::serving
