#include "serving/service.h"

#include <algorithm>
#include <ostream>
#include <utility>

#include "online/spec.h"
#include "util/check.h"
#include "util/table.h"

namespace msp::serving {

namespace {

// Stable across platforms and standard-library versions, unlike
// std::hash<std::string>: shard placement is part of the service's
// observable behavior (tests and snapshot-restore flows rely on it).
uint64_t Fnv1a(const std::string& key) {
  uint64_t hash = 1469598103934665603ull;
  for (unsigned char c : key) {
    hash ^= c;
    hash *= 1099511628211ull;
  }
  return hash;
}

std::string FmtPercentile(const obs::HistogramSnapshot& latency, double p) {
  if (latency.count() == 0) return "-";
  return TablePrinter::Fmt(latency.Percentile(p), 1);
}

// The shared planner inherits the service's metrics sink unless the
// caller wired its own (or supplied a pre-built planner_service).
planner::PlannerConfig SharedPlannerConfig(const ServingConfig& config) {
  planner::PlannerConfig pc = config.planner;
  if (pc.metrics == nullptr) pc.metrics = config.metrics;
  return pc;
}

}  // namespace

ServingService::ServingService(const ServingConfig& config)
    : planner_(config.planner_service
                   ? config.planner_service
                   : std::make_shared<planner::PlannerService>(
                         SharedPlannerConfig(config))),
      metrics_(config.metrics),
      default_budget_(config.default_budget) {
  MSP_CHECK_GT(config.num_shards, 0u) << "ServingConfig.num_shards";
  shards_.reserve(config.num_shards);
  for (std::size_t i = 0; i < config.num_shards; ++i) {
    shards_.push_back(std::make_unique<ServingShard>(i, planner_, metrics_));
  }
}

std::size_t ServingService::ShardOf(const std::string& key) const {
  return static_cast<std::size_t>(Fnv1a(key) % shards_.size());
}

bool ServingService::AttachWal(const durability::WalOptions& options,
                               std::string* error) {
  if (default_budget_.bytes_per_window > 0) {
    if (error != nullptr) {
      *error = "a default churn budget cannot be combined with a WAL";
    }
    return false;
  }
  FileSystem* fs = options.fs != nullptr ? options.fs
                                         : RealFileSystem::Default();
  if (options.recover) {
    // The manifest pins the shard count: recovering with a different
    // count would re-route keys to different shards and interleave
    // their changelogs nonsensically.
    std::size_t manifest_shards = 0;
    if (!durability::ReadManifest(fs, options.dir, &manifest_shards,
                                  error)) {
      return false;
    }
    if (manifest_shards != shards_.size()) {
      if (error != nullptr) {
        *error = options.dir + " was written by " +
                 std::to_string(manifest_shards) +
                 " shards; this service has " +
                 std::to_string(shards_.size());
      }
      return false;
    }
  } else if (!durability::WriteManifest(fs, options.dir, shards_.size(),
                                        error)) {
    return false;
  }
  for (const auto& shard : shards_) {
    durability::WalOptions shard_options = options;
    shard_options.dir = JoinPath(
        options.dir, "shard-" + std::to_string(shard->index()));
    if (shard_options.metrics == nullptr) shard_options.metrics = metrics_;
    if (!shard->AttachWal(shard_options, error)) {
      if (error != nullptr) {
        *error = "shard " + std::to_string(shard->index()) + ": " + *error;
      }
      return false;
    }
  }
  return true;
}

std::string ServingService::CreateInstance(
    const std::string& key, online::OnlineConfig config,
    bool translate_trace_ids, std::optional<online::BudgetConfig> budget) {
  const online::BudgetConfig chosen = budget.value_or(default_budget_);
  const std::string invalid =
      online::InstanceSpec::Of(config, chosen).Validate();
  if (!invalid.empty()) return invalid;
  return shards_[ShardOf(key)]->CreateInstance(key, std::move(config),
                                               translate_trace_ids, chosen);
}

void ServingService::Submit(const std::string& key,
                            const online::Update& update) {
  shards_[ShardOf(key)]->Enqueue(key, {update}, 0);
}

void ServingService::SubmitBatch(const std::string& key,
                                 std::vector<online::Update> updates,
                                 std::size_t batch_size) {
  shards_[ShardOf(key)]->Enqueue(key, std::move(updates), batch_size);
}

void ServingService::Inspect(const std::string& key,
                             ServingShard::InspectFn fn) {
  shards_[ShardOf(key)]->EnqueueInspect(key, std::move(fn));
}

void ServingService::CheckpointAll() {
  for (const auto& shard : shards_) shard->EnqueueCheckpointAll();
}

void ServingService::Flush() {
  for (const auto& shard : shards_) shard->Flush();
}

ServingStats ServingService::stats() const {
  ServingStats stats;
  stats.shards.reserve(shards_.size());
  for (const auto& shard : shards_) {
    stats.shards.push_back(shard->stats());
    const ShardStats& s = stats.shards.back();
    stats.total.instances += s.instances;
    stats.total.enqueued_tasks += s.enqueued_tasks;
    stats.total.processed_tasks += s.processed_tasks;
    stats.total.updates += s.updates;
    stats.total.rejected += s.rejected;
    stats.total.skipped += s.skipped;
    stats.total.repairs += s.repairs;
    stats.total.replans += s.replans;
    stats.total.budget_deferred_total += s.budget_deferred_total;
    stats.total.budget_pending += s.budget_pending;
    stats.total.churn += s.churn;
    stats.total.wal_records += s.wal_records;
    stats.total.wal_bytes += s.wal_bytes;
    stats.total.wal_fsyncs += s.wal_fsyncs;
    stats.total.wal_rotations += s.wal_rotations;
    stats.total.wal_epoch = std::max(stats.total.wal_epoch, s.wal_epoch);
    stats.total.recovered_instances += s.recovered_instances;
    stats.total.recovered_records += s.recovered_records;
    stats.total.recovered_torn_tail |= s.recovered_torn_tail;
    stats.total.latency.Merge(s.latency);
  }
  return stats;
}

void ServingService::PrintStats(std::ostream& out) const {
  const ServingStats stats = this->stats();

  TablePrinter shards("serving shards");
  shards.SetHeader({"shard", "instances", "updates", "rejected", "repairs",
                    "replans", "p50 us", "p99 us", "max us"});
  const auto row = [&shards](const std::string& name, const ShardStats& s) {
    const std::string max =
        s.latency.count() == 0
            ? "-"
            : TablePrinter::Fmt(static_cast<double>(s.latency.max()), 1);
    shards.AddRow({name, TablePrinter::Fmt(s.instances),
                   TablePrinter::Fmt(s.updates),
                   TablePrinter::Fmt(s.rejected),
                   TablePrinter::Fmt(s.repairs),
                   TablePrinter::Fmt(s.replans),
                   FmtPercentile(s.latency, 50.0),
                   FmtPercentile(s.latency, 99.0), max});
  };
  for (std::size_t i = 0; i < stats.shards.size(); ++i) {
    row("shard-" + std::to_string(i), stats.shards[i]);
  }
  row("total", stats.total);
  shards.Print(out);

  TablePrinter churn("serving churn (all shards)");
  churn.SetHeader({"metric", "value"});
  churn.AddRow(
      {"inputs moved", TablePrinter::Fmt(stats.total.churn.inputs_moved)});
  churn.AddRow(
      {"inputs dropped", TablePrinter::Fmt(stats.total.churn.inputs_dropped)});
  churn.AddRow(
      {"bytes moved", TablePrinter::Fmt(stats.total.churn.bytes_moved)});
  churn.AddRow({"reducers created",
                TablePrinter::Fmt(stats.total.churn.reducers_created)});
  churn.AddRow({"reducers destroyed",
                TablePrinter::Fmt(stats.total.churn.reducers_destroyed)});
  if (stats.total.skipped > 0) {
    churn.AddRow({"events skipped (bad id)",
                  TablePrinter::Fmt(stats.total.skipped)});
  }
  if (stats.total.budget_deferred_total > 0 ||
      stats.total.budget_pending > 0) {
    churn.AddRow({"events deferred (budget)",
                  TablePrinter::Fmt(stats.total.budget_deferred_total)});
    churn.AddRow({"still pending (budget)",
                  TablePrinter::Fmt(stats.total.budget_pending)});
  }
  churn.Print(out);

  if (stats.total.wal_records > 0 || stats.total.wal_epoch > 0) {
    TablePrinter wal("durability (per shard)");
    wal.SetHeader({"shard", "epoch", "wal records", "wal bytes", "fsyncs",
                   "rotations", "recovered", "replayed", "torn"});
    const auto wal_row = [&wal](const std::string& name,
                                const ShardStats& s) {
      wal.AddRow({name, TablePrinter::Fmt(s.wal_epoch),
                  TablePrinter::Fmt(s.wal_records),
                  TablePrinter::Fmt(s.wal_bytes),
                  TablePrinter::Fmt(s.wal_fsyncs),
                  TablePrinter::Fmt(s.wal_rotations),
                  TablePrinter::Fmt(s.recovered_instances),
                  TablePrinter::Fmt(s.recovered_records),
                  s.recovered_torn_tail ? "yes" : "no"});
    };
    for (std::size_t i = 0; i < stats.shards.size(); ++i) {
      wal_row("shard-" + std::to_string(i), stats.shards[i]);
    }
    wal_row("total", stats.total);
    wal.Print(out);
  }
}

void ServingService::ForEachInstance(
    const std::function<void(const std::string&,
                             const online::OnlineAssigner&)>& fn) const {
  for (const auto& shard : shards_) shard->ForEachInstance(fn);
}

bool ServingService::ValidateAll(std::string* error) const {
  bool ok = true;
  ForEachInstance([&](const std::string& key,
                      const online::OnlineAssigner& assigner) {
    if (!ok) return;
    std::string why;
    if (!assigner.ValidateNow(&why)) {
      ok = false;
      if (error != nullptr) *error = "instance '" + key + "': " + why;
    }
  });
  return ok;
}

}  // namespace msp::serving
