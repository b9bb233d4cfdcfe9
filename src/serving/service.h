// ServingService — the sharded serving layer over the online
// subsystem.
//
// The paper's mapping schemas pay off at scale when many evolving
// instances are served concurrently: each tenant / job / join keeps
// its own live schema under a stream of updates. The service routes
// every instance key to one of N shards (stable FNV-1a hash), each
// shard owning a worker thread with exclusive access to its
// OnlineAssigners (shard.h) — the same mutex-free single-writer
// pattern the planner's sharded PlanCache uses for its entries, lifted
// to whole assigners. All shards escalate to ONE shared thread-safe
// PlannerService, so canonically-equal instances across tenants hit a
// common plan cache.
//
//   serving::ServingConfig config;
//   config.num_shards = 4;
//   serving::ServingService service(config);
//   online::OnlineConfig instance;
//   instance.capacity = 100;
//   service.CreateInstance("tenant-7", instance);
//   service.Submit("tenant-7", online::Update::Add(30));
//   service.Flush();                       // barrier: all queues drained
//   service.PrintStats(std::cerr);         // per-shard + aggregate tables
//
// Per-key update order is preserved (a key always lands on the same
// shard's FIFO mailbox); cross-key order is unspecified, as in any
// sharded system.

#ifndef MSP_SERVING_SERVICE_H_
#define MSP_SERVING_SERVICE_H_

#include <cstdint>
#include <functional>
#include <iosfwd>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "durability/wal.h"
#include "online/assigner.h"
#include "online/budget.h"
#include "planner/service.h"
#include "serving/shard.h"
#include "util/check.h"

namespace msp::serving {

/// Construction-time configuration of a ServingService.
struct ServingConfig {
  /// Number of shards == worker threads. Each instance key is pinned
  /// to one shard for its lifetime.
  std::size_t num_shards = 4;
  /// Configuration of the shared PlannerService (ignored when
  /// `planner_service` is supplied).
  planner::PlannerConfig planner;
  /// Optional externally-owned planner to share beyond this service.
  std::shared_ptr<planner::PlannerService> planner_service;
  /// Optional metrics sink, fanned out to every shard (per-shard
  /// serving.* series), the shared planner (unless `planner_service`
  /// was supplied pre-built), attached WALs, and instances created
  /// through the service.
  obs::Registry* metrics = nullptr;
  /// Default per-instance churn budget (budget.h). `bytes_per_window`
  /// 0 = unbudgeted. Applied to every CreateInstance that does not
  /// pass its own budget; requires translate_trace_ids on those
  /// instances. A non-zero default makes AttachWal fail — see
  /// ServingShard::CreateInstance.
  online::BudgetConfig default_budget;
};

/// Aggregate of the per-shard counters.
struct ServingStats {
  std::vector<ShardStats> shards;  // indexed by shard
  ShardStats total;                // sums; latency histograms merged
};

/// See the file comment. All public methods are thread-safe.
class ServingService {
 public:
  explicit ServingService(const ServingConfig& config = {});

  ServingService(const ServingService&) = delete;
  ServingService& operator=(const ServingService&) = delete;

  /// Attaches per-shard write-ahead changelogs under `options.dir`
  /// (the service appends /shard-<i> per shard and records the shard
  /// count in <dir>/MANIFEST). With `options.recover` false the
  /// directory must be fresh; true crash-recovers whatever it holds —
  /// every recovered instance is installed on its shard and the
  /// recovery counters land in the per-shard stats. Call right after
  /// construction, before creating instances. Returns false with
  /// `*error` on open/recovery failure, or when a default churn budget
  /// is configured (the service stays usable, without durability).
  bool AttachWal(const durability::WalOptions& options,
                 std::string* error = nullptr);

  /// Registers `key` on its shard. `config.shared_planner` is replaced
  /// by the service's planner. `translate_trace_ids` enables the
  /// update-trace id translation for replayed traces (see shard.h).
  /// `budget` overrides the service-wide default churn budget for this
  /// instance (nullopt = use `ServingConfig::default_budget`). Returns
  /// why the instance was refused — its InstanceSpec (spec.h) fails
  /// Validate, or a budget meets a WAL or a non-translating instance —
  /// or an empty string once the create is queued.
  std::string CreateInstance(const std::string& key,
                             online::OnlineConfig config,
                             bool translate_trace_ids = false,
                             std::optional<online::BudgetConfig> budget =
                                 std::nullopt);

  /// Enqueues one event for `key` (one policy decision per update).
  void Submit(const std::string& key, const online::Update& update);

  /// Enqueues a window of events for `key`; `batch_size` > 1 lets the
  /// assigner amortize policy checks across that many events.
  void SubmitBatch(const std::string& key,
                   std::vector<online::Update> updates,
                   std::size_t batch_size = 0);

  /// Queues one policy decision for every instance with pending
  /// batched updates — the end-of-stream flush of trailing partial
  /// windows, matching the final checkpoint an unbatched replay does
  /// implicitly. Call before Flush() when the streams have ended.
  void CheckpointAll();

  /// Blocks until every shard's mailbox is drained.
  void Flush();

  /// Queues an instance probe on `key`'s shard, ordered after every
  /// earlier Submit of that key; `fn` runs on the shard worker thread
  /// with a filled InstanceProbe (found=false for unknown keys). See
  /// ServingShard::EnqueueInspect for the callback rules.
  void Inspect(const std::string& key, ServingShard::InspectFn fn);

  /// Per-shard and aggregate counters.
  ServingStats stats() const;

  /// Renders per-shard rows (updates, decisions, latency percentiles)
  /// and the aggregate churn/latency summary as aligned tables.
  void PrintStats(std::ostream& out) const;

  /// Runs `fn` over every instance of every shard. Requires
  /// quiescence: call Flush first and do not Submit concurrently.
  void ForEachInstance(
      const std::function<void(const std::string&,
                               const online::OnlineAssigner&)>& fn) const;

  /// Oracle-checks every instance's live schema. Returns false and
  /// names the first offender in `*error`. Requires quiescence.
  bool ValidateAll(std::string* error = nullptr) const;

  /// Stable shard index of `key` (FNV-1a, platform-independent).
  std::size_t ShardOf(const std::string& key) const;

  /// Shard `i`'s progress heartbeat (lock-free probe for the stall
  /// watchdog); valid for the service's lifetime. `i` is
  /// bounds-checked: the watchdog and the RPC admission path poll this
  /// from other threads, where a silent out-of-range read would be UB
  /// that never crashes near its cause.
  const ShardHeartbeat& shard_heartbeat(std::size_t i) const {
    MSP_CHECK_LT(i, shards_.size()) << "shard_heartbeat index";
    return shards_[i]->heartbeat();
  }

  /// Test-only: wedges shard `i`'s worker by `us` microseconds per
  /// applied update (see ServingShard::InjectApplyDelayForTest).
  /// Bounds-checked like shard_heartbeat.
  void InjectApplyDelayForTest(std::size_t i, uint64_t us) {
    MSP_CHECK_LT(i, shards_.size()) << "InjectApplyDelayForTest index";
    shards_[i]->InjectApplyDelayForTest(us);
  }

  planner::PlannerService& planner() { return *planner_; }
  std::size_t num_shards() const { return shards_.size(); }

 private:
  std::shared_ptr<planner::PlannerService> planner_;
  obs::Registry* metrics_ = nullptr;
  online::BudgetConfig default_budget_;
  std::vector<std::unique_ptr<ServingShard>> shards_;
};

}  // namespace msp::serving

#endif  // MSP_SERVING_SERVICE_H_
