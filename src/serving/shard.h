// One shard of the serving layer: a worker thread with exclusive
// ownership of a set of OnlineAssigners.
//
// OnlineAssigner is deliberately not thread-safe — one assigner serves
// one instance's ordered update stream. A ServingShard scales that
// discipline: every instance routed to the shard is touched by exactly
// one thread (the shard's worker), so no per-assigner locking exists
// at all. Callers talk to the shard through a mailbox (mutex + condvar
// FIFO): CreateInstance and Enqueue append tasks, the worker drains
// them in order, and Flush blocks until the mailbox is empty and the
// worker idle. Per-key update order is therefore preserved end to end.
//
// Each unbudgeted instance is a durability::Stream (durability/
// stream.h), the one translate → apply → log → checkpoint step the CLI
// and WAL recovery also run; the shard adds the mailbox, the optional
// changelog, per-update latency samples and the stats tables, which it
// reconciles from each instance's own books after every task.

#ifndef MSP_SERVING_SHARD_H_
#define MSP_SERVING_SHARD_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "durability/stream.h"
#include "durability/wal.h"
#include "obs/histogram.h"
#include "obs/metrics.h"
#include "online/assigner.h"
#include "online/budget.h"
#include "online/trace.h"
#include "planner/service.h"

namespace msp::serving {

/// Counter snapshot of one shard. Exact: counters are only mutated by
/// the worker under the shard mutex.
struct ShardStats {
  uint64_t instances = 0;
  uint64_t enqueued_tasks = 0;
  uint64_t processed_tasks = 0;
  uint64_t updates = 0;    // applied updates across all instances
  uint64_t rejected = 0;   // infeasible updates refused by assigners
  uint64_t skipped = 0;    // events targeting unknown/rejected trace ids
  uint64_t repairs = 0;    // policy decisions absorbed by local repair
  uint64_t replans = 0;    // policy escalations
  /// Churn-budget counters (all zero without budgeted instances).
  uint64_t budget_deferred_total = 0;  // lifetime deferred outcomes
  uint64_t budget_pending = 0;         // events queued right now
  online::ChurnStats churn;
  /// Durability counters (all zero when the shard has no WAL).
  uint64_t wal_records = 0;    // changelog records appended (lifetime)
  uint64_t wal_bytes = 0;      // changelog bytes appended (lifetime)
  uint64_t wal_fsyncs = 0;     // fsyncs issued by the changelog writer
  uint64_t wal_rotations = 0;  // snapshot-boundary rotations served
  uint64_t wal_epoch = 0;      // current changelog epoch
  uint64_t recovered_instances = 0;  // instances rebuilt by AttachWal
  uint64_t recovered_records = 0;    // changelog records replayed
  bool recovered_torn_tail = false;  // replay stopped at a torn record
  /// Per-update *repair* latency in microseconds as a log-bucket
  /// histogram snapshot: every applied update since construction is
  /// counted (no ring cap). Policy checks and replans are excluded, so
  /// the percentiles measure the LiveState hot path and stay
  /// comparable across batch sizes and policies. Mergeable across
  /// shards via HistogramSnapshot::Merge.
  obs::HistogramSnapshot latency;
};

/// Worker-progress heartbeat, published with relaxed atomics by the
/// shard and read lock-free by the stall watchdog (obs/watchdog.h).
/// `last_progress_us` advances on every task boundary and every
/// processed update, so a wedged apply shows up as a growing gap even
/// while `busy` stays true.
struct ShardHeartbeat {
  std::atomic<uint64_t> last_progress_us{0};
  std::atomic<uint64_t> last_ordinal{0};  // events processed (lifetime)
  std::atomic<uint64_t> queue_depth{0};   // mailbox depth
  std::atomic<bool> busy{false};          // worker mid-task
};

/// See the file comment. All public methods are thread-safe; the
/// assigners themselves are worker-private.
class ServingShard {
 public:
  /// `metrics` may be null (no sink): latency histograms then live
  /// only in the shard. With a sink attached the shard publishes
  /// serving.* series labeled shard=<index> — apply latency, mailbox
  /// depth, queue dwell — and instances created on it inherit the sink.
  ServingShard(std::size_t index,
               std::shared_ptr<planner::PlannerService> planner,
               obs::Registry* metrics = nullptr);

  ServingShard(const ServingShard&) = delete;
  ServingShard& operator=(const ServingShard&) = delete;

  /// Drains the mailbox, then joins the worker.
  ~ServingShard();

  /// Attaches a per-shard write-ahead changelog (durability/wal.h):
  /// opens (or, per `options.recover`, crash-recovers) `options.dir`
  /// on the calling thread and installs every recovered instance.
  /// From then on the worker logs each processed event *before* its
  /// task is acknowledged (log-before-ack: the mailbox drain loop
  /// fsyncs the changelog before marking itself idle, so a returned
  /// Flush means everything processed is durable). Requires a
  /// quiescent shard with no instances yet — call right after
  /// construction, before any CreateInstance/Enqueue. Returns false
  /// with `*error` when the directory cannot be opened or recovery
  /// fails (stale pair, corrupt header, divergent replay).
  bool AttachWal(const durability::WalOptions& options,
                 std::string* error = nullptr);

  /// Registers a new instance (queued like any update, so creation
  /// orders correctly against subsequent Enqueues of the same key).
  /// `config.shared_planner` is overwritten with the shard's planner.
  /// `translate_trace_ids` enables the update-trace id translation:
  /// remove/resize targets are mapped through the add history, and
  /// events referencing unknown or rejected adds are counted skipped.
  /// `budget.bytes_per_window` > 0 wraps the instance's assigner in a
  /// BudgetedAssigner (budget.h): each window of submitted events gets
  /// a shipped-byte budget and over-budget events are deferred FIFO,
  /// drained at window rollovers and at EnqueueCheckpointAll. Budgets
  /// require translate_trace_ids (the wrapper submits trace-side ids)
  /// and are refused on a WAL-attached shard — durability logs at
  /// apply time, which a deferral queue would reorder out from under
  /// the ack discipline. Returns why the instance was refused (nothing
  /// is queued then), or an empty string.
  std::string CreateInstance(std::string key, online::OnlineConfig config,
                             bool translate_trace_ids,
                             online::BudgetConfig budget = {});

  /// Appends a window of events for `key`. `batch_size` 0 or 1 applies
  /// them one policy decision per update; larger windows go through
  /// OnlineAssigner policy checkpoints every `batch_size` applied
  /// events. The window position is the assigner's own pending count,
  /// so splitting a stream across Enqueue calls never shifts policy
  /// timing — which also means a trailing partial window stays pending
  /// until more events arrive or EnqueueCheckpointAll runs.
  void Enqueue(std::string key, std::vector<online::Update> updates,
               std::size_t batch_size);

  /// Queues one policy decision for every instance with pending
  /// updates (end-of-stream flush, mirroring the final checkpoint of
  /// an unbatched replay). Budgeted instances drain their deferred
  /// queue first (window by window, while progress is possible).
  void EnqueueCheckpointAll();

  /// Data-only snapshot of one instance, filled by the worker for an
  /// Inspect callback.
  struct InstanceProbe {
    bool found = false;
    uint64_t inputs = 0;
    uint64_t reducers = 0;
    uint64_t capacity = 0;
    uint64_t applied = 0;           // lifetime applied updates
    uint64_t rejected = 0;          // lifetime rejected updates
    uint64_t deferred_pending = 0;  // budget queue occupancy
  };
  using InspectFn = std::function<void(const InstanceProbe&)>;

  /// Queues `fn` behind every task enqueued before it; the worker
  /// fills an InstanceProbe for `key` (found=false when unknown) and
  /// invokes the callback *on the worker thread*. Keep callbacks short
  /// and never re-enter the shard from one — the mailbox is stalled
  /// while it runs. This is how the RPC front door answers Query
  /// requests ordered after earlier submits of the same key.
  void EnqueueInspect(std::string key, InspectFn fn);

  /// Blocks until every queued task has been processed.
  void Flush();

  ShardStats stats() const;

  /// Runs `fn` over every instance. Only meaningful while the shard is
  /// quiescent (after Flush, with no concurrent Enqueue): the mailbox
  /// mutex orders this read after the worker's last write.
  void ForEachInstance(
      const std::function<void(const std::string&,
                               const online::OnlineAssigner&)>& fn) const;

  std::size_t index() const { return index_; }

  /// Lock-free progress probe for the watchdog; valid for the shard's
  /// lifetime.
  const ShardHeartbeat& heartbeat() const { return heartbeat_; }

  /// Makes the worker sleep `us` microseconds before applying every
  /// update — a deterministic wedge for watchdog tests. 0 disables.
  void InjectApplyDelayForTest(uint64_t us) {
    apply_delay_us_.store(us, std::memory_order_relaxed);
  }

 private:
  struct Instance {
    /// Exactly one of these is set: `budgeted` when a churn budget was
    /// configured, else `stream`.
    std::optional<durability::Stream> stream;
    std::unique_ptr<online::BudgetedAssigner> budgeted;
    /// The instance's books as last folded into stats_ (see Reconcile).
    online::OnlineTotals pub_totals;
    uint64_t pub_skipped = 0;
    uint64_t pub_deferred_total = 0;
    uint64_t pub_pending = 0;

    online::OnlineAssigner& live() {
      return budgeted != nullptr ? budgeted->assigner() : stream->assigner();
    }
    const online::OnlineAssigner& live() const {
      return budgeted != nullptr ? budgeted->assigner() : stream->assigner();
    }
  };

  struct Task {
    bool create = false;
    bool checkpoint_all = false;
    std::string key;
    online::OnlineConfig config;  // create only
    bool translate = false;       // create only
    online::BudgetConfig budget;  // create only
    InspectFn inspect;            // non-null: probe `key`, no updates
    std::vector<online::Update> updates;
    std::size_t batch_size = 0;
    /// Enqueue timestamp (MonotonicMicros), stamped only when a
    /// metrics sink is attached; feeds the queue-dwell histogram.
    uint64_t enqueued_at_us = 0;
  };

  void WorkerLoop();
  void Process(Task& task);
  /// Worker-only: folds an instance's books (assigner totals, skipped
  /// events, budget counters) into stats_ as deltas against its
  /// published baselines, then advances the baselines. The one way the
  /// shard accounts: deferred budget events apply at times the task
  /// loop cannot see, so only the books are exact. Locks mu_.
  void Reconcile(Instance* instance);
  /// Mailbox-side bookkeeping shared by every enqueue path (mu_ NOT
  /// held): dwell stamp + depth gauge.
  void StampEnqueue(Task* task);
  /// Worker-only: the live changelog writer, or null without a WAL.
  durability::ChangelogWriter* Log();
  /// Worker-only: a failed changelog append is fatal (log-before-ack
  /// means nothing may be acked past it).
  void CheckLogged(const std::string& log_error) const;
  /// Worker-only: durability barrier + rotation check, run when the
  /// mailbox drains (the group-commit flush point).
  void WalQuiesce();
  /// Worker-only: cuts a shard image of every instance and rotates.
  void WalRotate();
  /// Worker-only: publishes the wal counters into stats_ (mu_ held).
  void SyncWalStats();

  const std::size_t index_;
  std::shared_ptr<planner::PlannerService> planner_;

  /// Observability. apply_latency_ always points at a live histogram:
  /// the registry's serving.apply_latency_us{shard=i} when a sink is
  /// attached, else the shard-owned own_latency_. The gauge/dwell/task
  /// handles are null without a sink.
  obs::Registry* metrics_ = nullptr;
  obs::Histogram own_latency_;
  obs::Histogram* apply_latency_ = &own_latency_;
  obs::Gauge* mailbox_depth_ = nullptr;
  obs::Histogram* queue_dwell_ = nullptr;
  obs::Counter* tasks_processed_ = nullptr;
  obs::Counter* updates_skipped_ = nullptr;

  ShardHeartbeat heartbeat_;
  std::atomic<uint64_t> apply_delay_us_{0};

  mutable std::mutex mu_;
  std::condition_variable work_available_;
  std::condition_variable idle_;
  std::deque<Task> queue_;
  bool busy_ = false;
  bool shutting_down_ = false;
  ShardStats stats_;             // guarded by mu_

  /// Worker-private: only the worker thread dereferences instances
  /// while tasks are in flight (ForEachInstance synchronizes on mu_
  /// and requires quiescence).
  std::map<std::string, Instance> instances_;

  /// Worker-private after AttachWal (which installs it under mu_ on a
  /// quiescent shard, so the worker's next task dequeue — also under
  /// mu_ — observes it). Null = durability disabled.
  std::unique_ptr<durability::ShardWal> wal_;

  std::thread worker_;
};

}  // namespace msp::serving

#endif  // MSP_SERVING_SHARD_H_
