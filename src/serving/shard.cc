#include "serving/shard.h"

#include <chrono>
#include <string>
#include <thread>
#include <utility>

#include "obs/span.h"
#include "online/snapshot.h"
#include "online/spec.h"
#include "util/check.h"
#include "util/timer.h"

namespace msp::serving {

ServingShard::ServingShard(std::size_t index,
                           std::shared_ptr<planner::PlannerService> planner,
                           obs::Registry* metrics)
    : index_(index), planner_(std::move(planner)), metrics_(metrics) {
  MSP_CHECK(planner_ != nullptr);
  if (metrics_ != nullptr) {
    const obs::Labels shard_label = {{"shard", std::to_string(index_)}};
    apply_latency_ =
        metrics_->histogram("serving.apply_latency_us", shard_label);
    mailbox_depth_ = metrics_->gauge("serving.mailbox_depth", shard_label);
    queue_dwell_ = metrics_->histogram("serving.queue_dwell_us", shard_label);
    tasks_processed_ = metrics_->counter("serving.tasks_processed_total");
    updates_skipped_ = metrics_->counter("serving.updates_skipped_total");
  }
  worker_ = std::thread([this] { WorkerLoop(); });
}

ServingShard::~ServingShard() {
  {
    std::unique_lock<std::mutex> lock(mu_);
    shutting_down_ = true;
  }
  work_available_.notify_all();
  worker_.join();
}

bool ServingShard::AttachWal(const durability::WalOptions& options,
                             std::string* error) {
  std::map<std::string, durability::StreamState> streams;
  durability::RecoveryStats recovery;
  auto wal = durability::ShardWal::Open(options, options.dir, planner_,
                                        &streams, &recovery, error);
  if (wal == nullptr) return false;
  std::unique_lock<std::mutex> lock(mu_);
  MSP_CHECK(queue_.empty() && !busy_ && wal_ == nullptr &&
            instances_.empty())
      << "AttachWal requires a fresh, quiescent shard";
  wal_ = std::move(wal);
  for (auto& [key, stream] : streams) {
    Instance instance;
    instance.assigner = std::move(stream.assigner);
    instance.translate = stream.translate;
    instance.live_of_trace = std::move(stream.live_of_trace);
    instance.event_seq = stream.event_seq;
    instances_[key] = std::move(instance);
  }
  stats_.instances += streams.size();
  stats_.recovered_instances = recovery.instances;
  stats_.recovered_records = recovery.records_replayed;
  stats_.recovered_torn_tail = recovery.torn_tail;
  SyncWalStats();
  return true;
}

void ServingShard::StampEnqueue(Task* task) {
  heartbeat_.queue_depth.fetch_add(1, std::memory_order_relaxed);
  if (metrics_ == nullptr) return;
  task->enqueued_at_us = obs::MonotonicMicros();
  mailbox_depth_->Add(1);
}

std::string ServingShard::CreateInstance(std::string key,
                                         online::OnlineConfig config,
                                         bool translate_trace_ids,
                                         online::BudgetConfig budget) {
  const bool budgeted = budget.bytes_per_window > 0;
  if (budgeted && !translate_trace_ids) {
    return "churn budgets submit trace-side ids and need translation";
  }
  Task task;
  task.create = true;
  task.key = std::move(key);
  task.config = std::move(config);
  task.config.shared_planner = planner_;
  // Instances inherit the shard's metrics sink unless the caller wired
  // a different one into the instance config.
  if (task.config.metrics == nullptr) task.config.metrics = metrics_;
  task.translate = translate_trace_ids;
  task.budget = budget;
  {
    std::unique_lock<std::mutex> lock(mu_);
    if (budgeted && wal_ != nullptr) {
      return "a churn budget cannot be combined with a WAL (the "
             "changelog logs events in apply order, which budget "
             "deferral would reorder)";
    }
    StampEnqueue(&task);
    ++stats_.enqueued_tasks;
    queue_.push_back(std::move(task));
  }
  work_available_.notify_one();
  return {};
}

void ServingShard::Enqueue(std::string key,
                           std::vector<online::Update> updates,
                           std::size_t batch_size) {
  Task task;
  task.key = std::move(key);
  task.updates = std::move(updates);
  task.batch_size = batch_size;
  StampEnqueue(&task);
  {
    std::unique_lock<std::mutex> lock(mu_);
    ++stats_.enqueued_tasks;
    queue_.push_back(std::move(task));
  }
  work_available_.notify_one();
}

void ServingShard::EnqueueCheckpointAll() {
  Task task;
  task.checkpoint_all = true;
  StampEnqueue(&task);
  {
    std::unique_lock<std::mutex> lock(mu_);
    ++stats_.enqueued_tasks;
    queue_.push_back(std::move(task));
  }
  work_available_.notify_one();
}

void ServingShard::EnqueueInspect(std::string key, InspectFn fn) {
  MSP_CHECK(fn != nullptr);
  Task task;
  task.key = std::move(key);
  task.inspect = std::move(fn);
  StampEnqueue(&task);
  {
    std::unique_lock<std::mutex> lock(mu_);
    ++stats_.enqueued_tasks;
    queue_.push_back(std::move(task));
  }
  work_available_.notify_one();
}

void ServingShard::Flush() {
  std::unique_lock<std::mutex> lock(mu_);
  idle_.wait(lock, [this] { return queue_.empty() && !busy_; });
}

ShardStats ServingShard::stats() const {
  ShardStats snapshot;
  {
    std::unique_lock<std::mutex> lock(mu_);
    snapshot = stats_;
  }
  // The histogram is lock-free; its snapshot may trail an in-flight
  // task by a few records, exactly like the counters above trail an
  // in-flight Process.
  snapshot.latency = apply_latency_->snapshot();
  return snapshot;
}

void ServingShard::ForEachInstance(
    const std::function<void(const std::string&,
                             const online::OnlineAssigner&)>& fn) const {
  std::unique_lock<std::mutex> lock(mu_);
  MSP_CHECK(queue_.empty() && !busy_)
      << "ForEachInstance requires a quiescent shard (call Flush first)";
  for (const auto& [key, instance] : instances_) {
    fn(key, instance.live());
  }
}

void ServingShard::ReconcileBudgeted(Instance* instance) {
  const online::OnlineTotals& now = instance->live().totals();
  const online::OnlineTotals& base = instance->pub_totals;
  const uint64_t wrapper_rejected = instance->budgeted->rejected_total();
  const uint64_t deferred_total = instance->budgeted->deferred_total();
  const uint64_t pending = instance->budgeted->deferred();
  // Translation failures bump only the wrapper's rejected counter; the
  // assigner's own books carry the infeasible ones. The difference is
  // what the unbudgeted path counts as "skipped".
  const uint64_t skipped_delta = (wrapper_rejected -
                                  instance->pub_wrapper_rejected) -
                                 (now.rejected - base.rejected);
  {
    std::unique_lock<std::mutex> lock(mu_);
    stats_.updates += now.updates - base.updates;
    stats_.rejected += now.rejected - base.rejected;
    stats_.skipped += skipped_delta;
    stats_.repairs += now.repairs - base.repairs;
    stats_.replans += now.replans - base.replans;
    stats_.churn.inputs_moved +=
        now.churn.inputs_moved - base.churn.inputs_moved;
    stats_.churn.inputs_dropped +=
        now.churn.inputs_dropped - base.churn.inputs_dropped;
    stats_.churn.bytes_moved += now.churn.bytes_moved - base.churn.bytes_moved;
    stats_.churn.reducers_created +=
        now.churn.reducers_created - base.churn.reducers_created;
    stats_.churn.reducers_destroyed +=
        now.churn.reducers_destroyed - base.churn.reducers_destroyed;
    stats_.budget_deferred_total +=
        deferred_total - instance->pub_deferred_total;
    stats_.budget_pending += pending;
    stats_.budget_pending -= instance->pub_pending;
  }
  instance->pub_totals = now;
  instance->pub_wrapper_rejected = wrapper_rejected;
  instance->pub_deferred_total = deferred_total;
  instance->pub_pending = pending;
}

void ServingShard::WorkerLoop() {
  for (;;) {
    Task task;
    {
      std::unique_lock<std::mutex> lock(mu_);
      work_available_.wait(
          lock, [this] { return !queue_.empty() || shutting_down_; });
      if (queue_.empty()) {
        if (shutting_down_) return;
        continue;
      }
      task = std::move(queue_.front());
      queue_.pop_front();
      busy_ = true;
    }
    heartbeat_.queue_depth.fetch_sub(1, std::memory_order_relaxed);
    heartbeat_.busy.store(true, std::memory_order_relaxed);
    heartbeat_.last_progress_us.store(obs::MonotonicMicros(),
                                      std::memory_order_relaxed);
    if (metrics_ != nullptr) {
      mailbox_depth_->Sub(1);
      const uint64_t now = obs::MonotonicMicros();
      queue_dwell_->Record(now > task.enqueued_at_us
                               ? now - task.enqueued_at_us
                               : 0);
    }
    Process(task);
    if (tasks_processed_ != nullptr) tasks_processed_->Inc();
    if (wal_ != nullptr) {
      // Log-before-ack: when the mailbox has drained, fsync the
      // changelog BEFORE clearing busy_ — a returned Flush() then
      // implies everything processed is durable. While more tasks are
      // queued the barrier is deferred, so their records share the
      // group commit.
      bool drained = false;
      {
        std::unique_lock<std::mutex> lock(mu_);
        drained = queue_.empty();
      }
      if (drained) {
        WalQuiesce();
      } else if (wal_->WantsRotation()) {
        WalRotate();
      }
    }
    heartbeat_.busy.store(false, std::memory_order_relaxed);
    heartbeat_.last_progress_us.store(obs::MonotonicMicros(),
                                      std::memory_order_relaxed);
    {
      std::unique_lock<std::mutex> lock(mu_);
      busy_ = false;
      ++stats_.processed_tasks;
      if (wal_ != nullptr) SyncWalStats();
    }
    idle_.notify_all();
  }
}

void ServingShard::WalAppend(const durability::LogRecord& record) {
  std::string error;
  MSP_CHECK(wal_->Append(record, &error))
      << "shard " << index_
      << " cannot continue: changelog append failed (" << error << ")";
}

void ServingShard::WalQuiesce() {
  std::string error;
  MSP_CHECK(wal_->Sync(&error))
      << "shard " << index_
      << " cannot continue: changelog fsync failed (" << error << ")";
  if (wal_->WantsRotation()) WalRotate();
}

void ServingShard::WalRotate() {
  std::vector<durability::ImageEntry> entries;
  entries.reserve(instances_.size());
  for (const auto& [key, instance] : instances_) {
    durability::ImageEntry entry;
    entry.key = key;
    entry.translate = instance.translate;
    online::ReplayCursor cursor;
    cursor.next_event = instance.event_seq;
    cursor.live_of_trace = instance.live_of_trace;
    entry.snapshot = online::SnapshotCodec::Serialize(
        instance.live(), cursor, wal_->epoch() + 1);
    entries.push_back(std::move(entry));
  }
  std::string error;
  MSP_CHECK(wal_->Rotate(entries, &error))
      << "shard " << index_ << " cannot continue: rotation failed ("
      << error << ")";
}

void ServingShard::SyncWalStats() {
  // Called with mu_ held.
  stats_.wal_records = wal_->total_records();
  stats_.wal_bytes = wal_->total_bytes();
  stats_.wal_fsyncs = wal_->total_fsyncs();
  stats_.wal_rotations = wal_->rotations();
  stats_.wal_epoch = wal_->epoch();
}

void ServingShard::Process(Task& task) {
  obs::Span span("serving.task");
  if (span.active() && !task.key.empty()) span.Arg("key", task.key);
  if (task.create) {
    Instance instance;
    if (task.budget.bytes_per_window > 0) {
      instance.budgeted = std::make_unique<online::BudgetedAssigner>(
          task.config, task.budget);
    } else {
      instance.assigner =
          std::make_unique<online::OnlineAssigner>(task.config);
    }
    instance.translate = task.translate;
    if (wal_ != nullptr) {
      // A re-created key keeps its record ordinal: replay then knows
      // the create supersedes the old instance, not the new one.
      const auto it = instances_.find(task.key);
      instance.event_seq =
          it != instances_.end() ? it->second.event_seq : 0;
      WalAppend(durability::LogRecord::Create(
          task.key, instance.event_seq,
          online::InstanceSpec::Of(task.config), task.translate));
    }
    std::unique_lock<std::mutex> lock(mu_);
    instances_[task.key] = std::move(instance);
    ++stats_.instances;
    return;
  }

  if (task.checkpoint_all) {
    uint64_t repairs = 0;
    uint64_t replans = 0;
    online::ChurnStats churn;
    for (auto& [key, instance] : instances_) {
      if (instance.budgeted != nullptr) {
        // End of stream: refresh the budget window by window while the
        // deferred queue makes progress (a head that fits in no whole
        // window stays queued and is reported as pending).
        while (instance.budgeted->deferred() > 0 &&
               instance.budgeted->CloseWindow() > 0) {
        }
        instance.budgeted->PolicyCheckpoint();
        ReconcileBudgeted(&instance);
        continue;
      }
      const online::UpdateResult decision =
          instance.assigner->PolicyCheckpoint();
      if (decision.applied) {
        churn += decision.churn;
        if (decision.replanned) {
          ++replans;
        } else {
          ++repairs;
        }
      }
      if (wal_ != nullptr) {
        WalAppend(
            durability::LogRecord::Checkpoint(key, instance.event_seq));
      }
    }
    std::unique_lock<std::mutex> lock(mu_);
    stats_.repairs += repairs;
    stats_.replans += replans;
    stats_.churn += churn;
    return;
  }

  if (task.inspect != nullptr) {
    InstanceProbe probe;
    const auto probe_it = instances_.find(task.key);
    if (probe_it != instances_.end()) {
      const Instance& instance = probe_it->second;
      const online::OnlineAssigner& live = instance.live();
      probe.found = true;
      probe.inputs = live.num_inputs();
      probe.reducers = live.live_state().reducers.size();
      probe.capacity = live.capacity();
      probe.applied = live.totals().updates;
      probe.rejected = live.totals().rejected;
      probe.deferred_pending =
          instance.budgeted != nullptr ? instance.budgeted->deferred() : 0;
    }
    task.inspect(probe);
    return;
  }

  const auto it = instances_.find(task.key);
  if (it == instances_.end()) {
    // Updates for a never-created key have nowhere to go; surface the
    // mistake in the stats instead of crashing the worker.
    if (updates_skipped_ != nullptr) {
      updates_skipped_->Inc(task.updates.size());
    }
    std::unique_lock<std::mutex> lock(mu_);
    stats_.skipped += task.updates.size();
    return;
  }
  Instance& instance = it->second;
  online::OnlineAssigner& assigner = instance.live();

  if (instance.budgeted != nullptr) {
    // Budgeted instances: the wrapper owns translation, projection,
    // and the deferral queue; shard counters reconcile from the
    // assigner's own books afterwards (the wrapper may drain deferred
    // events mid-loop at window rollovers).
    const std::size_t bwindow = task.batch_size == 0 ? 1 : task.batch_size;
    for (const online::Update& update : task.updates) {
      const uint64_t wedge_us =
          apply_delay_us_.load(std::memory_order_relaxed);
      if (wedge_us > 0) {
        std::this_thread::sleep_for(std::chrono::microseconds(wedge_us));
      }
      heartbeat_.last_ordinal.fetch_add(1, std::memory_order_relaxed);
      heartbeat_.last_progress_us.store(obs::MonotonicMicros(),
                                        std::memory_order_relaxed);
      Stopwatch watch;
      const online::SubmitOutcome outcome =
          instance.budgeted->Submit(update);
      if (outcome == online::SubmitOutcome::kApplied) {
        apply_latency_->RecordMicros(
            static_cast<double>(watch.ElapsedMicros()));
        if (assigner.pending_decision_updates() >= bwindow) {
          instance.budgeted->PolicyCheckpoint();
        }
      }
    }
    if (span.active()) span.Arg("updates", task.updates.size());
    ReconcileBudgeted(&instance);
    return;
  }

  // Local tallies, merged under the lock once at the end of the task.
  uint64_t applied = 0;
  uint64_t rejected = 0;
  uint64_t skipped = 0;
  uint64_t repairs = 0;
  uint64_t replans = 0;
  online::ChurnStats churn;

  // The window position is the assigner's own pending-update count, so
  // a stream split across several Enqueue calls checkpoints exactly
  // like one big task would: task framing is not observable.
  const std::size_t window = task.batch_size == 0 ? 1 : task.batch_size;
  const auto checkpoint = [&] {
    const online::UpdateResult decision = assigner.PolicyCheckpoint();
    if (decision.applied) {
      churn += decision.churn;
      if (decision.replanned) {
        ++replans;
      } else {
        ++repairs;
      }
    }
    if (wal_ != nullptr) {
      WalAppend(durability::LogRecord::Checkpoint(task.key,
                                                  instance.event_seq));
    }
  };

  online::TraceIdTranslator translator(&instance.live_of_trace);
  for (online::Update update : task.updates) {
    const uint64_t wedge_us =
        apply_delay_us_.load(std::memory_order_relaxed);
    if (wedge_us > 0) {
      // Test-only wedge: stall *between* heartbeats so the watchdog
      // sees a busy worker whose last_progress_us stops advancing.
      std::this_thread::sleep_for(std::chrono::microseconds(wedge_us));
    }
    heartbeat_.last_ordinal.fetch_add(1, std::memory_order_relaxed);
    heartbeat_.last_progress_us.store(obs::MonotonicMicros(),
                                      std::memory_order_relaxed);
    if (instance.translate && !translator.Translate(&update)) {
      ++skipped;
      if (wal_ != nullptr) {
        // Logged raw (translation failed); replay advances the ordinal
        // without applying, reproducing the skip.
        WalAppend(durability::LogRecord::Event(
            durability::RecordKind::kSkipped, task.key,
            ++instance.event_seq, update));
      }
      continue;
    }
    Stopwatch watch;
    const online::UpdateResult result = assigner.ApplyDeferred(update);
    const double us = static_cast<double>(watch.ElapsedMicros());
    if (instance.translate &&
        update.kind == online::UpdateKind::kAddInput) {
      translator.RecordAdd(result.applied ? result.new_id : std::nullopt);
    }
    if (wal_ != nullptr) {
      // Post-translation (live ids), post-outcome: replay re-applies
      // deterministically and must reproduce applied/rejected.
      WalAppend(durability::LogRecord::Event(
          result.applied ? durability::RecordKind::kApplied
                         : durability::RecordKind::kRejected,
          task.key, ++instance.event_seq, update));
    }
    if (result.applied) {
      ++applied;
      churn += result.churn;
      // Lock-free: the histogram is safe to record outside mu_.
      apply_latency_->RecordMicros(us);
      if (assigner.pending_decision_updates() >= window) checkpoint();
    } else {
      ++rejected;
    }
  }
  if (span.active()) span.Arg("updates", applied);
  if (updates_skipped_ != nullptr && skipped > 0) {
    updates_skipped_->Inc(skipped);
  }

  std::unique_lock<std::mutex> lock(mu_);
  stats_.updates += applied;
  stats_.rejected += rejected;
  stats_.skipped += skipped;
  stats_.repairs += repairs;
  stats_.replans += replans;
  stats_.churn += churn;
}

}  // namespace msp::serving
