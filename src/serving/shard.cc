#include "serving/shard.h"

#include <chrono>
#include <string>
#include <thread>
#include <utility>

#include "obs/span.h"
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
  std::map<std::string, durability::Stream> streams;
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
    Instance& instance = instances_[key];
    instance.stream.emplace(std::move(stream));
    // Recovered books are not this service's work: start the baseline
    // there, so its own counters still read 0.
    instance.pub_totals = instance.live().totals();
    instance.pub_skipped = instance.stream->skipped();
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

void ServingShard::Reconcile(Instance* instance) {
  const online::OnlineTotals& now = instance->live().totals();
  const online::OnlineTotals& base = instance->pub_totals;
  const online::BudgetedAssigner* budgeted = instance->budgeted.get();
  // The budget wrapper counts translation failures with its infeasible
  // rejections; the assigner's books carry only the latter.
  const uint64_t skipped =
      budgeted != nullptr ? budgeted->rejected_total() - now.rejected
                          : instance->stream->skipped();
  const uint64_t deferred_total =
      budgeted != nullptr ? budgeted->deferred_total() : 0;
  const uint64_t pending = budgeted != nullptr ? budgeted->deferred() : 0;
  if (updates_skipped_ != nullptr && skipped > instance->pub_skipped) {
    updates_skipped_->Inc(skipped - instance->pub_skipped);
  }
  {
    std::unique_lock<std::mutex> lock(mu_);
    stats_.updates += now.updates - base.updates;
    stats_.rejected += now.rejected - base.rejected;
    stats_.skipped += skipped - instance->pub_skipped;
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
  instance->pub_skipped = skipped;
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

durability::ChangelogWriter* ServingShard::Log() {
  return wal_ != nullptr ? wal_->writer() : nullptr;
}

void ServingShard::CheckLogged(const std::string& log_error) const {
  MSP_CHECK(log_error.empty())
      << "shard " << index_
      << " cannot continue: changelog append failed (" << log_error << ")";
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
    // Budgeted instances are refused on a WAL-attached shard.
    entries.push_back(instance.stream->ToImage(wal_->epoch() + 1));
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
      // A re-created key keeps its record ordinal: replay then knows
      // the create supersedes the old instance, not the new one.
      const auto it = instances_.find(task.key);
      const uint64_t next_event = it != instances_.end() && it->second.stream
                                      ? it->second.stream->cursor().next_event
                                      : 0;
      instance.stream.emplace(task.key, task.config, task.translate,
                              next_event);
      std::string log_error;
      instance.stream->Create(Log(), &log_error);
      CheckLogged(log_error);
    }
    std::unique_lock<std::mutex> lock(mu_);
    instances_[task.key] = std::move(instance);
    ++stats_.instances;
    return;
  }

  if (task.checkpoint_all) {
    for (auto& [key, instance] : instances_) {
      if (instance.budgeted != nullptr) {
        // End of stream: refresh the budget window by window while the
        // deferred queue makes progress (a head that fits in no whole
        // window stays queued and is reported as pending).
        while (instance.budgeted->deferred() > 0 &&
               instance.budgeted->CloseWindow() > 0) {
        }
        instance.budgeted->PolicyCheckpoint();
      } else {
        std::string log_error;
        instance.stream->Checkpoint(Log(), &log_error);
        CheckLogged(log_error);
      }
      Reconcile(&instance);
    }
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

  // The window position is the assigner's own pending-update count, so
  // a stream split across several Enqueue calls checkpoints exactly
  // like one big task would: task framing is not observable.
  const std::size_t window = task.batch_size == 0 ? 1 : task.batch_size;
  durability::ChangelogWriter* log = Log();
  for (const online::Update& update : task.updates) {
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
    if (instance.budgeted != nullptr) {
      // The wrapper owns translation, projection and the deferral
      // queue; it may drain deferred events at window rollovers.
      Stopwatch watch;
      if (instance.budgeted->Submit(update) ==
          online::SubmitOutcome::kApplied) {
        // Lock-free: the histogram is safe to record outside mu_.
        apply_latency_->Record(watch.ElapsedMicros());
        if (instance.live().pending_decision_updates() >= window) {
          instance.budgeted->PolicyCheckpoint();
        }
      }
      continue;
    }
    const durability::StepResult step =
        instance.stream->Apply(update, window, log);
    CheckLogged(step.log_error);
    if (step.kind == durability::RecordKind::kApplied) {
      apply_latency_->Record(step.repair_us);
    }
  }
  if (span.active()) span.Arg("updates", task.updates.size());
  Reconcile(&instance);
}

}  // namespace msp::serving
