#include "durability/stream.h"

#include <utility>

#include "online/spec.h"
#include "util/timer.h"

namespace msp::durability {

namespace {

bool Fail(std::string* error, const std::string& why) {
  if (error != nullptr) *error = why;
  return false;
}

// The error of a record that runs ahead of its stream's cursor.
std::string Gap(const char* what, const std::string& key, uint64_t seq,
                uint64_t at) {
  return std::string("changelog gap: ") + what + " of '" + key +
         "' at seq " + std::to_string(seq) + " but stream is at " +
         std::to_string(at);
}

}  // namespace

Stream::Stream(std::string key, const online::OnlineConfig& config,
               bool translate, uint64_t next_event)
    : key_(std::move(key)),
      translate_(translate),
      assigner_(std::make_unique<online::OnlineAssigner>(config)) {
  cursor_.next_event = next_event;
}

Stream::Stream(std::string key, online::SnapshotCodec::Restored restored,
               bool translate)
    : key_(std::move(key)),
      translate_(translate),
      assigner_(std::move(restored.assigner)),
      cursor_(std::move(restored.cursor)) {}

std::optional<Stream> Stream::FromImage(
    const ImageEntry& entry, std::shared_ptr<planner::PlannerService> planner,
    uint64_t* epoch, std::string* error) {
  auto restored =
      online::SnapshotCodec::Restore(entry.snapshot, error, std::move(planner));
  if (!restored.has_value()) return std::nullopt;
  *epoch = restored->epoch;
  return Stream(entry.key, std::move(*restored), entry.translate);
}

ImageEntry Stream::ToImage(uint64_t epoch) const {
  return {key_, translate_,
          online::SnapshotCodec::Serialize(*assigner_, cursor_, epoch)};
}

bool Stream::Create(ChangelogWriter* log, std::string* error) {
  if (log == nullptr) return true;
  return log->Append(
      LogRecord::Create(key_, cursor_.next_event,
                        online::InstanceSpec::Of(assigner_->config()),
                        translate_),
      error);
}

StepResult Stream::Apply(online::Update update, std::size_t window,
                         ChangelogWriter* log) {
  StepResult step;
  online::TraceIdTranslator translator(&cursor_.live_of_trace);
  if (translate_ && !translator.Translate(&update)) {
    // Logged raw (translation failed); replay advances the ordinal
    // without applying, reproducing the skip.
    ++skipped_;
    ++cursor_.next_event;
    step.kind = RecordKind::kSkipped;
    if (log != nullptr) {
      log->Append(LogRecord::Event(RecordKind::kSkipped, key_,
                                   cursor_.next_event, update),
                  &step.log_error);
    }
    return step;
  }
  Stopwatch watch;
  online::UpdateResult result = assigner_->ApplyDeferred(update);
  step.repair_us = watch.ElapsedMicros();
  if (translate_ && update.kind == online::UpdateKind::kAddInput) {
    translator.RecordAdd(result.applied ? result.new_id : std::nullopt);
  }
  ++cursor_.next_event;
  step.kind = result.applied ? RecordKind::kApplied : RecordKind::kRejected;
  step.reason = std::move(result.error);
  // Post-translation (live ids), post-outcome: replay re-applies
  // deterministically and must reproduce applied/rejected.
  if (log != nullptr &&
      !log->Append(
          LogRecord::Event(step.kind, key_, cursor_.next_event, update),
          &step.log_error)) {
    return step;
  }
  if (result.applied &&
      assigner_->pending_decision_updates() >= (window == 0 ? 1 : window)) {
    Checkpoint(log, &step.log_error);
  }
  return step;
}

bool Stream::Checkpoint(ChangelogWriter* log, std::string* error) {
  if (assigner_->pending_decision_updates() == 0) return true;
  assigner_->PolicyCheckpoint();
  if (log == nullptr) return true;
  return log->Append(LogRecord::Checkpoint(key_, cursor_.next_event), error);
}

bool Stream::Replay(const LogRecord& record, ReplayStats* tally,
                    std::string* error) {
  const uint64_t at = cursor_.next_event;
  if (record.kind == RecordKind::kCheckpoint) {
    if (record.seq < at) {
      ++tally->stale;
      return true;
    }
    if (record.seq > at) {
      return Fail(error, Gap("checkpoint", key_, record.seq, at));
    }
    // Deterministic re-decision; a no-op when the decision already
    // preceded the snapshot (nothing pending).
    assigner_->PolicyCheckpoint();
    ++tally->checkpoints;
    return true;
  }

  // Event records advance the per-key ordinal by exactly one.
  if (record.seq <= at) {
    ++tally->stale;
    return true;
  }
  if (record.seq != at + 1) {
    return Fail(error, Gap("event", key_, record.seq, at));
  }
  if (record.kind == RecordKind::kSkipped) {
    cursor_.next_event = record.seq;
    ++skipped_;
    ++tally->skipped;
    return true;
  }
  const online::UpdateResult result = assigner_->ApplyDeferred(record.update);
  const bool want_applied = record.kind == RecordKind::kApplied;
  if (result.applied != want_applied) {
    return Fail(error,
                "changelog diverged on replay: '" + key_ + "' seq " +
                    std::to_string(record.seq) + " was logged " +
                    (want_applied ? "applied" : "rejected") +
                    " but replayed " +
                    (result.applied ? "applied" : "rejected") +
                    (result.error.empty() ? "" : " (" + result.error + ")"));
  }
  if (translate_ && record.update.kind == online::UpdateKind::kAddInput) {
    cursor_.live_of_trace.push_back(result.applied ? result.new_id
                                                   : std::nullopt);
  }
  cursor_.next_event = record.seq;
  ++(want_applied ? tally->applied : tally->rejected);
  return true;
}

bool ReplayRecords(const std::vector<LogRecord>& records,
                   std::map<std::string, Stream>* streams,
                   std::shared_ptr<planner::PlannerService> shared_planner,
                   ReplayStats* stats, std::string* error) {
  ReplayStats local;
  ReplayStats* tally = stats != nullptr ? stats : &local;

  for (const LogRecord& record : records) {
    const auto it = streams->find(record.key);
    if (record.kind != RecordKind::kCreate) {
      if (it == streams->end()) {
        return Fail(error,
                    "changelog names unknown stream '" + record.key + "'");
      }
      if (!it->second.Replay(record, tally, error)) return false;
      continue;
    }
    if (it != streams->end()) {
      const uint64_t at = it->second.cursor().next_event;
      if (record.seq < at) {
        ++tally->stale;
        continue;
      }
      if (record.seq > at) {
        return Fail(error, Gap("create", record.key, record.seq, at));
      }
      // seq == next_event: the live run re-created this key here;
      // replaying the create reproduces that exactly.
    }
    if (record.spec.budget.bytes_per_window != 0) {
      // Budgets are refused on WAL-attached shards; a log holding one
      // was not written by this system.
      return Fail(error, "changelog create of '" + record.key +
                             "' holds a churn budget");
    }
    online::OnlineConfig config = record.spec.ToOnlineConfig();
    config.shared_planner = shared_planner;
    streams->insert_or_assign(
        record.key, Stream(record.key, config, record.translate, record.seq));
    ++tally->creates;
  }
  return true;
}

}  // namespace msp::durability
