// One instance's durable update stream: the only code that turns
// updates into changelog records (Create, Apply, Checkpoint) and
// records back into state (Replay). The serving shard, the CLI and
// ShardWal recovery all drive it, so a recovered stream lands on the
// state the live one reached. A null changelog means no WAL; the
// stream advances exactly as it would with one.

#ifndef MSP_DURABILITY_STREAM_H_
#define MSP_DURABILITY_STREAM_H_

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "durability/changelog.h"
#include "online/assigner.h"
#include "online/snapshot.h"
#include "planner/service.h"

namespace msp::durability {

/// One instance inside a shard snapshot image. `snapshot` is the
/// per-assigner SnapshotCodec blob (cursor = the stream's cursor,
/// epoch = the image's epoch).
struct ImageEntry {
  std::string key;
  bool translate = false;
  std::string snapshot;
};

/// Tallies of one or more Replay calls.
struct ReplayStats {
  uint64_t creates = 0;
  uint64_t applied = 0;
  uint64_t rejected = 0;
  uint64_t skipped = 0;
  uint64_t checkpoints = 0;
  /// Records at or below the stream's cursor (already reflected in the
  /// restored state) — skipped without replaying.
  uint64_t stale = 0;
};

/// Outcome of one Stream::Apply.
struct StepResult {
  RecordKind kind = RecordKind::kApplied;  // kApplied/kRejected/kSkipped
  uint64_t repair_us = 0;  // ApplyDeferred alone; 0 when skipped
  std::string reason;      // why the assigner refused it (kRejected)
  /// Non-empty when a changelog append failed: the writer is poisoned
  /// and nothing past this step may be acknowledged.
  std::string log_error;
};

/// Owns one instance's assigner, its `translate` flag and its position:
/// `cursor().next_event` is the per-key record ordinal (changelog.h),
/// `cursor().live_of_trace` the trace-id table. Not thread-safe, like
/// the assigner it owns.
class Stream {
 public:
  /// A fresh stream over a new assigner built from `config`, positioned
  /// at record ordinal `next_event` (a re-created key keeps its
  /// ordinal, so replay knows the create supersedes the old instance).
  Stream(std::string key, const online::OnlineConfig& config, bool translate,
         uint64_t next_event = 0);
  /// A stream resumed from a snapshot (its assigner and cursor).
  Stream(std::string key, online::SnapshotCodec::Restored restored,
         bool translate);

  /// Decodes an image entry; `*epoch` receives the snapshot's epoch.
  /// `planner` (optional) replaces the restored assigner's private one.
  static std::optional<Stream> FromImage(
      const ImageEntry& entry,
      std::shared_ptr<planner::PlannerService> planner, uint64_t* epoch,
      std::string* error);
  /// The stream as an image entry cut at `epoch`.
  ImageEntry ToImage(uint64_t epoch) const;

  /// Logs the kCreate record (the spec of the assigner's config). Returns
  /// false with `*error` when the append fails; a null `log` is a no-op.
  bool Create(ChangelogWriter* log, std::string* error = nullptr);

  /// Processes the next event of the stream (trace-side ids when the
  /// stream translates). The policy decides once `window` applied
  /// updates are pending (0 or 1: after every applied update).
  StepResult Apply(online::Update update, std::size_t window,
                   ChangelogWriter* log);

  /// Runs one policy decision over the pending updates and logs it;
  /// does nothing when none are pending. Returns false with `*error`
  /// when the append fails.
  bool Checkpoint(ChangelogWriter* log, std::string* error = nullptr);

  /// Re-applies one kApplied/kRejected/kSkipped/kCheckpoint record.
  /// Records at or below the cursor are stale (counted, not applied);
  /// beyond it events must be contiguous and reproduce their logged
  /// outcome. Returns false with `*error` on a gap or a divergence.
  bool Replay(const LogRecord& record, ReplayStats* tally,
              std::string* error);

  const std::string& key() const { return key_; }
  bool translate() const { return translate_; }
  const online::ReplayCursor& cursor() const { return cursor_; }
  /// Events dropped by translation over this stream's lifetime here
  /// (live and replayed; not carried by snapshots).
  uint64_t skipped() const { return skipped_; }
  online::OnlineAssigner& assigner() { return *assigner_; }
  const online::OnlineAssigner& assigner() const { return *assigner_; }

 private:
  std::string key_;
  bool translate_ = false;
  std::unique_ptr<online::OnlineAssigner> assigner_;
  online::ReplayCursor cursor_;
  uint64_t skipped_ = 0;
};

/// Replays changelog records into `streams`, creating (or re-creating)
/// streams on kCreate and handing every other record to its stream's
/// Replay. Returns false + `*error` on divergence, gaps, budgeted
/// creates, or records for unknown keys.
bool ReplayRecords(const std::vector<LogRecord>& records,
                   std::map<std::string, Stream>* streams,
                   std::shared_ptr<planner::PlannerService> shared_planner,
                   ReplayStats* stats, std::string* error);

}  // namespace msp::durability

#endif  // MSP_DURABILITY_STREAM_H_
