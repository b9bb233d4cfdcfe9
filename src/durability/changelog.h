// Append-only write-ahead changelog for the online subsystem.
//
// The paper's mapping schemas are expensive to (re)compute — replanning
// an instance is the NP-hard part — but an accepted update is tiny. So
// the durability story is the classic one: log every processed event
// cheaply before acking it, snapshot occasionally, and on a crash
// rebuild from newest valid snapshot + changelog replay.
//
// File layout (all integers little-endian):
//
//   +----------+---------+-----------+----------------------+
//   | magic 8B | ver u32 | epoch u64 | fnv(ver..epoch) u64  |  header
//   +----------+---------+-----------+----------------------+
//   | len u32 | fnv(payload) u64 | payload (len bytes)      |  record 0
//   +---------+------------------+--------------------------+
//   | len u32 | fnv(payload) u64 | payload                  |  record 1
//   +---------+------------------+--------------------------+ ...
//
//   payload := kind u8 | seq u64 | key_len u32 | key | body
//
// Record kinds and bodies:
//
//   kCreate     body = translate u8 | InstanceSpec
//                                       instance (re)created
//   kApplied    body = Update           event accepted by the assigner
//   kRejected   body = Update           event refused (still counted)
//   kSkipped    body = Update           event dropped by id translation
//   kCheckpoint body = empty            explicit policy decision point
//
// The kCreate spec uses the one spec codec (online/spec.h) and the
// events the one update codec next to it; `translate` is the serving-
// only bit saying the stream translates trace ids.
//
// `seq` is the per-key record ordinal: kApplied/kRejected/kSkipped
// carry the position of the event in the key's stream (1-based);
// kCheckpoint and kCreate carry the current position without advancing
// it. Replay against a snapshot cursor K skips records with seq <= K
// and demands contiguity (seq == K+1) beyond it — so a log can overlap
// its snapshot arbitrarily and recovery still applies each event
// exactly once, in order.
//
// Torn tails are normal, not errors: a crash can stop the stream at
// any byte. ReadChangelog parses records until the first frame that is
// truncated or fails its checksum, reports everything before it as the
// recovered prefix, and flags the tail. A corrupt *header* invalidates
// the whole file.
//
// Group commit: the writer fsyncs every `fsync_every_n` records or
// `fsync_interval_ms` milliseconds, whichever comes first, plus on
// explicit Sync() barriers (the ack point). Everything between
// barriers is allowed to die with the page cache — the crash suites
// prove recovery lands exactly on a record boundary covered by the
// last fsync or later.

#ifndef MSP_DURABILITY_CHANGELOG_H_
#define MSP_DURABILITY_CHANGELOG_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "obs/metrics.h"
#include "online/spec.h"
#include "online/trace.h"
#include "util/fs.h"

namespace msp::durability {

/// Current changelog format version. Version 2 stores the kCreate
/// config as an InstanceSpec; version-1 logs are refused.
inline constexpr uint32_t kChangelogVersion = 2;

/// Hard cap on one record's payload (a record holds one update or one
/// instance spec — kilobytes at most; a corrupt length field must not
/// trigger a giant allocation).
inline constexpr uint32_t kMaxRecordPayload = 1u << 20;

enum class RecordKind : uint8_t {
  kCreate = 0,
  kApplied = 1,
  kRejected = 2,
  kSkipped = 3,
  kCheckpoint = 4,
};

/// One changelog record. Only the fields of the active kind are
/// meaningful (update for kApplied/kRejected/kSkipped, spec and
/// translate for kCreate).
struct LogRecord {
  RecordKind kind = RecordKind::kApplied;
  uint64_t seq = 0;
  std::string key;
  online::Update update;
  online::InstanceSpec spec;
  /// Whether the instance translates trace ids (serving replay mode).
  bool translate = false;

  static LogRecord Create(std::string key, uint64_t seq,
                          online::InstanceSpec spec, bool translate) {
    LogRecord record = Checkpoint(std::move(key), seq);
    record.kind = RecordKind::kCreate;
    record.spec = std::move(spec);
    record.translate = translate;
    return record;
  }
  static LogRecord Event(RecordKind kind, std::string key, uint64_t seq,
                         const online::Update& update) {
    LogRecord record = Checkpoint(std::move(key), seq);
    record.kind = kind;
    record.update = update;
    return record;
  }
  static LogRecord Checkpoint(std::string key, uint64_t seq) {
    LogRecord record;
    record.kind = RecordKind::kCheckpoint;
    record.seq = seq;
    record.key = std::move(key);
    return record;
  }

  bool operator==(const LogRecord&) const = default;
};

/// Renders one record as a full frame (length + checksum + payload).
std::string EncodeRecord(const LogRecord& record);

/// Renders the file header for `epoch`.
std::string EncodeChangelogHeader(uint64_t epoch);

/// Parse result of a whole changelog byte stream.
struct ChangelogContents {
  uint64_t epoch = 0;
  std::vector<LogRecord> records;
  /// False when parsing stopped before the end of the bytes (torn or
  /// corrupt tail); `records` then holds the valid prefix.
  bool clean = true;
  /// Bytes covered by the valid prefix (header + whole records).
  uint64_t valid_bytes = 0;
  /// Why the tail was abandoned (when !clean).
  std::string tail_error;
};

/// Parses `bytes`. Returns nullopt (with `*error`) only when the
/// header itself is missing/alien/corrupt — a damaged tail still
/// returns the valid prefix with clean=false.
std::optional<ChangelogContents> ReadChangelog(std::string_view bytes,
                                               std::string* error = nullptr);

/// Group-commit configuration of a ChangelogWriter.
struct ChangelogWriterOptions {
  /// Fsync after this many unsynced records (0 = only on explicit
  /// Sync barriers and the interval timer).
  uint64_t fsync_every_n = 32;
  /// Fsync when this many milliseconds passed since the last sync
  /// (0 = no timer). Checked on Append — the writer owns no thread.
  uint64_t fsync_interval_ms = 0;
  /// Clock override for tests; null uses the steady clock.
  std::function<uint64_t()> now_ms;
  /// Optional metrics sink: the writer publishes durability.* series
  /// (records/bytes appended, fsyncs, fsync latency, group-commit
  /// batch size). May be null.
  obs::Registry* metrics = nullptr;
};

/// Append-side of one changelog file. Not thread-safe — one writer per
/// shard, driven by the shard's worker thread.
class ChangelogWriter {
 public:
  /// Creates (truncating) `path`, writes and fsyncs the header.
  static std::unique_ptr<ChangelogWriter> Create(
      FileSystem* fs, const std::string& path, uint64_t epoch,
      const ChangelogWriterOptions& options, std::string* error);

  /// Appends one record; group-commit may fsync. A failed append
  /// poisons the writer (every later call fails) — the caller must
  /// not ack anything past the failure.
  bool Append(const LogRecord& record, std::string* error = nullptr);

  /// Explicit durability barrier: everything appended so far is on
  /// disk when this returns true. This is the ack point.
  bool Sync(std::string* error = nullptr);

  uint64_t epoch() const { return epoch_; }
  uint64_t appended_records() const { return appended_records_; }
  /// Records covered by a completed fsync (durable under power loss).
  uint64_t synced_records() const { return synced_records_; }
  uint64_t bytes_appended() const { return bytes_appended_; }
  uint64_t fsyncs() const { return fsyncs_; }
  const std::string& path() const { return path_; }

 private:
  ChangelogWriter(std::unique_ptr<WritableFile> file, std::string path,
                  uint64_t epoch, const ChangelogWriterOptions& options);
  bool MaybeGroupCommit(std::string* error);

  /// Registry handles (null without a metrics sink). Resolved once at
  /// construction; publishing is a relaxed atomic add per event.
  struct Instruments {
    obs::Counter* records = nullptr;
    obs::Counter* bytes = nullptr;
    obs::Counter* fsyncs = nullptr;
    obs::Histogram* fsync_latency_us = nullptr;
    obs::Histogram* group_commit_batch = nullptr;
  };

  std::unique_ptr<WritableFile> file_;
  const std::string path_;
  const uint64_t epoch_;
  ChangelogWriterOptions options_;
  uint64_t appended_records_ = 0;
  uint64_t synced_records_ = 0;
  uint64_t bytes_appended_ = 0;
  uint64_t fsyncs_ = 0;
  uint64_t last_sync_ms_ = 0;
  bool poisoned_ = false;
  std::string poison_error_;
  Instruments pub_;
  /// Records appended since the last completed fsync — the group-commit
  /// batch size recorded at each Sync.
  uint64_t records_since_sync_ = 0;
};

}  // namespace msp::durability

#endif  // MSP_DURABILITY_CHANGELOG_H_
