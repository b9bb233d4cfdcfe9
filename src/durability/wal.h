// Per-shard durability: changelog + snapshot-image rotation + crash
// recovery. Builds on changelog.h (the record codec and group-commit
// writer) and online/snapshot.h (the per-assigner snapshot codec).
//
// Directory layout (one directory per shard):
//
//   <dir>/wal.<epoch>    changelog of everything since snapshot <epoch>
//   <dir>/snap.<epoch>   shard image: every instance at rotation time
//   <dir>/snap.tmp       in-flight image (ignored by recovery)
//
// Exactly one (wal, snap) epoch pair is live; rotation creates the
// next pair and deletes the old one. The rotation protocol is ordered
// so that a crash at ANY step leaves a recoverable directory:
//
//   1. create wal.<e+1>, write + fsync its header   (log first!)
//   2. write snap.tmp, fsync, rename to snap.<e+1>, fsync dir
//   3. switch the writer to wal.<e+1>
//   4. delete wal.<e>, snap.<e>, fsync dir
//
// Because the changelog is created *before* the snapshot, a valid
// snapshot always has a paired changelog. The converse failure — a
// snapshot NEWER than the newest changelog — can only mean manual
// tampering or file loss, and recovery rejects it loudly ("stale
// changelog") instead of silently serving a state with a missing
// tail.
//
// Recovery state machine (ShardWal::Open with recover=true):
//
//   scan dir ──> newest decodable snap.<e>  ──(none, no snaps)──> e=0
//        │                │                                        │
//        │                v                                        v
//        │        wal.<e> exists?  ──no──> error "stale changelog" │
//        │                │yes                                     │
//        │                v                                        │
//        │        replay wal.<e> records with seq > cursor         │
//        │        (stop cleanly at first torn/corrupt record) <────┘
//        │                │                        (wal.1, if any)
//        v                v
//   (snaps exist but none decodable -> error)   rotate to epoch e+1
//
// The replayed state is handed to the caller (the serving shard, the
// CLI `recover` command, the crash suites) as ready-to-serve Streams
// (stream.h), which both the image entries and the changelog records
// are replayed through.

#ifndef MSP_DURABILITY_WAL_H_
#define MSP_DURABILITY_WAL_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "durability/changelog.h"
#include "durability/stream.h"
#include "planner/service.h"
#include "util/fs.h"

namespace msp::durability {

/// Durability knobs, carried by ServingConfig and the CLI.
struct WalOptions {
  /// Root directory (the service appends /shard-<i>). Empty disables
  /// durability entirely.
  std::string dir;
  /// Group commit: fsync after this many unsynced records.
  uint64_t fsync_every_n = 32;
  /// Group commit: fsync after this many ms since the last one.
  uint64_t fsync_interval_ms = 0;
  /// Rotate (cut a snapshot image, start a fresh changelog) after this
  /// many records in the current epoch. 0 = never rotate.
  uint64_t rotate_every = 0;
  /// False: the directory must hold no prior durability state (fresh
  /// serve run). True: recover whatever the directory holds.
  bool recover = false;
  /// Backend; null uses RealFileSystem::Default(). Not owned.
  FileSystem* fs = nullptr;
  /// Optional metrics sink, handed to every changelog writer (fsync /
  /// append series) plus rotation and recovery-replay series. Not
  /// owned; must outlive the WAL.
  obs::Registry* metrics = nullptr;
};

/// Renders a shard image (all instances of one shard at a rotation
/// point) in the framed MSPIMG01 format.
std::string EncodeShardImage(uint64_t epoch,
                             const std::vector<ImageEntry>& entries);

/// Parses an image; rejects truncation/corruption/alien files.
bool DecodeShardImage(std::string_view bytes, uint64_t* epoch,
                      std::vector<ImageEntry>* entries, std::string* error);

/// Counters of one ShardWal::Open recovery.
struct RecoveryStats {
  uint64_t snapshot_epoch = 0;  // 0 = recovered from genesis
  uint64_t wal_epoch = 0;
  uint64_t instances = 0;
  uint64_t records_replayed = 0;  // non-stale records applied
  uint64_t stale_records = 0;
  bool torn_tail = false;
};

/// The per-shard durability engine: owns the live changelog writer and
/// the rotation protocol. Not thread-safe — driven by one shard worker
/// (or one CLI thread), like the assigners it protects.
class ShardWal {
 public:
  /// Opens `dir` (see the recovery state machine above). On success,
  /// `*recovered` holds the ready-to-serve streams (empty for a fresh
  /// directory) and the writer is positioned on a fresh epoch.
  static std::unique_ptr<ShardWal> Open(
      const WalOptions& options, const std::string& dir,
      std::shared_ptr<planner::PlannerService> planner,
      std::map<std::string, Stream>* recovered, RecoveryStats* stats,
      std::string* error);

  /// Durability barrier (the ack point).
  bool Sync(std::string* error = nullptr);

  /// Cuts a snapshot image of `entries` and rotates the changelog to
  /// the next epoch (protocol steps 1-4 above).
  bool Rotate(const std::vector<ImageEntry>& entries,
              std::string* error = nullptr);

  /// True when `rotate_every` is configured and the current epoch has
  /// absorbed at least that many records.
  bool WantsRotation() const;

  uint64_t epoch() const { return epoch_; }
  uint64_t records_in_epoch() const { return writer_->appended_records(); }
  /// The live changelog writer, replaced by every Rotate. Appends may
  /// group-commit; a failed one poisons the writer, and the caller
  /// must stop acking.
  ChangelogWriter* writer() { return writer_.get(); }
  uint64_t rotations() const { return rotations_; }
  const RecoveryStats& recovery() const { return recovery_; }

  /// Lifetime counters across every epoch this handle wrote.
  uint64_t total_records() const {
    return closed_records_ + writer_->appended_records();
  }
  uint64_t total_fsyncs() const { return closed_fsyncs_ + writer_->fsyncs(); }
  uint64_t total_bytes() const {
    return closed_bytes_ + writer_->bytes_appended();
  }

 private:
  ShardWal(const WalOptions& options, std::string dir, FileSystem* fs);
  std::string WalPath(uint64_t epoch) const;
  std::string SnapPath(uint64_t epoch) const;
  bool StartEpoch(uint64_t epoch, std::string* error);

  const WalOptions options_;
  const std::string dir_;
  FileSystem* fs_;
  uint64_t epoch_ = 0;
  uint64_t rotations_ = 0;
  uint64_t closed_records_ = 0;
  uint64_t closed_fsyncs_ = 0;
  uint64_t closed_bytes_ = 0;
  RecoveryStats recovery_;
  std::unique_ptr<ChangelogWriter> writer_;
};

/// Service-level manifest (<root>/MANIFEST): records the shard count so
/// `mspctl recover` can rebuild the exact shard routing.
bool WriteManifest(FileSystem* fs, const std::string& root,
                   std::size_t num_shards, std::string* error);
bool ReadManifest(FileSystem* fs, const std::string& root,
                  std::size_t* num_shards, std::string* error);

}  // namespace msp::durability

#endif  // MSP_DURABILITY_WAL_H_
