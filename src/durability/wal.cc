#include "durability/wal.h"

#include <algorithm>
#include <charconv>
#include <cstring>
#include <utility>

#include "obs/span.h"
#include "util/binary_io.h"
#include "util/fnv.h"

namespace msp::durability {

namespace {

constexpr char kImageMagic[8] = {'M', 'S', 'P', 'I', 'M', 'G', '0', '1'};
constexpr uint32_t kImageVersion = 1;
constexpr uint64_t kMaxImageEntries = uint64_t{1} << 32;

// Parses "<prefix><decimal epoch>" names like wal.7 / snap.7.
std::optional<uint64_t> ParseEpochName(const std::string& name,
                                       std::string_view prefix) {
  if (name.size() <= prefix.size() ||
      name.compare(0, prefix.size(), prefix) != 0) {
    return std::nullopt;
  }
  const char* begin = name.data() + prefix.size();
  const char* end = name.data() + name.size();
  uint64_t epoch = 0;
  const auto [ptr, ec] = std::from_chars(begin, end, epoch);
  if (ec != std::errc() || ptr != end) return std::nullopt;
  return epoch;
}

std::string FileError(const WritableFile* file, const std::string& what) {
  return what + (file != nullptr && !file->last_error().empty()
                     ? ": " + file->last_error()
                     : "");
}

}  // namespace

std::string EncodeShardImage(uint64_t epoch,
                             const std::vector<ImageEntry>& entries) {
  std::string payload;
  PutU64(&payload, epoch);
  PutU64(&payload, entries.size());
  for (const ImageEntry& entry : entries) {
    PutString(&payload, entry.key);
    PutU8(&payload, entry.translate ? 1 : 0);
    PutString(&payload, entry.snapshot);
  }
  std::string bytes;
  bytes.reserve(sizeof(kImageMagic) + 20 + payload.size());
  bytes.append(kImageMagic, sizeof(kImageMagic));
  PutU32(&bytes, kImageVersion);
  PutU64(&bytes, payload.size());
  bytes.append(payload);
  PutU64(&bytes, Fnv1a(payload));
  return bytes;
}

bool DecodeShardImage(std::string_view bytes, uint64_t* epoch,
                      std::vector<ImageEntry>* entries, std::string* error) {
  const auto fail = [error](const std::string& why) {
    if (error != nullptr) *error = why;
    return false;
  };
  if (bytes.size() < sizeof(kImageMagic) + 12) {
    return fail("shard image truncated");
  }
  if (std::memcmp(bytes.data(), kImageMagic, sizeof(kImageMagic)) != 0) {
    return fail("not a shard image (bad magic)");
  }
  BinaryReader header(bytes.substr(sizeof(kImageMagic)));
  uint32_t version = 0;
  uint64_t payload_size = 0;
  if (!header.GetU32(&version)) return fail("shard image truncated");
  if (version != kImageVersion) {
    return fail("unsupported shard image version " + std::to_string(version));
  }
  if (!header.GetU64(&payload_size)) return fail("shard image truncated");
  const std::size_t payload_at = sizeof(kImageMagic) + header.pos();
  if (payload_size + 8 != bytes.size() - payload_at) {
    return fail("shard image truncated (payload size mismatch)");
  }
  const std::string_view payload = bytes.substr(payload_at, payload_size);
  BinaryReader footer(bytes.substr(payload_at + payload_size));
  uint64_t checksum = 0;
  if (!footer.GetU64(&checksum)) return fail("shard image truncated");
  if (checksum != Fnv1a(payload)) {
    return fail("shard image corrupted (checksum mismatch)");
  }

  BinaryReader in(payload);
  uint64_t count = 0;
  if (!in.GetU64(epoch) || !in.GetU64(&count) || count > kMaxImageEntries) {
    return fail("shard image corrupted (entry count)");
  }
  entries->clear();
  entries->reserve(count);
  for (uint64_t i = 0; i < count; ++i) {
    ImageEntry entry;
    uint8_t translate = 0;
    if (!in.GetString(&entry.key, payload.size()) ||
        !in.GetU8(&translate) || translate > 1 ||
        !in.GetString(&entry.snapshot, payload.size())) {
      return fail("shard image corrupted (entry " + std::to_string(i) + ")");
    }
    entry.translate = translate != 0;
    entries->push_back(std::move(entry));
  }
  if (!in.exhausted()) {
    return fail("shard image corrupted (trailing payload bytes)");
  }
  return true;
}

ShardWal::ShardWal(const WalOptions& options, std::string dir,
                   FileSystem* fs)
    : options_(options), dir_(std::move(dir)), fs_(fs) {}

std::string ShardWal::WalPath(uint64_t epoch) const {
  return JoinPath(dir_, "wal." + std::to_string(epoch));
}

std::string ShardWal::SnapPath(uint64_t epoch) const {
  return JoinPath(dir_, "snap." + std::to_string(epoch));
}

bool ShardWal::StartEpoch(uint64_t epoch, std::string* error) {
  ChangelogWriterOptions writer_options;
  writer_options.fsync_every_n = options_.fsync_every_n;
  writer_options.fsync_interval_ms = options_.fsync_interval_ms;
  writer_options.metrics = options_.metrics;
  writer_ = ChangelogWriter::Create(fs_, WalPath(epoch), epoch,
                                    writer_options, error);
  if (writer_ == nullptr) return false;
  epoch_ = epoch;
  return true;
}

std::unique_ptr<ShardWal> ShardWal::Open(
    const WalOptions& options, const std::string& dir,
    std::shared_ptr<planner::PlannerService> planner,
    std::map<std::string, Stream>* recovered, RecoveryStats* stats,
    std::string* error) {
  const auto fail = [error](const std::string& why)
      -> std::unique_ptr<ShardWal> {
    if (error != nullptr) *error = why;
    return nullptr;
  };
  FileSystem* fs =
      options.fs != nullptr ? options.fs : RealFileSystem::Default();
  if (!fs->CreateDirs(dir)) {
    return fail("cannot create durability directory " + dir);
  }
  auto wal = std::unique_ptr<ShardWal>(new ShardWal(options, dir, fs));

  std::vector<uint64_t> wal_epochs;
  std::vector<uint64_t> snap_epochs;
  for (const std::string& name : fs->ListDir(dir)) {
    if (const auto e = ParseEpochName(name, "wal.")) wal_epochs.push_back(*e);
    if (const auto e = ParseEpochName(name, "snap.")) {
      snap_epochs.push_back(*e);
    }
  }
  std::sort(wal_epochs.begin(), wal_epochs.end());
  std::sort(snap_epochs.begin(), snap_epochs.end());

  if (!options.recover) {
    if (!wal_epochs.empty() || !snap_epochs.empty()) {
      return fail(dir +
                  " already holds durability state; recover it (mspctl "
                  "recover) or choose a fresh directory");
    }
    if (!wal->StartEpoch(1, error)) return nullptr;
    if (recovered != nullptr) recovered->clear();
    if (stats != nullptr) *stats = wal->recovery_;
    return wal;
  }

  // --- recovery: newest decodable snapshot ---
  obs::Span span("durability.recover");
  const uint64_t recover_start_us = obs::MonotonicMicros();
  std::map<std::string, Stream> streams;
  uint64_t snap_epoch = 0;
  std::string snap_error;
  for (auto it = snap_epochs.rbegin(); it != snap_epochs.rend(); ++it) {
    std::string bytes;
    std::string why;
    uint64_t image_epoch = 0;
    std::vector<ImageEntry> entries;
    if (!fs->ReadFileToString(wal->SnapPath(*it), &bytes, &why) ||
        !DecodeShardImage(bytes, &image_epoch, &entries, &why)) {
      snap_error = wal->SnapPath(*it) + ": " + why;
      continue;
    }
    if (image_epoch != *it) {
      snap_error = wal->SnapPath(*it) + ": header epoch " +
                   std::to_string(image_epoch) + " disagrees with file name";
      continue;
    }
    std::map<std::string, Stream> candidate;
    bool ok = true;
    for (const ImageEntry& entry : entries) {
      uint64_t stream_epoch = 0;
      auto stream = Stream::FromImage(entry, planner, &stream_epoch, &why);
      if (!stream.has_value() || stream_epoch != image_epoch) {
        snap_error = wal->SnapPath(*it) + " instance '" + entry.key +
                     "': " + (stream.has_value() ? "epoch mismatch" : why);
        ok = false;
        break;
      }
      candidate.insert_or_assign(entry.key, std::move(*stream));
    }
    if (!ok) continue;
    streams = std::move(candidate);
    snap_epoch = *it;
    break;
  }
  if (snap_epoch == 0 && !snap_epochs.empty()) {
    return fail("no decodable shard image in " + dir + " (last: " +
                snap_error + ")");
  }

  // --- paired changelog ---
  const uint64_t wal_epoch = snap_epoch == 0 ? 1 : snap_epoch;
  wal->recovery_.snapshot_epoch = snap_epoch;
  wal->recovery_.wal_epoch = wal_epoch;
  ReplayStats replay;
  if (fs->FileExists(wal->WalPath(wal_epoch))) {
    std::string bytes;
    std::string why;
    if (!fs->ReadFileToString(wal->WalPath(wal_epoch), &bytes, &why)) {
      return fail("cannot read " + wal->WalPath(wal_epoch) + ": " + why);
    }
    const auto contents = ReadChangelog(bytes, &why);
    if (!contents.has_value()) {
      // A rotated changelog's header is fsynced before its snapshot
      // exists, so a paired header can only be torn at genesis: the
      // very first fsync never finished, hence nothing was ever acked
      // and an empty shard is the correct recovery.
      if (snap_epoch != 0) {
        return fail(wal->WalPath(wal_epoch) + ": " + why);
      }
      wal->recovery_.torn_tail = true;
    } else {
      if (contents->epoch != wal_epoch) {
        return fail(wal->WalPath(wal_epoch) + ": header epoch " +
                    std::to_string(contents->epoch) +
                    " disagrees with file name");
      }
      if (!contents->clean) wal->recovery_.torn_tail = true;
      if (!ReplayRecords(contents->records, &streams, planner, &replay,
                         &why)) {
        return fail(wal->WalPath(wal_epoch) + ": " + why);
      }
    }
  } else if (snap_epoch != 0) {
    // The rotation protocol creates the changelog BEFORE its snapshot,
    // so a snapshot without its paired changelog means the changelog
    // was lost after the fact: the snapshot is NEWER than the durable
    // log tail and serving from it would silently drop updates.
    return fail("stale changelog: snapshot epoch " +
                std::to_string(snap_epoch) + " in " + dir +
                " has no paired changelog " + wal->WalPath(snap_epoch));
  }

  // A changelog beyond the newest snapshot that already absorbed
  // records means ITS snapshot (cut before the records started) was
  // lost — refuse to resurrect a state that misses them.
  for (auto it = wal_epochs.rbegin(); it != wal_epochs.rend(); ++it) {
    if (*it <= wal_epoch) break;
    std::string bytes;
    std::string why;
    if (!fs->ReadFileToString(wal->WalPath(*it), &bytes, &why)) continue;
    const auto contents = ReadChangelog(bytes, &why);
    if (contents.has_value() && !contents->records.empty()) {
      return fail("changelog epoch " + std::to_string(*it) + " in " + dir +
                  " holds records but no snapshot pairs with it");
    }
  }

  wal->recovery_.instances = streams.size();
  wal->recovery_.records_replayed = replay.creates + replay.applied +
                                    replay.rejected + replay.skipped +
                                    replay.checkpoints;
  wal->recovery_.stale_records = replay.stale;
  const uint64_t replay_us = obs::MonotonicMicros() - recover_start_us;
  span.Arg("instances", wal->recovery_.instances);
  span.Arg("records", wal->recovery_.records_replayed);
  if (options.metrics != nullptr) {
    options.metrics->histogram("durability.recovery_replay_us")
        ->Record(replay_us);
  }

  // --- rotate the recovered state onto a fresh epoch ---
  uint64_t max_seen = wal_epoch;
  if (!wal_epochs.empty()) max_seen = std::max(max_seen, wal_epochs.back());
  if (!snap_epochs.empty()) {
    max_seen = std::max(max_seen, snap_epochs.back());
  }
  wal->epoch_ = max_seen;
  std::vector<ImageEntry> entries;
  entries.reserve(streams.size());
  for (const auto& [key, stream] : streams) {
    entries.push_back(stream.ToImage(max_seen + 1));
  }
  if (!wal->Rotate(entries, error)) return nullptr;
  // Rotate counts as maintenance, not as a served rotation.
  wal->rotations_ = 0;

  if (recovered != nullptr) *recovered = std::move(streams);
  if (stats != nullptr) *stats = wal->recovery_;
  return wal;
}

bool ShardWal::Sync(std::string* error) { return writer_->Sync(error); }

bool ShardWal::WantsRotation() const {
  return options_.rotate_every != 0 &&
         writer_->appended_records() >= options_.rotate_every;
}

bool ShardWal::Rotate(const std::vector<ImageEntry>& entries,
                      std::string* error) {
  const auto fail = [error](const std::string& why) {
    if (error != nullptr) *error = why;
    return false;
  };
  const uint64_t next = epoch_ + 1;
  obs::Span span("durability.rotate");
  span.Arg("epoch", next);
  span.Arg("instances", static_cast<uint64_t>(entries.size()));

  // 1. Fresh changelog first — a valid snapshot must never exist
  //    without its paired changelog.
  ChangelogWriterOptions writer_options;
  writer_options.fsync_every_n = options_.fsync_every_n;
  writer_options.fsync_interval_ms = options_.fsync_interval_ms;
  writer_options.metrics = options_.metrics;
  auto next_writer = ChangelogWriter::Create(fs_, WalPath(next), next,
                                             writer_options, error);
  if (next_writer == nullptr) return false;

  // 2. Image through tmp + rename, so snap.<next> appears atomically.
  const std::string image = EncodeShardImage(next, entries);
  const std::string tmp = JoinPath(dir_, "snap.tmp");
  {
    auto file = fs_->NewWritableFile(tmp, error);
    if (file == nullptr) return false;
    if (!file->Append(image) || !file->Sync() || !file->Close()) {
      return fail(FileError(file.get(), "cannot write " + tmp));
    }
  }
  if (!fs_->RenameFile(tmp, SnapPath(next))) {
    return fail("cannot rename " + tmp + " to " + SnapPath(next));
  }
  fs_->SyncDir(dir_);

  // 3. Switch the writer: records now land in the new epoch.
  if (writer_ != nullptr) {
    closed_records_ += writer_->appended_records();
    closed_fsyncs_ += writer_->fsyncs();
    closed_bytes_ += writer_->bytes_appended();
  }
  writer_ = std::move(next_writer);
  epoch_ = next;
  ++rotations_;
  if (options_.metrics != nullptr) {
    options_.metrics->counter("durability.rotations_total")->Inc();
  }

  // 4. Old epoch files are garbage now.
  for (const std::string& name : fs_->ListDir(dir_)) {
    const auto wal_epoch = ParseEpochName(name, "wal.");
    const auto snap_epoch = ParseEpochName(name, "snap.");
    const uint64_t epoch = wal_epoch.value_or(snap_epoch.value_or(next));
    if (epoch < next) fs_->DeleteFile(JoinPath(dir_, name));
  }
  fs_->SyncDir(dir_);
  return true;
}

bool WriteManifest(FileSystem* fs, const std::string& root,
                   std::size_t num_shards, std::string* error) {
  if (!fs->CreateDirs(root)) {
    if (error != nullptr) *error = "cannot create " + root;
    return false;
  }
  auto file = fs->NewWritableFile(JoinPath(root, "MANIFEST"), error);
  if (file == nullptr) return false;
  const std::string text =
      "msp-wal-dir v1\nshards=" + std::to_string(num_shards) + "\n";
  if (!file->Append(text) || !file->Sync() || !file->Close()) {
    if (error != nullptr) {
      *error = FileError(file.get(), "cannot write MANIFEST");
    }
    return false;
  }
  return true;
}

bool ReadManifest(FileSystem* fs, const std::string& root,
                  std::size_t* num_shards, std::string* error) {
  std::string text;
  if (!fs->ReadFileToString(JoinPath(root, "MANIFEST"), &text, error)) {
    return false;
  }
  const std::string header = "msp-wal-dir v1\nshards=";
  if (text.compare(0, header.size(), header) != 0) {
    if (error != nullptr) *error = root + "/MANIFEST is not a wal-dir manifest";
    return false;
  }
  const char* begin = text.data() + header.size();
  const char* end = text.data() + text.size();
  std::size_t shards = 0;
  const auto [ptr, ec] = std::from_chars(begin, end, shards);
  if (ec != std::errc() || shards == 0 || ptr == end || *ptr != '\n') {
    if (error != nullptr) {
      *error = root + "/MANIFEST holds a malformed shard count";
    }
    return false;
  }
  *num_shards = shards;
  return true;
}

}  // namespace msp::durability
