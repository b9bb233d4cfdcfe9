#include "durability/changelog.h"

#include <chrono>
#include <cstring>
#include <utility>

#include "obs/span.h"
#include "util/binary_io.h"
#include "util/fnv.h"

namespace msp::durability {

namespace {

constexpr char kMagic[8] = {'M', 'S', 'P', 'W', 'A', 'L', '0', '1'};
// magic + version + epoch + header checksum.
constexpr std::size_t kHeaderSize = 8 + 4 + 8 + 8;
// len + payload checksum.
constexpr std::size_t kFrameOverhead = 4 + 8;

uint64_t SteadyNowMs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::milliseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

std::string EncodePayload(const LogRecord& record) {
  std::string payload;
  PutU8(&payload, static_cast<uint8_t>(record.kind));
  PutU64(&payload, record.seq);
  PutU32(&payload, static_cast<uint32_t>(record.key.size()));
  payload.append(record.key);
  switch (record.kind) {
    case RecordKind::kCreate:
      PutU8(&payload, record.translate ? 1 : 0);
      online::PutSpec(&payload, record.spec);
      break;
    case RecordKind::kApplied:
    case RecordKind::kRejected:
    case RecordKind::kSkipped:
      online::PutUpdate(&payload, record.update);
      break;
    case RecordKind::kCheckpoint:
      break;
  }
  return payload;
}

bool DecodePayload(std::string_view payload, LogRecord* record,
                   std::string* why) {
  BinaryReader in(payload);
  uint8_t kind = 0;
  uint32_t key_len = 0;
  if (!in.GetU8(&kind) || !in.GetU64(&record->seq) || !in.GetU32(&key_len)) {
    *why = "record payload truncated";
    return false;
  }
  if (kind > static_cast<uint8_t>(RecordKind::kCheckpoint)) {
    *why = "record kind out of range";
    return false;
  }
  record->kind = static_cast<RecordKind>(kind);
  std::string_view key;
  if (!in.GetBytes(&key, key_len)) {
    *why = "record key truncated";
    return false;
  }
  record->key.assign(key);
  switch (record->kind) {
    case RecordKind::kCreate: {
      uint8_t translate = 0;
      if (!in.GetU8(&translate) || translate > 1) {
        *why = "create record translate flag truncated or out of range";
        return false;
      }
      record->translate = translate != 0;
      if (!online::GetSpec(&in, &record->spec, why)) return false;
      break;
    }
    case RecordKind::kApplied:
    case RecordKind::kRejected:
    case RecordKind::kSkipped:
      if (!online::GetUpdate(&in, &record->update, why)) return false;
      break;
    case RecordKind::kCheckpoint:
      break;
  }
  if (!in.exhausted()) {
    *why = "record holds trailing bytes";
    return false;
  }
  return true;
}

}  // namespace

std::string EncodeRecord(const LogRecord& record) {
  const std::string payload = EncodePayload(record);
  std::string frame;
  frame.reserve(kFrameOverhead + payload.size());
  PutU32(&frame, static_cast<uint32_t>(payload.size()));
  PutU64(&frame, Fnv1a(payload));
  frame.append(payload);
  return frame;
}

std::string EncodeChangelogHeader(uint64_t epoch) {
  std::string covered;
  PutU32(&covered, kChangelogVersion);
  PutU64(&covered, epoch);
  std::string header;
  header.reserve(kHeaderSize);
  header.append(kMagic, sizeof(kMagic));
  header.append(covered);
  PutU64(&header, Fnv1a(covered));
  return header;
}

std::optional<ChangelogContents> ReadChangelog(std::string_view bytes,
                                               std::string* error) {
  const auto fail = [error](const std::string& why)
      -> std::optional<ChangelogContents> {
    if (error != nullptr) *error = why;
    return std::nullopt;
  };

  if (bytes.size() < kHeaderSize) return fail("changelog truncated (header)");
  if (std::memcmp(bytes.data(), kMagic, sizeof(kMagic)) != 0) {
    return fail("not a changelog file (bad magic)");
  }
  BinaryReader header(bytes.substr(sizeof(kMagic)));
  uint32_t version = 0;
  uint64_t epoch = 0;
  uint64_t header_checksum = 0;
  if (!header.GetU32(&version) || !header.GetU64(&epoch) ||
      !header.GetU64(&header_checksum)) {
    return fail("changelog truncated (header)");
  }
  {
    std::string covered;
    PutU32(&covered, version);
    PutU64(&covered, epoch);
    if (header_checksum != Fnv1a(covered)) {
      return fail("changelog corrupted (header checksum)");
    }
  }
  if (version != kChangelogVersion) {
    return fail("unsupported changelog version " + std::to_string(version));
  }

  ChangelogContents contents;
  contents.epoch = epoch;
  std::size_t pos = kHeaderSize;
  contents.valid_bytes = pos;
  const auto torn = [&](const std::string& why) {
    contents.clean = false;
    contents.tail_error = why;
    return std::optional<ChangelogContents>(std::move(contents));
  };
  while (pos < bytes.size()) {
    BinaryReader frame(bytes.substr(pos));
    uint32_t len = 0;
    uint64_t checksum = 0;
    if (!frame.GetU32(&len) || !frame.GetU64(&checksum)) {
      return torn("torn record frame");
    }
    if (len > kMaxRecordPayload) {
      return torn("record length out of range");
    }
    std::string_view payload;
    if (!frame.GetBytes(&payload, len)) {
      return torn("torn record payload");
    }
    if (checksum != Fnv1a(payload)) {
      return torn("record checksum mismatch");
    }
    LogRecord record;
    std::string why;
    if (!DecodePayload(payload, &record, &why)) {
      return torn("record corrupted: " + why);
    }
    contents.records.push_back(std::move(record));
    pos += kFrameOverhead + len;
    contents.valid_bytes = pos;
  }
  return contents;
}

ChangelogWriter::ChangelogWriter(std::unique_ptr<WritableFile> file,
                                 std::string path, uint64_t epoch,
                                 const ChangelogWriterOptions& options)
    : file_(std::move(file)),
      path_(std::move(path)),
      epoch_(epoch),
      options_(options) {
  if (!options_.now_ms) options_.now_ms = SteadyNowMs;
  last_sync_ms_ = options_.now_ms();
  if (options_.metrics != nullptr) {
    obs::Registry& reg = *options_.metrics;
    pub_.records = reg.counter("durability.records_appended_total");
    pub_.bytes = reg.counter("durability.bytes_appended_total");
    pub_.fsyncs = reg.counter("durability.fsyncs_total");
    pub_.fsync_latency_us = reg.histogram("durability.fsync_latency_us");
    pub_.group_commit_batch = reg.histogram("durability.group_commit_batch");
  }
}

std::unique_ptr<ChangelogWriter> ChangelogWriter::Create(
    FileSystem* fs, const std::string& path, uint64_t epoch,
    const ChangelogWriterOptions& options, std::string* error) {
  std::unique_ptr<WritableFile> file = fs->NewWritableFile(path, error);
  if (file == nullptr) return nullptr;
  const std::string header = EncodeChangelogHeader(epoch);
  if (!file->Append(header) || !file->Sync()) {
    if (error != nullptr) *error = file->last_error();
    return nullptr;
  }
  auto writer = std::unique_ptr<ChangelogWriter>(
      new ChangelogWriter(std::move(file), path, epoch, options));
  writer->bytes_appended_ = header.size();
  writer->fsyncs_ = 1;
  return writer;
}

bool ChangelogWriter::Append(const LogRecord& record, std::string* error) {
  if (poisoned_) {
    if (error != nullptr) *error = poison_error_;
    return false;
  }
  const std::string frame = EncodeRecord(record);
  if (!file_->Append(frame)) {
    poisoned_ = true;
    poison_error_ = "changelog append failed: " + file_->last_error();
    if (error != nullptr) *error = poison_error_;
    return false;
  }
  ++appended_records_;
  bytes_appended_ += frame.size();
  ++records_since_sync_;
  if (pub_.records != nullptr) {
    pub_.records->Inc();
    pub_.bytes->Inc(frame.size());
  }
  return MaybeGroupCommit(error);
}

bool ChangelogWriter::MaybeGroupCommit(std::string* error) {
  const uint64_t unsynced = appended_records_ - synced_records_;
  if (unsynced == 0) return true;
  const bool count_due =
      options_.fsync_every_n != 0 && unsynced >= options_.fsync_every_n;
  const bool timer_due =
      options_.fsync_interval_ms != 0 &&
      options_.now_ms() - last_sync_ms_ >= options_.fsync_interval_ms;
  if (!count_due && !timer_due) return true;
  return Sync(error);
}

bool ChangelogWriter::Sync(std::string* error) {
  if (poisoned_) {
    if (error != nullptr) *error = poison_error_;
    return false;
  }
  if (synced_records_ == appended_records_) return true;
  obs::Span span("durability.fsync");
  const uint64_t start_us = obs::MonotonicMicros();
  const bool ok = file_->Sync();
  const uint64_t elapsed_us = obs::MonotonicMicros() - start_us;
  span.Arg("records", appended_records_ - synced_records_);
  if (!ok) {
    poisoned_ = true;
    poison_error_ = "changelog fsync failed: " + file_->last_error();
    if (error != nullptr) *error = poison_error_;
    return false;
  }
  synced_records_ = appended_records_;
  ++fsyncs_;
  last_sync_ms_ = options_.now_ms();
  if (pub_.fsyncs != nullptr) {
    pub_.fsyncs->Inc();
    pub_.fsync_latency_us->Record(elapsed_us);
    pub_.group_commit_batch->Record(records_since_sync_);
  }
  records_since_sync_ = 0;
  return true;
}

}  // namespace msp::durability
