// Reusable fault-injection harness for the durability suites.
//
// The changelog's contract — "an acked update survives any crash" —
// is only as strong as the crash model it is tested under. This
// header provides that model, shared by durability_test.cc,
// recovery_differential_test.cc, and serving_durability_test.cc:
//
//   FaultyFile / FaultyFs   a WritableFile/FileSystem decorator that
//                           kills the write stream after a byte
//                           budget (short write, then sticky
//                           failure — a process dying mid-write),
//                           and can fail fsyncs on demand
//   FlipByte / TruncateTo / corruption injectors over a
//   AlienMagic              MemFileSystem's durable image
//   LoggedStream            one durable update stream written out by
//                           hand (translate, log-before-ack, windowed
//                           checkpoints) — the independent reference
//                           durability::Stream must match byte for
//                           byte — recording a per-record
//                           StateFingerprint so a recovery from ANY
//                           log prefix can be checked bit-identical
//   SixShapes()             the six differential trace shapes
//                           ({mixed, flash-crowd, capacity-
//                           oscillation} x {a2a, x2y})
//
// Everything here is deterministic: fingerprints are comparable
// across processes and sanitizer builds.

#ifndef MSP_TESTS_CRASH_HARNESS_H_
#define MSP_TESTS_CRASH_HARNESS_H_

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "core/schema_io.h"
#include "durability/changelog.h"
#include "durability/stream.h"
#include "online/assigner.h"
#include "online/trace.h"
#include "util/fs.h"
#include "workload/updates.h"

namespace msp::durability {

/// Shared kill switch of a FaultyFs and the files it opened.
struct FaultState {
  /// Remaining bytes the stream may write; < 0 means unlimited.
  int64_t write_budget = -1;
  /// When set, every Sync (file and dir) fails.
  bool fail_syncs = false;
  /// True once a write ran out of budget.
  bool killed = false;
};

/// WritableFile decorator: forwards to `base` until the shared budget
/// runs dry, then performs one SHORT write (the torn tail a dying
/// process leaves) and fails stickily.
class FaultyFile : public WritableFile {
 public:
  FaultyFile(std::unique_ptr<WritableFile> base, FaultState* fault)
      : base_(std::move(base)), fault_(fault) {}

  bool Append(std::string_view data) override {
    if (!error_.empty()) return false;
    if (fault_->write_budget < 0) return Forward(base_->Append(data));
    const auto budget = static_cast<uint64_t>(fault_->write_budget);
    if (budget >= data.size()) {
      fault_->write_budget -= static_cast<int64_t>(data.size());
      return Forward(base_->Append(data));
    }
    base_->Append(data.substr(0, budget));  // the torn tail
    fault_->write_budget = 0;
    fault_->killed = true;
    error_ = "injected crash: write budget exhausted";
    return false;
  }

  bool Sync() override {
    if (!error_.empty()) return false;
    if (fault_->fail_syncs) {
      error_ = "injected fsync failure";
      return false;
    }
    return Forward(base_->Sync());
  }

  bool Close() override { return error_.empty() && base_->Close(); }

  const std::string& last_error() const override {
    return error_.empty() ? base_->last_error() : error_;
  }

 private:
  bool Forward(bool ok) {
    if (!ok && error_.empty()) error_ = base_->last_error();
    return ok;
  }

  std::unique_ptr<WritableFile> base_;
  FaultState* fault_;
  std::string error_;
};

/// FileSystem decorator that arms every file it opens with the shared
/// FaultState. Metadata operations pass through (the byte budget
/// models a dying *writer*, not a dying disk).
class FaultyFs : public FileSystem {
 public:
  explicit FaultyFs(FileSystem* base) : base_(base) {}

  FaultState& fault() { return fault_; }

  std::unique_ptr<WritableFile> NewWritableFile(
      const std::string& path, std::string* error) override {
    auto file = base_->NewWritableFile(path, error);
    if (file == nullptr) return nullptr;
    return std::make_unique<FaultyFile>(std::move(file), &fault_);
  }
  bool ReadFileToString(const std::string& path, std::string* out,
                        std::string* error) override {
    return base_->ReadFileToString(path, out, error);
  }
  bool FileExists(const std::string& path) override {
    return base_->FileExists(path);
  }
  std::vector<std::string> ListDir(const std::string& dir) override {
    return base_->ListDir(dir);
  }
  bool DeleteFile(const std::string& path) override {
    return base_->DeleteFile(path);
  }
  bool RenameFile(const std::string& from, const std::string& to) override {
    return base_->RenameFile(from, to);
  }
  bool CreateDirs(const std::string& dir) override {
    return base_->CreateDirs(dir);
  }
  bool SyncDir(const std::string& dir) override {
    return !fault_.fail_syncs && base_->SyncDir(dir);
  }
  uint64_t total_syncs() const override { return base_->total_syncs(); }

 private:
  FileSystem* base_;
  FaultState fault_;
};

/// Flips one bit of `path`'s durable image.
inline void FlipByte(MemFileSystem* fs, const std::string& path,
                     std::size_t offset, uint8_t mask = 0x20) {
  std::string contents = fs->WrittenContents(path);
  if (offset < contents.size()) {
    contents[offset] = static_cast<char>(contents[offset] ^ mask);
  }
  fs->CorruptFile(path, std::move(contents));
}

/// Truncates `path`'s durable image to `len` bytes — the state a kill
/// at byte `len` leaves behind.
inline void TruncateTo(MemFileSystem* fs, const std::string& path,
                       std::size_t len) {
  fs->CorruptFile(path, fs->WrittenContents(path).substr(0, len));
}

/// Overwrites the leading magic with an alien one.
inline void AlienMagic(MemFileSystem* fs, const std::string& path) {
  std::string contents = fs->WrittenContents(path);
  const std::string alien = "NOTMYLOG";
  contents.replace(0, std::min(alien.size(), contents.size()), alien, 0,
                   std::min(alien.size(), contents.size()));
  fs->CorruptFile(path, std::move(contents));
}

/// Everything observable about one durable stream's state. Two equal
/// fingerprints mean the recovered instance is bit-identical to the
/// live one: same schema, same counters, same policy hysteresis, same
/// replay position, same id-translation table.
struct StateFingerprint {
  std::string schema;
  uint64_t updates = 0;
  uint64_t rejected = 0;
  uint64_t repairs = 0;
  uint64_t replans = 0;
  online::ChurnStats churn;
  InputSize capacity = 0;
  std::size_t num_inputs = 0;
  uint64_t pending_decision = 0;
  uint64_t event_seq = 0;
  std::vector<std::optional<InputId>> live_of_trace;

  static StateFingerprint Of(
      const online::OnlineAssigner& assigner, uint64_t event_seq,
      const std::vector<std::optional<InputId>>& live_of_trace) {
    StateFingerprint fp;
    fp.schema = SchemaToText(assigner.Schema());
    fp.updates = assigner.totals().updates;
    fp.rejected = assigner.totals().rejected;
    fp.repairs = assigner.totals().repairs;
    fp.replans = assigner.totals().replans;
    fp.churn = assigner.totals().churn;
    fp.capacity = assigner.capacity();
    fp.num_inputs = assigner.num_inputs();
    fp.pending_decision = assigner.pending_decision_updates();
    fp.event_seq = event_seq;
    fp.live_of_trace = live_of_trace;
    return fp;
  }

  static StateFingerprint Of(const Stream& stream) {
    return Of(stream.assigner(), stream.cursor().next_event,
              stream.cursor().live_of_trace);
  }

  bool operator==(const StateFingerprint&) const = default;
};

/// The deterministic instance spec the crash suites share. Portfolio
/// planning is off: recovery re-applies every logged event and must
/// land on the same schema bit for bit.
inline online::InstanceSpec CrashSpec(bool x2y, InputSize capacity) {
  online::InstanceSpec spec;
  spec.x2y = x2y;
  spec.use_portfolio = false;
  spec.capacity = capacity;
  spec.policy.name = "drift";
  spec.policy.reducer_drift = 1.4;
  spec.policy.comm_drift = 2.0;
  spec.policy.max_updates = 64;
  spec.policy.cooldown = 8;
  return spec;
}

/// One durable update stream, written independently of
/// durability::Stream (which the serving shard and the CLI run):
/// translate trace ids, append the record BEFORE
/// moving on (log-before-ack), checkpoint on full windows. After every
/// appended record the harness stores a StateFingerprint, so a
/// recovery from a prefix of K records can be asserted identical to
/// the live state at record K.
class LoggedStream {
 public:
  LoggedStream(std::string key, const online::InstanceSpec& spec,
               ChangelogWriter* wal)
      : key_(std::move(key)),
        assigner_(std::make_unique<online::OnlineAssigner>(
            spec.ToOnlineConfig())),
        wal_(wal) {
    Log(LogRecord::Create(key_, 0, spec, /*translate=*/true));
  }

  /// Applies one trace event with window semantics; appends the event
  /// record and, on a full window, a checkpoint record.
  void Apply(const online::Update& raw, std::size_t window) {
    online::Update update = raw;
    online::TraceIdTranslator translator(&live_of_trace_);
    if (!translator.Translate(&update)) {
      ++event_seq_;
      Log(LogRecord::Event(RecordKind::kSkipped, key_, event_seq_, update));
      return;
    }
    const online::UpdateResult result = assigner_->ApplyDeferred(update);
    if (update.kind == online::UpdateKind::kAddInput) {
      translator.RecordAdd(result.applied ? result.new_id : std::nullopt);
    }
    ++event_seq_;
    Log(LogRecord::Event(result.applied ? RecordKind::kApplied
                                        : RecordKind::kRejected,
                         key_, event_seq_, update));
    if (result.applied &&
        assigner_->pending_decision_updates() >= (window == 0 ? 1 : window)) {
      assigner_->PolicyCheckpoint();
      Log(LogRecord::Checkpoint(key_, event_seq_));
    }
  }

  /// End-of-stream flush of a trailing partial window.
  void FinalCheckpoint() {
    if (assigner_->pending_decision_updates() == 0) return;
    assigner_->PolicyCheckpoint();
    Log(LogRecord::Checkpoint(key_, event_seq_));
  }

  const online::OnlineAssigner& assigner() const { return *assigner_; }
  uint64_t event_seq() const { return event_seq_; }
  const std::vector<std::optional<InputId>>& live_of_trace() const {
    return live_of_trace_;
  }

  /// fingerprints()[k] is the state right after record k was appended
  /// (k = 0 is the kCreate record); fingerprints().back() is final.
  const std::vector<StateFingerprint>& fingerprints() const {
    return fingerprints_;
  }
  /// record_end_bytes()[k] is bytes_appended after record k — the
  /// boundary map of the sweep.
  const std::vector<uint64_t>& record_end_bytes() const {
    return record_end_bytes_;
  }
  /// True once an injected fault stopped the writer; later records are
  /// neither appended nor fingerprinted.
  bool wal_failed() const { return wal_failed_; }

 private:
  void Log(const LogRecord& record) {
    if (wal_failed_) return;
    if (!wal_->Append(record)) {
      wal_failed_ = true;
      return;
    }
    fingerprints_.push_back(
        StateFingerprint::Of(*assigner_, event_seq_, live_of_trace_));
    record_end_bytes_.push_back(wal_->bytes_appended());
  }

  const std::string key_;
  std::unique_ptr<online::OnlineAssigner> assigner_;
  ChangelogWriter* wal_;
  uint64_t event_seq_ = 0;
  std::vector<std::optional<InputId>> live_of_trace_;
  std::vector<StateFingerprint> fingerprints_;
  std::vector<uint64_t> record_end_bytes_;
  bool wal_failed_ = false;
};

/// The six differential trace shapes of the crash acceptance bar:
/// every TraceShape crossed with both instance kinds, each >= 200
/// steps.
inline std::vector<wl::TraceConfig> SixShapes(std::size_t steps = 200) {
  std::vector<wl::TraceConfig> shapes;
  uint64_t seed = 17;
  for (const wl::TraceShape shape :
       {wl::TraceShape::kMixed, wl::TraceShape::kFlashCrowd,
        wl::TraceShape::kCapacityOscillation}) {
    for (const bool x2y : {false, true}) {
      wl::TraceConfig config;
      config.shape = shape;
      config.x2y = x2y;
      config.initial_inputs = 24;
      config.steps = steps;
      config.capacity = 100;
      config.lo = 2;
      config.hi = 40;
      config.seed = seed++;
      shapes.push_back(config);
    }
  }
  return shapes;
}

}  // namespace msp::durability

#endif  // MSP_TESTS_CRASH_HARNESS_H_
