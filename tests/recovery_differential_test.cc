// Crash-recovery differential: the acceptance bar of the durability
// layer. A reference pass drives a LoggedStream (crash_harness.h) over
// each of the six trace shapes, fingerprinting the live state after
// EVERY appended record. The sweep then kills the log at EVERY byte
// position — every record boundary and every mid-record offset — and
// asserts that recovery from the surviving prefix is bit-identical to
// the live state at the last whole record. On top of the byte sweep:
// bit-flip and alien-magic corruptions, end-to-end ShardWal::Open
// kill points (including mid-rotation traces), and power-loss at
// group-commit barriers proving the ack contract (a synced record is
// never lost, an unsynced one is cleanly absent).

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "crash_harness.h"
#include "durability/changelog.h"
#include "durability/wal.h"
#include "gtest/gtest.h"
#include "online/assigner.h"
#include "online/trace.h"
#include "util/fs.h"
#include "workload/updates.h"

namespace msp::durability {
namespace {

constexpr std::size_t kWindow = 5;  // checkpoint window of the sweeps

// One reference pass: the full log bytes plus the per-record
// fingerprint/boundary maps the sweeps compare against.
struct ReferenceRun {
  std::string bytes;                        // full changelog image
  std::vector<LogRecord> records;           // parsed back, = appended
  std::vector<StateFingerprint> fingerprints;  // [k] = after record k
  std::vector<uint64_t> boundaries;         // [k] = end byte of record k
  std::size_t header_size = 0;
};

ReferenceRun RunReference(const wl::TraceConfig& shape) {
  MemFileSystem fs;
  ChangelogWriterOptions options;
  options.fsync_every_n = 0;  // sync behavior tested separately
  std::string error;
  auto writer = ChangelogWriter::Create(&fs, "wal", 1, options, &error);
  EXPECT_NE(writer, nullptr) << error;

  const online::UpdateTrace trace = wl::GenerateTrace(shape);
  LoggedStream stream(
      "s", CrashSpec(trace.x2y, trace.initial_capacity),
      writer.get());
  for (const online::Update& update : trace.updates) {
    stream.Apply(update, kWindow);
  }
  stream.FinalCheckpoint();
  EXPECT_FALSE(stream.wal_failed());

  ReferenceRun run;
  run.bytes = fs.WrittenContents("wal");
  run.fingerprints = stream.fingerprints();
  run.boundaries = stream.record_end_bytes();
  run.header_size = EncodeChangelogHeader(1).size();
  const auto contents = ReadChangelog(run.bytes, &error);
  EXPECT_TRUE(contents.has_value()) << error;
  EXPECT_TRUE(contents->clean);
  run.records = contents->records;
  EXPECT_EQ(run.records.size(), run.fingerprints.size());
  EXPECT_GE(trace.updates.size(), 200u);
  return run;
}

// Incrementally replays records [*done, want) into `streams` and
// checks the recovered stream against the reference fingerprint. The
// recovered-record count is monotone in the prefix length, so the
// full byte sweep costs one replay per record, not per byte.
void AdvanceReplay(const ReferenceRun& run,
                   std::map<std::string, Stream>* streams,
                   std::size_t* done, std::size_t want) {
  ASSERT_LE(want, run.records.size());
  if (want <= *done) return;
  const std::vector<LogRecord> slice(run.records.begin() + *done,
                                     run.records.begin() + want);
  std::string error;
  ASSERT_TRUE(ReplayRecords(slice, streams, nullptr, nullptr, &error))
      << "records [" << *done << ", " << want << "): " << error;
  *done = want;
  ASSERT_EQ(streams->size(), 1u);
  const Stream& stream = streams->at("s");
  EXPECT_EQ(StateFingerprint::Of(stream),
            run.fingerprints[want - 1])
      << "recovered state diverges after record " << want;
}

// Number of whole records inside a prefix of `len` bytes.
std::size_t WholeRecords(const ReferenceRun& run, std::size_t len) {
  std::size_t whole = 0;
  while (whole < run.boundaries.size() && run.boundaries[whole] <= len) {
    ++whole;
  }
  return whole;
}

class CrashSweepTest : public ::testing::TestWithParam<std::size_t> {};

// The tentpole assertion: kill the writer at EVERY byte of the log —
// every record boundary and every mid-record offset — and recover.
// The surviving prefix must parse to exactly the whole records before
// the cut (torn tail detected otherwise), and replaying them must
// land bit-identical on the live state at that record.
TEST_P(CrashSweepTest, EveryByteKillPointRecoversExactly) {
  const wl::TraceConfig shape = SixShapes().at(GetParam());
  const ReferenceRun run = RunReference(shape);
  ASSERT_GT(run.records.size(), 200u);

  std::map<std::string, Stream> streams;
  std::size_t done = 0;
  for (std::size_t len = 0; len <= run.bytes.size(); ++len) {
    std::string error;
    const auto contents =
        ReadChangelog(std::string_view(run.bytes).substr(0, len), &error);
    if (len < run.header_size) {
      // Killed before the header was whole: no epoch to trust, the
      // reader refuses (ShardWal tolerates this only at genesis).
      EXPECT_FALSE(contents.has_value()) << "len=" << len;
      continue;
    }
    ASSERT_TRUE(contents.has_value()) << "len=" << len << ": " << error;
    const std::size_t whole = WholeRecords(run, len);
    ASSERT_EQ(contents->records.size(), whole) << "len=" << len;
    const bool at_boundary =
        len == run.header_size ||
        (whole > 0 && run.boundaries[whole - 1] == len);
    EXPECT_EQ(contents->clean, at_boundary) << "len=" << len;
    // No acked update lost, none invented: the parsed prefix is
    // exactly the first `whole` reference records.
    for (std::size_t i = done; i < whole; ++i) {
      ASSERT_EQ(contents->records[i], run.records[i]) << "record " << i;
    }
    AdvanceReplay(run, &streams, &done, whole);
  }
  EXPECT_EQ(done, run.records.size());  // the sweep reached the end
}

INSTANTIATE_TEST_SUITE_P(AllShapes, CrashSweepTest,
                         ::testing::Range<std::size_t>(0, 6));

// Bit flips anywhere in the log must never yield a clean identical
// parse; whatever prefix does survive must still replay to the exact
// reference state at that record (corruption can shorten history, it
// can never corrupt the recovered state).
TEST(CorruptionSweepTest, BitFlipsOnlyEverShortenHistory) {
  const ReferenceRun run = RunReference(SixShapes().front());
  for (std::size_t at = 0; at < run.bytes.size(); at += 13) {
    std::string mutated = run.bytes;
    mutated[at] = static_cast<char>(mutated[at] ^ 0x20);
    std::string error;
    const auto contents = ReadChangelog(mutated, &error);
    if (!contents.has_value()) continue;  // header flip: rejected whole
    EXPECT_FALSE(contents->clean && contents->records == run.records)
        << "flip at " << at << " went unnoticed";
    ASSERT_LE(contents->records.size(), run.records.size());
    for (std::size_t i = 0; i < contents->records.size(); ++i) {
      ASSERT_EQ(contents->records[i], run.records[i])
          << "flip at " << at << " corrupted record " << i;
    }
    if (contents->records.empty()) continue;
    std::map<std::string, Stream> streams;
    std::size_t done = 0;
    AdvanceReplay(run, &streams, &done, contents->records.size());
  }
}

TEST(CorruptionSweepTest, AlienMagicAndTruncationHelpersBite) {
  MemFileSystem fs;
  ChangelogWriterOptions options;
  options.fsync_every_n = 1;
  std::string error;
  auto writer = ChangelogWriter::Create(&fs, "wal", 1, options, &error);
  ASSERT_NE(writer, nullptr) << error;
  ASSERT_TRUE(writer->Append(LogRecord::Checkpoint("k", 0)));

  AlienMagic(&fs, "wal");
  EXPECT_FALSE(ReadChangelog(fs.WrittenContents("wal"), &error));
  EXPECT_NE(error.find("magic"), std::string::npos);

  TruncateTo(&fs, "wal", 3);
  EXPECT_FALSE(ReadChangelog(fs.WrittenContents("wal"), &error));
}

// ---------------------------------------------------------------------
// End-to-end ShardWal kill points: the same differential, but through
// ShardWal::Open's full recovery state machine (directory scan,
// snapshot pairing, replay, re-rotation). Each Open replays from
// scratch, so the kill points are sampled: every 17th record
// boundary, each with one mid-record companion.

struct ShardRun {
  std::string wal1;                            // full wal.1 image
  std::vector<StateFingerprint> fingerprints;  // [k] = after record k
  std::vector<uint64_t> boundaries;            // [k] = end byte
  std::size_t header_size = 0;
};

ShardRun RunShard(const wl::TraceConfig& shape) {
  ShardRun run;
  MemFileSystem fs;
  WalOptions options;
  options.dir = "shard";
  options.fsync_every_n = 1;
  options.fs = &fs;
  std::map<std::string, Stream> recovered;
  RecoveryStats stats;
  std::string error;
  auto wal = ShardWal::Open(options, options.dir, nullptr, &recovered,
                            &stats, &error);
  EXPECT_NE(wal, nullptr) << error;

  const online::UpdateTrace trace = wl::GenerateTrace(shape);
  const online::InstanceSpec spec =
      CrashSpec(trace.x2y, trace.initial_capacity);
  online::OnlineAssigner assigner(spec.ToOnlineConfig());
  std::vector<std::optional<InputId>> live_of_trace;
  uint64_t event_seq = 0;
  run.header_size = EncodeChangelogHeader(1).size();
  uint64_t end = run.header_size;
  const auto log = [&](const LogRecord& record) {
    EXPECT_TRUE(wal->writer()->Append(record, &error)) << error;
    end += EncodeRecord(record).size();
    run.boundaries.push_back(end);
    run.fingerprints.push_back(
        StateFingerprint::Of(assigner, event_seq, live_of_trace));
  };

  log(LogRecord::Create("s", 0, spec, /*translate=*/true));
  for (const online::Update& raw : trace.updates) {
    online::Update update = raw;
    online::TraceIdTranslator translator(&live_of_trace);
    if (!translator.Translate(&update)) {
      ++event_seq;
      log(LogRecord::Event(RecordKind::kSkipped, "s", event_seq, update));
      continue;
    }
    const online::UpdateResult result = assigner.ApplyDeferred(update);
    if (update.kind == online::UpdateKind::kAddInput) {
      translator.RecordAdd(result.applied ? result.new_id : std::nullopt);
    }
    ++event_seq;
    log(LogRecord::Event(result.applied ? RecordKind::kApplied
                                        : RecordKind::kRejected,
                         "s", event_seq, update));
    if (result.applied && assigner.pending_decision_updates() >= kWindow) {
      assigner.PolicyCheckpoint();
      log(LogRecord::Checkpoint("s", event_seq));
    }
  }
  EXPECT_TRUE(wal->Sync(&error)) << error;
  run.wal1 = fs.WrittenContents("shard/wal.1");
  EXPECT_EQ(run.wal1.size(), run.boundaries.back());
  return run;
}

TEST(ShardWalKillPointTest, SampledKillPointsRecoverExactly) {
  const ShardRun run = RunShard(SixShapes().at(1));  // mixed x2y
  ASSERT_GT(run.boundaries.size(), 200u);

  std::vector<std::size_t> cuts;
  for (std::size_t k = 0; k < run.boundaries.size(); k += 17) {
    cuts.push_back(run.boundaries[k]);          // at the boundary
    if (run.boundaries[k] > run.header_size + 7) {
      cuts.push_back(run.boundaries[k] - 7);    // mid-record
    }
  }
  cuts.push_back(run.header_size);  // header only: empty stream set

  for (const std::size_t len : cuts) {
    SCOPED_TRACE("kill at byte " + std::to_string(len));
    MemFileSystem fs;
    fs.CreateDirs("shard");
    fs.CorruptFile("shard/wal.1", run.wal1.substr(0, len));
    WalOptions options;
    options.dir = "shard";
    options.recover = true;
    options.fs = &fs;
    std::map<std::string, Stream> recovered;
    RecoveryStats stats;
    std::string error;
    auto wal = ShardWal::Open(options, options.dir, nullptr, &recovered,
                              &stats, &error);
    ASSERT_NE(wal, nullptr) << error;
    // Recovery re-rotates past the torn epoch: the shard serves from
    // a fresh changelog, never appending after a torn tail.
    EXPECT_EQ(wal->epoch(), 2u);

    std::size_t whole = 0;
    while (whole < run.boundaries.size() && run.boundaries[whole] <= len) {
      ++whole;
    }
    const bool at_boundary =
        len == run.header_size ||
        (whole > 0 && run.boundaries[whole - 1] == len);
    EXPECT_EQ(stats.torn_tail, !at_boundary);
    if (whole == 0) {
      EXPECT_TRUE(recovered.empty());
      continue;
    }
    ASSERT_EQ(recovered.size(), 1u);
    const Stream& stream = recovered.at("s");
    EXPECT_EQ(StateFingerprint::Of(stream),
              run.fingerprints[whole - 1]);
    EXPECT_TRUE(stream.assigner().ValidateNow());
  }
}

// ---------------------------------------------------------------------
// Power loss at group-commit barriers: what fsync acked must survive
// DropUnsynced, what it did not ack must be cleanly absent (no torn
// garbage at a barrier). Each stop point re-runs the deterministic
// stream from scratch, cuts the power, and recovers.

TEST(PowerLossTest, SyncedRecordsSurviveDropUnsynced) {
  const wl::TraceConfig shape = SixShapes().at(4);  // capacity osc, a2a
  const online::UpdateTrace trace = wl::GenerateTrace(shape);

  for (const std::size_t stop :
       {std::size_t{37}, std::size_t{120}, trace.updates.size()}) {
    SCOPED_TRACE("power loss after step " + std::to_string(stop));
    MemFileSystem fs;
    ChangelogWriterOptions options;
    options.fsync_every_n = 8;  // several records ride the page cache
    std::string error;
    auto writer = ChangelogWriter::Create(&fs, "wal", 1, options, &error);
    ASSERT_NE(writer, nullptr) << error;
    LoggedStream stream(
        "s", CrashSpec(trace.x2y, trace.initial_capacity),
        writer.get());
    for (std::size_t i = 0; i < stop; ++i) {
      stream.Apply(trace.updates[i], kWindow);
    }
    ASSERT_FALSE(stream.wal_failed());
    const uint64_t synced = writer->synced_records();
    const uint64_t appended = writer->appended_records();
    fs.DropUnsynced();

    const auto contents = ReadChangelog(fs.DurableContents("wal"), &error);
    ASSERT_TRUE(contents.has_value()) << error;
    EXPECT_TRUE(contents->clean);  // barriers sit on record boundaries
    EXPECT_EQ(contents->records.size(), synced);
    EXPECT_LE(synced, appended);
    if (synced == 0) continue;

    std::map<std::string, Stream> streams;
    ASSERT_TRUE(
        ReplayRecords(contents->records, &streams, nullptr, nullptr, &error))
        << error;
    const Stream& recovered = streams.at("s");
    EXPECT_EQ(StateFingerprint::Of(recovered),
              stream.fingerprints()[synced - 1]);
  }
}

// The explicit ack: after Sync() returns, a power cut loses nothing.
TEST(PowerLossTest, ExplicitSyncIsDurable) {
  const wl::TraceConfig shape = SixShapes().at(0);
  const online::UpdateTrace trace = wl::GenerateTrace(shape);
  MemFileSystem fs;
  ChangelogWriterOptions options;
  options.fsync_every_n = 0;  // only explicit syncs
  std::string error;
  auto writer = ChangelogWriter::Create(&fs, "wal", 1, options, &error);
  ASSERT_NE(writer, nullptr) << error;
  LoggedStream stream(
      "s", CrashSpec(trace.x2y, trace.initial_capacity),
      writer.get());
  for (const online::Update& update : trace.updates) {
    stream.Apply(update, kWindow);
  }
  stream.FinalCheckpoint();
  ASSERT_TRUE(writer->Sync(&error)) << error;  // the ack
  fs.DropUnsynced();

  const auto contents = ReadChangelog(fs.DurableContents("wal"), &error);
  ASSERT_TRUE(contents.has_value()) << error;
  EXPECT_TRUE(contents->clean);
  EXPECT_EQ(contents->records.size(), stream.fingerprints().size());

  std::map<std::string, Stream> streams;
  ASSERT_TRUE(
      ReplayRecords(contents->records, &streams, nullptr, nullptr, &error))
      << error;
  const Stream& recovered = streams.at("s");
  EXPECT_EQ(StateFingerprint::Of(recovered),
            stream.fingerprints().back());
}

// A FaultyFs kill mid-stream leaves a prefix on disk that recovers to
// the last fingerprint the stream managed to append — the end-to-end
// version of the byte sweep with the dying-writer model.
TEST(FaultyWriterTest, KilledStreamRecoversToLastAppendedRecord) {
  const wl::TraceConfig shape = SixShapes().at(3);  // flash crowd, x2y
  const online::UpdateTrace trace = wl::GenerateTrace(shape);

  for (const int64_t budget : {300, 1100, 4000}) {
    SCOPED_TRACE("write budget " + std::to_string(budget));
    MemFileSystem mem;
    FaultyFs fs(&mem);
    ChangelogWriterOptions options;
    options.fsync_every_n = 1;
    std::string error;
    auto writer = ChangelogWriter::Create(&fs, "wal", 1, options, &error);
    ASSERT_NE(writer, nullptr) << error;
    fs.fault().write_budget = budget;
    LoggedStream stream(
        "s", CrashSpec(trace.x2y, trace.initial_capacity),
        writer.get());
    for (const online::Update& update : trace.updates) {
      stream.Apply(update, kWindow);
      if (stream.wal_failed()) break;
    }
    ASSERT_TRUE(stream.wal_failed());
    ASSERT_TRUE(fs.fault().killed);
    ASSERT_FALSE(stream.fingerprints().empty());

    const auto contents = ReadChangelog(mem.WrittenContents("wal"), &error);
    ASSERT_TRUE(contents.has_value()) << error;
    ASSERT_EQ(contents->records.size(), stream.fingerprints().size());

    std::map<std::string, Stream> streams;
    ASSERT_TRUE(
        ReplayRecords(contents->records, &streams, nullptr, nullptr, &error))
        << error;
    const Stream& recovered = streams.at("s");
    EXPECT_EQ(StateFingerprint::Of(recovered),
              stream.fingerprints().back());
  }
}

}  // namespace
}  // namespace msp::durability
