// Unit and property tests for the durability layer: the changelog
// codec (round-trip every record and update kind, reject every 1-byte
// mutation), the group-commit writer (fsync batching, poisoning,
// power-loss durability of the ack barrier), the shard-image rotation
// protocol (a crash after ANY protocol step leaves a recoverable
// directory), stale-pair detection, the manifest, and the Seed
// resume-cursor used for changelog continuation. The crash-injection
// backends live in crash_harness.h, shared with the differential and
// serving suites.

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "crash_harness.h"
#include "core/schema_io.h"
#include "durability/changelog.h"
#include "durability/wal.h"
#include "gtest/gtest.h"
#include "online/assigner.h"
#include "online/snapshot.h"
#include "online/trace.h"
#include "util/binary_io.h"
#include "util/fnv.h"
#include "util/fs.h"
#include "util/rng.h"
#include "workload/sizes.h"
#include "workload/updates.h"

namespace msp::durability {
namespace {

// A log exercising every record kind and every update kind (both
// sides for adds), with keys of several lengths including empty-ish.
std::vector<LogRecord> EveryKindRecords() {
  // Every spec field off its default, so the codec round-trips all.
  online::InstanceSpec spec = CrashSpec(/*x2y=*/true, 120);
  spec.policy.every_n = 17;
  spec.matching = online::DeltaMatching::kHungarian;
  spec.measure_matching_gap = true;
  spec.use_portfolio = true;
  spec.budget_ms = 1.5;
  spec.full_reassign_on_replan = true;
  spec.budget.window_updates = 9;
  std::vector<LogRecord> records;
  records.push_back(LogRecord::Create("s", 0, spec, /*translate=*/true));
  records.push_back(LogRecord::Event(RecordKind::kApplied, "s", 1,
                                     online::Update::Add(30)));
  records.push_back(LogRecord::Event(
      RecordKind::kApplied, "s", 2,
      online::Update::Add(11, online::Side::kY)));
  records.push_back(LogRecord::Event(RecordKind::kRejected, "s", 3,
                                     online::Update::Resize(1, 900)));
  records.push_back(LogRecord::Event(RecordKind::kSkipped, "s", 4,
                                     online::Update::Remove(77)));
  records.push_back(LogRecord::Event(RecordKind::kApplied, "s", 5,
                                     online::Update::SetCapacity(140)));
  records.push_back(LogRecord::Checkpoint("s", 5));
  records.push_back(LogRecord::Create(
      "a-much-longer-instance-key/with/slashes", 0, CrashSpec(false, 64),
      /*translate=*/false));
  return records;
}

std::string EncodeLog(uint64_t epoch, const std::vector<LogRecord>& records) {
  std::string bytes = EncodeChangelogHeader(epoch);
  for (const LogRecord& record : records) bytes += EncodeRecord(record);
  return bytes;
}

TEST(ChangelogCodecTest, RoundTripsEveryRecordAndUpdateKind) {
  const std::vector<LogRecord> records = EveryKindRecords();
  const std::string bytes = EncodeLog(42, records);
  std::string error;
  const auto contents = ReadChangelog(bytes, &error);
  ASSERT_TRUE(contents.has_value()) << error;
  EXPECT_EQ(contents->epoch, 42u);
  EXPECT_TRUE(contents->clean);
  EXPECT_EQ(contents->valid_bytes, bytes.size());
  ASSERT_EQ(contents->records.size(), records.size());
  for (std::size_t i = 0; i < records.size(); ++i) {
    EXPECT_EQ(contents->records[i], records[i]) << "record " << i;
  }
}

TEST(ChangelogCodecTest, EveryPrefixRecoversExactlyTheWholeRecords) {
  const std::vector<LogRecord> records = EveryKindRecords();
  const std::string bytes = EncodeLog(7, records);
  const std::string header = EncodeChangelogHeader(7);

  // Map byte position -> number of records that end at or before it.
  std::vector<std::size_t> boundaries;
  {
    std::string so_far = header;
    for (const LogRecord& record : records) {
      so_far += EncodeRecord(record);
      boundaries.push_back(so_far.size());
    }
  }
  for (std::size_t len = 0; len <= bytes.size(); ++len) {
    std::string error;
    const auto contents = ReadChangelog(bytes.substr(0, len), &error);
    if (len < header.size()) {
      EXPECT_FALSE(contents.has_value()) << "header prefix " << len;
      continue;
    }
    ASSERT_TRUE(contents.has_value()) << "len=" << len << ": " << error;
    std::size_t whole = 0;
    while (whole < boundaries.size() && boundaries[whole] <= len) ++whole;
    ASSERT_EQ(contents->records.size(), whole) << "len=" << len;
    const bool at_boundary =
        len == header.size() || (whole > 0 && boundaries[whole - 1] == len);
    EXPECT_EQ(contents->clean, at_boundary) << "len=" << len;
    for (std::size_t i = 0; i < whole; ++i) {
      EXPECT_EQ(contents->records[i], records[i]);
    }
  }
}

// The mutation-fuzz bar, mirroring fuzz_validate_test.cc: no single
// corrupted byte may yield a clean parse of the original records. A
// mutation may still parse (e.g. a flipped bit inside the torn-tail
// region just shortens the prefix) — what it must never do is
// silently round-trip as if nothing happened.
TEST(ChangelogCodecTest, EveryOneByteMutationIsDetected) {
  const std::vector<LogRecord> records = EveryKindRecords();
  const std::string bytes = EncodeLog(3, records);
  Rng rng(4242);
  for (std::size_t at = 0; at < bytes.size(); ++at) {
    // One deterministic flip plus one random non-zero xor per offset.
    for (const uint8_t mask :
         {uint8_t{0x01}, static_cast<uint8_t>(1 + rng.UniformInt(255))}) {
      std::string mutated = bytes;
      mutated[at] = static_cast<char>(mutated[at] ^ mask);
      std::string error;
      const auto contents = ReadChangelog(mutated, &error);
      const bool clean_identical =
          contents.has_value() && contents->clean &&
          contents->records == records && contents->epoch == 3u;
      EXPECT_FALSE(clean_identical)
          << "mutation at byte " << at << " xor " << int{mask}
          << " went unnoticed";
    }
  }
}

// Version 2 stores the kCreate config as an InstanceSpec; a version-1
// log (intact header, correct checksum) is refused by name rather than
// misparsed.
TEST(ChangelogCodecTest, PreviousFormatVersionIsRefused) {
  ASSERT_EQ(kChangelogVersion, 2u);
  std::string covered;
  PutU32(&covered, 1);
  PutU64(&covered, /*epoch=*/1);
  std::string bytes = "MSPWAL01" + covered;
  PutU64(&bytes, Fnv1a(covered));
  std::string error;
  EXPECT_FALSE(ReadChangelog(bytes, &error).has_value());
  EXPECT_EQ(error, "unsupported changelog version 1");
}

TEST(ChangelogCodecTest, RejectsAlienMagicAndVersionAndGiantRecords) {
  std::string error;
  EXPECT_FALSE(ReadChangelog("", &error).has_value());
  EXPECT_FALSE(ReadChangelog("short", &error).has_value());
  std::string alien = EncodeLog(1, EveryKindRecords());
  alien.replace(0, 8, "NOTMYLOG");
  EXPECT_FALSE(ReadChangelog(alien, &error).has_value());
  EXPECT_NE(error.find("magic"), std::string::npos);

  // A record claiming a giant payload must not trigger the allocation.
  std::string giant = EncodeChangelogHeader(1);
  std::string frame;
  frame.push_back(char(0xff));
  frame.push_back(char(0xff));
  frame.push_back(char(0xff));
  frame.push_back(char(0x7f));
  frame.append(8 + 16, 'x');
  giant += frame;
  const auto contents = ReadChangelog(giant, &error);
  ASSERT_TRUE(contents.has_value());
  EXPECT_FALSE(contents->clean);
  EXPECT_TRUE(contents->records.empty());
}

TEST(ChangelogWriterTest, GroupCommitBatchesFsyncs) {
  MemFileSystem fs;
  ChangelogWriterOptions options;
  options.fsync_every_n = 4;
  std::string error;
  auto writer =
      ChangelogWriter::Create(&fs, "wal", 1, options, &error);
  ASSERT_NE(writer, nullptr) << error;
  EXPECT_EQ(writer->fsyncs(), 1u);  // header

  for (uint64_t i = 1; i <= 10; ++i) {
    ASSERT_TRUE(writer->Append(
        LogRecord::Event(RecordKind::kApplied, "k", i,
                         online::Update::Add(5)),
        &error))
        << error;
  }
  // Two full batches of 4 were committed; 2 records ride the cache.
  EXPECT_EQ(writer->appended_records(), 10u);
  EXPECT_EQ(writer->synced_records(), 8u);
  EXPECT_EQ(writer->fsyncs(), 3u);

  ASSERT_TRUE(writer->Sync(&error)) << error;
  EXPECT_EQ(writer->synced_records(), 10u);
  EXPECT_EQ(writer->fsyncs(), 4u);
  ASSERT_TRUE(writer->Sync(&error));  // nothing pending: no extra fsync
  EXPECT_EQ(writer->fsyncs(), 4u);
  EXPECT_EQ(fs.syncs_of("wal"), 4u);
}

TEST(ChangelogWriterTest, IntervalTimerForcesCommit) {
  MemFileSystem fs;
  uint64_t now = 1000;
  ChangelogWriterOptions options;
  options.fsync_every_n = 0;  // count never triggers
  options.fsync_interval_ms = 50;
  options.now_ms = [&now] { return now; };
  std::string error;
  auto writer = ChangelogWriter::Create(&fs, "wal", 1, options, &error);
  ASSERT_NE(writer, nullptr) << error;

  ASSERT_TRUE(writer->Append(LogRecord::Checkpoint("k", 0)));
  EXPECT_EQ(writer->synced_records(), 0u);
  now += 49;
  ASSERT_TRUE(writer->Append(LogRecord::Checkpoint("k", 0)));
  EXPECT_EQ(writer->synced_records(), 0u);
  now += 2;  // 51ms since the header sync
  ASSERT_TRUE(writer->Append(LogRecord::Checkpoint("k", 0)));
  EXPECT_EQ(writer->synced_records(), 3u);
}

TEST(ChangelogWriterTest, AckBarrierSurvivesPowerLoss) {
  MemFileSystem fs;
  ChangelogWriterOptions options;
  options.fsync_every_n = 0;
  std::string error;
  auto writer = ChangelogWriter::Create(&fs, "wal", 9, options, &error);
  ASSERT_NE(writer, nullptr) << error;
  for (uint64_t i = 1; i <= 6; ++i) {
    ASSERT_TRUE(writer->Append(LogRecord::Event(
        RecordKind::kApplied, "k", i, online::Update::Add(i))));
  }
  ASSERT_TRUE(writer->Sync(&error)) << error;  // the ack
  for (uint64_t i = 7; i <= 9; ++i) {
    ASSERT_TRUE(writer->Append(LogRecord::Event(
        RecordKind::kApplied, "k", i, online::Update::Add(i))));
  }
  fs.DropUnsynced();  // power loss before the next barrier

  const auto contents = ReadChangelog(fs.DurableContents("wal"), &error);
  ASSERT_TRUE(contents.has_value()) << error;
  EXPECT_EQ(contents->epoch, 9u);
  EXPECT_TRUE(contents->clean);  // fsync boundaries are record boundaries
  ASSERT_EQ(contents->records.size(), 6u);  // every acked record, no more
  for (uint64_t i = 1; i <= 6; ++i) {
    EXPECT_EQ(contents->records[i - 1].update.value, i);
  }
}

TEST(ChangelogWriterTest, InjectedCrashPoisonsTheWriter) {
  MemFileSystem mem;
  FaultyFs fs(&mem);
  ChangelogWriterOptions options;
  options.fsync_every_n = 1;
  std::string error;
  auto writer = ChangelogWriter::Create(&fs, "wal", 1, options, &error);
  ASSERT_NE(writer, nullptr) << error;
  ASSERT_TRUE(writer->Append(LogRecord::Checkpoint("k", 0), &error));

  fs.fault().write_budget = 10;  // the next frame dies mid-write
  EXPECT_FALSE(writer->Append(
      LogRecord::Event(RecordKind::kApplied, "k", 1,
                       online::Update::Add(3)),
      &error));
  EXPECT_TRUE(fs.fault().killed);
  // Poisoned: even with the fault lifted, nothing gets through.
  fs.fault().write_budget = -1;
  EXPECT_FALSE(writer->Append(LogRecord::Checkpoint("k", 1), &error));
  EXPECT_FALSE(writer->Sync(&error));
  EXPECT_NE(error.find("crash"), std::string::npos);

  // The torn file still yields the pre-crash prefix.
  const auto contents =
      ReadChangelog(mem.WrittenContents("wal"), &error);
  ASSERT_TRUE(contents.has_value()) << error;
  EXPECT_FALSE(contents->clean);
  EXPECT_EQ(contents->records.size(), 1u);
}

TEST(ManifestTest, RoundTripAndRejectsCorruption) {
  MemFileSystem fs;
  std::string error;
  ASSERT_TRUE(WriteManifest(&fs, "root", 5, &error)) << error;
  std::size_t shards = 0;
  ASSERT_TRUE(ReadManifest(&fs, "root", &shards, &error)) << error;
  EXPECT_EQ(shards, 5u);

  fs.CorruptFile("root/MANIFEST", "msp-wal-dir v1\nshards=banana\n");
  EXPECT_FALSE(ReadManifest(&fs, "root", &shards, &error));
  fs.CorruptFile("root/MANIFEST", "some other format");
  EXPECT_FALSE(ReadManifest(&fs, "root", &shards, &error));
  EXPECT_FALSE(ReadManifest(&fs, "missing", &shards, &error));
}

TEST(SeedTest, ResumeUpdatesPrimesTheTotalsCursor) {
  const std::vector<InputSize> sizes = wl::UniformSizes(20, 5, 40, 3);
  const auto instance = A2AInstance::Create(sizes, 100);
  ASSERT_TRUE(instance.has_value());
  const auto schema = SolveA2AAuto(*instance);
  ASSERT_TRUE(schema.has_value());

  online::OnlineConfig config;
  config.capacity = 100;
  config.policy_spec.name = "never";
  online::OnlineAssigner assigner(config);
  std::string error;
  ASSERT_TRUE(assigner.Seed(sizes, {}, *schema, /*validate=*/true, &error,
                            /*resume_updates=*/123))
      << error;
  EXPECT_EQ(assigner.totals().updates, 123u);
  EXPECT_EQ(assigner.totals().churn.inputs_moved, 0u);
  // The cursor only shifts accounting; the live schema still serves.
  EXPECT_TRUE(assigner.AddInput(25).applied);
  EXPECT_EQ(assigner.totals().updates, 124u);
}

TEST(SnapshotEpochTest, EpochRoundTripsAndIsChecksummed) {
  online::OnlineConfig config;
  config.capacity = 100;
  config.policy_spec.name = "never";
  online::OnlineAssigner assigner(config);
  ASSERT_TRUE(assigner.AddInput(30).applied);

  const std::string bytes =
      online::SnapshotCodec::Serialize(assigner, {}, /*epoch=*/77);
  std::string error;
  const auto restored = online::SnapshotCodec::Restore(bytes, &error);
  ASSERT_TRUE(restored.has_value()) << error;
  EXPECT_EQ(restored->epoch, 77u);

  // The epoch lives inside the checksummed payload: flipping it must
  // not produce a valid snapshot with a different epoch (that would
  // defeat stale-pair detection).
  bool accepted_with_other_epoch = false;
  for (std::size_t at = 0; at < bytes.size(); ++at) {
    std::string mutated = bytes;
    mutated[at] = static_cast<char>(mutated[at] ^ 0x04);
    const auto again = online::SnapshotCodec::Restore(mutated, &error);
    if (again.has_value() && again->epoch != 77u) {
      accepted_with_other_epoch = true;
    }
  }
  EXPECT_FALSE(accepted_with_other_epoch);
}

// ---------------------------------------------------------------------
// ShardWal: rotation protocol and recovery of every crash state.

// Writes `contents` as the durable image of `path`.
void PutFile(MemFileSystem* fs, const std::string& path,
             std::string contents) {
  fs->CorruptFile(path, std::move(contents));
}

struct WalRun {
  std::unique_ptr<MemFileSystem> fs;
  StateFingerprint final;            // live state when the run ended
  std::string wal1;                  // bytes of wal.1 before rotation
  std::string wal2_header;           // wal.2 right after rotation
  std::string snap2;                 // snap.2 right after rotation
};

// Plays `events` records of a mixed trace through a fresh ShardWal,
// rotating once at the end, and captures every file image the
// crash-state tests recombine.
WalRun RotatedRun() {
  WalRun run;
  run.fs = std::make_unique<MemFileSystem>();
  WalOptions options;
  options.dir = "shard";
  options.fsync_every_n = 4;
  options.fs = run.fs.get();
  std::map<std::string, Stream> recovered;
  RecoveryStats stats;
  std::string error;
  auto wal = ShardWal::Open(options, options.dir, nullptr, &recovered,
                            &stats, &error);
  EXPECT_NE(wal, nullptr) << error;
  EXPECT_EQ(wal->epoch(), 1u);

  const wl::TraceConfig shape = SixShapes(60).front();
  const online::UpdateTrace trace = wl::GenerateTrace(shape);
  const online::InstanceSpec spec =
      CrashSpec(trace.x2y, trace.initial_capacity);
  online::OnlineAssigner assigner(spec.ToOnlineConfig());
  std::vector<std::optional<InputId>> live_of_trace;
  uint64_t event_seq = 0;
  EXPECT_TRUE(wal->writer()->Append(LogRecord::Create("s", 0, spec, /*translate=*/true), &error))
      << error;
  for (const online::Update& raw : trace.updates) {
    online::Update update = raw;
    online::TraceIdTranslator translator(&live_of_trace);
    if (!translator.Translate(&update)) {
      EXPECT_TRUE(wal->writer()->Append(LogRecord::Event(
          RecordKind::kSkipped, "s", ++event_seq, update)));
      continue;
    }
    const online::UpdateResult result = assigner.ApplyDeferred(update);
    if (update.kind == online::UpdateKind::kAddInput) {
      translator.RecordAdd(result.applied ? result.new_id : std::nullopt);
    }
    EXPECT_TRUE(wal->writer()->Append(LogRecord::Event(
        result.applied ? RecordKind::kApplied : RecordKind::kRejected, "s",
        ++event_seq, update)));
    if (result.applied) {
      assigner.PolicyCheckpoint();
      EXPECT_TRUE(wal->writer()->Append(LogRecord::Checkpoint("s", event_seq)));
    }
  }
  EXPECT_TRUE(wal->Sync(&error)) << error;
  run.wal1 = run.fs->WrittenContents("shard/wal.1");
  run.final = StateFingerprint::Of(assigner, event_seq, live_of_trace);

  std::vector<ImageEntry> entries;
  ImageEntry entry;
  entry.key = "s";
  entry.translate = true;
  online::ReplayCursor cursor;
  cursor.next_event = event_seq;
  cursor.live_of_trace = live_of_trace;
  entry.snapshot = online::SnapshotCodec::Serialize(assigner, cursor,
                                                    wal->epoch() + 1);
  entries.push_back(std::move(entry));
  EXPECT_TRUE(wal->Rotate(entries, &error)) << error;
  EXPECT_EQ(wal->epoch(), 2u);
  EXPECT_EQ(wal->rotations(), 1u);
  run.wal2_header = run.fs->WrittenContents("shard/wal.2");
  run.snap2 = run.fs->WrittenContents("shard/snap.2");
  return run;
}

// Recovers `fs` and expects exactly the run's final state back.
void ExpectRecovers(MemFileSystem* fs, const StateFingerprint& want,
                    uint64_t want_snapshot_epoch) {
  WalOptions options;
  options.dir = "shard";
  options.recover = true;
  options.fs = fs;
  std::map<std::string, Stream> recovered;
  RecoveryStats stats;
  std::string error;
  auto wal = ShardWal::Open(options, options.dir, nullptr, &recovered,
                            &stats, &error);
  ASSERT_NE(wal, nullptr) << error;
  ASSERT_EQ(recovered.size(), 1u);
  const Stream& stream = recovered.at("s");
  EXPECT_EQ(StateFingerprint::Of(stream),
            want);
  EXPECT_EQ(stats.snapshot_epoch, want_snapshot_epoch);
  EXPECT_TRUE(stream.assigner().ValidateNow());
}

TEST(ShardWalTest, RotationDeletesOldEpochAndRecovers) {
  WalRun run = RotatedRun();
  EXPECT_FALSE(run.fs->FileExists("shard/wal.1"));
  EXPECT_FALSE(run.fs->FileExists("shard/snap.1"));
  EXPECT_FALSE(run.fs->FileExists("shard/snap.tmp"));
  EXPECT_TRUE(run.fs->FileExists("shard/wal.2"));
  EXPECT_TRUE(run.fs->FileExists("shard/snap.2"));
  ExpectRecovers(run.fs.get(), run.final, /*want_snapshot_epoch=*/2);
}

// A crash after EVERY rotation protocol step leaves a recoverable
// directory with the exact pre-crash state.
TEST(ShardWalTest, EveryRotationCrashStateRecovers) {
  const WalRun run = RotatedRun();

  {  // After step 1: new changelog header exists, snapshot not yet.
    SCOPED_TRACE("crash after step 1 (wal.2 header created)");
    MemFileSystem fs;
    fs.CreateDirs("shard");
    PutFile(&fs, "shard/wal.1", run.wal1);
    PutFile(&fs, "shard/wal.2", run.wal2_header);
    ExpectRecovers(&fs, run.final, /*want_snapshot_epoch=*/0);
  }
  {  // Step 2 died mid-image: snap.tmp exists, never renamed.
    SCOPED_TRACE("crash mid step 2 (snap.tmp in flight)");
    MemFileSystem fs;
    fs.CreateDirs("shard");
    PutFile(&fs, "shard/wal.1", run.wal1);
    PutFile(&fs, "shard/wal.2", run.wal2_header);
    PutFile(&fs, "shard/snap.tmp",
            run.snap2.substr(0, run.snap2.size() / 2));
    ExpectRecovers(&fs, run.final, /*want_snapshot_epoch=*/0);
  }
  {  // After step 2: snapshot renamed, old epoch not yet deleted.
    SCOPED_TRACE("crash after step 2 (snap.2 durable, wal.1 lingers)");
    MemFileSystem fs;
    fs.CreateDirs("shard");
    PutFile(&fs, "shard/wal.1", run.wal1);
    PutFile(&fs, "shard/wal.2", run.wal2_header);
    PutFile(&fs, "shard/snap.2", run.snap2);
    ExpectRecovers(&fs, run.final, /*want_snapshot_epoch=*/2);
  }
  {  // Mid step 4: wal.1 deleted, snap.1 would linger (none here) —
     // the final, clean state.
    SCOPED_TRACE("crash after step 4 (old epoch gone)");
    MemFileSystem fs;
    fs.CreateDirs("shard");
    PutFile(&fs, "shard/wal.2", run.wal2_header);
    PutFile(&fs, "shard/snap.2", run.snap2);
    ExpectRecovers(&fs, run.final, /*want_snapshot_epoch=*/2);
  }
  {  // Torn snap.2 (crashed during the rename's source write): the
     // image is undecodable and no older snapshot exists -> recovery
     // must fail loudly rather than serve half a shard.
    SCOPED_TRACE("undecodable snap.2, no fallback");
    MemFileSystem fs;
    fs.CreateDirs("shard");
    PutFile(&fs, "shard/snap.2", run.snap2.substr(0, 40));
    PutFile(&fs, "shard/wal.2", run.wal2_header);
    WalOptions options;
    options.dir = "shard";
    options.recover = true;
    options.fs = &fs;
    std::map<std::string, Stream> recovered;
    RecoveryStats stats;
    std::string error;
    EXPECT_EQ(ShardWal::Open(options, options.dir, nullptr, &recovered,
                             &stats, &error),
              nullptr);
    EXPECT_NE(error.find("no decodable"), std::string::npos) << error;
  }
}

TEST(ShardWalTest, StalePairIsRejected) {
  const WalRun run = RotatedRun();
  {  // Snapshot without its paired changelog: the log tail was lost.
    MemFileSystem fs;
    fs.CreateDirs("shard");
    PutFile(&fs, "shard/snap.2", run.snap2);
    WalOptions options;
    options.dir = "shard";
    options.recover = true;
    options.fs = &fs;
    std::map<std::string, Stream> recovered;
    RecoveryStats stats;
    std::string error;
    EXPECT_EQ(ShardWal::Open(options, options.dir, nullptr, &recovered,
                             &stats, &error),
              nullptr);
    EXPECT_NE(error.find("stale changelog"), std::string::npos) << error;
  }
  {  // A newer changelog with records but no pairing snapshot: the
     // snapshot that preceded those records was lost.
    MemFileSystem fs;
    fs.CreateDirs("shard");
    PutFile(&fs, "shard/wal.1", run.wal1);
    std::string wal2 = EncodeChangelogHeader(2);
    wal2 += EncodeRecord(LogRecord::Checkpoint("s", 0));
    PutFile(&fs, "shard/wal.2", wal2);
    WalOptions options;
    options.dir = "shard";
    options.recover = true;
    options.fs = &fs;
    std::map<std::string, Stream> recovered;
    RecoveryStats stats;
    std::string error;
    EXPECT_EQ(ShardWal::Open(options, options.dir, nullptr, &recovered,
                             &stats, &error),
              nullptr);
    EXPECT_NE(error.find("no snapshot pairs"), std::string::npos) << error;
  }
}

TEST(ShardWalTest, FreshModeRefusesDirtyDirectory) {
  MemFileSystem fs;
  fs.CreateDirs("shard");
  PutFile(&fs, "shard/wal.1", EncodeChangelogHeader(1));
  WalOptions options;
  options.dir = "shard";
  options.fs = &fs;
  std::map<std::string, Stream> recovered;
  RecoveryStats stats;
  std::string error;
  EXPECT_EQ(ShardWal::Open(options, options.dir, nullptr, &recovered,
                           &stats, &error),
            nullptr);
  EXPECT_NE(error.find("already holds"), std::string::npos) << error;
}

TEST(ShardWalTest, GenesisTornHeaderRecoversEmpty) {
  // Power died during the very first StartEpoch: wal.1 exists but its
  // header never became durable. Nothing was acked, so recovery must
  // produce an empty shard, not an error.
  MemFileSystem fs;
  fs.CreateDirs("shard");
  PutFile(&fs, "shard/wal.1", EncodeChangelogHeader(1).substr(0, 11));
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
  EXPECT_TRUE(recovered.empty());
  EXPECT_TRUE(stats.torn_tail);
}

TEST(ShardWalTest, WantsRotationHonorsThreshold) {
  MemFileSystem fs;
  WalOptions options;
  options.dir = "shard";
  options.rotate_every = 3;
  options.fs = &fs;
  std::map<std::string, Stream> recovered;
  RecoveryStats stats;
  std::string error;
  auto wal = ShardWal::Open(options, options.dir, nullptr, &recovered,
                            &stats, &error);
  ASSERT_NE(wal, nullptr) << error;
  EXPECT_FALSE(wal->WantsRotation());
  for (uint64_t i = 0; i < 3; ++i) {
    ASSERT_TRUE(wal->writer()->Append(LogRecord::Checkpoint("k", 0)));
  }
  EXPECT_TRUE(wal->WantsRotation());
  ASSERT_TRUE(wal->Rotate({}, &error)) << error;
  EXPECT_FALSE(wal->WantsRotation());
  EXPECT_EQ(wal->total_records(), 3u);  // lifetime counter spans epochs
}

}  // namespace
}  // namespace msp::durability
