// durability::Stream against the crash harness's LoggedStream, an
// independent hand-written copy of the translate → apply → log →
// checkpoint step: both must write byte-identical changelogs and land
// on the same state, for both instance kinds and every window size the
// hosts use. Replaying the Stream's log must land there too.

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "crash_harness.h"
#include "durability/changelog.h"
#include "durability/stream.h"
#include "gtest/gtest.h"
#include "online/trace.h"
#include "util/fs.h"
#include "workload/updates.h"

namespace msp::durability {
namespace {

struct Logged {
  std::string bytes;
  StateFingerprint final_state;
};

ChangelogWriterOptions Options() {
  ChangelogWriterOptions options;
  options.fsync_every_n = 8;
  return options;
}

Logged ViaHarness(const online::UpdateTrace& trace,
                  const online::InstanceSpec& spec, std::size_t window) {
  MemFileSystem fs;
  std::string error;
  auto writer = ChangelogWriter::Create(&fs, "wal", 1, Options(), &error);
  EXPECT_NE(writer, nullptr) << error;
  LoggedStream stream("s", spec, writer.get());
  for (const online::Update& update : trace.updates) {
    stream.Apply(update, window);
  }
  stream.FinalCheckpoint();
  EXPECT_TRUE(writer->Sync(&error)) << error;
  return {fs.WrittenContents("wal"),
          StateFingerprint::Of(stream.assigner(), stream.event_seq(),
                               stream.live_of_trace())};
}

Logged ViaStream(const online::UpdateTrace& trace,
                 const online::InstanceSpec& spec, std::size_t window) {
  MemFileSystem fs;
  std::string error;
  auto writer = ChangelogWriter::Create(&fs, "wal", 1, Options(), &error);
  EXPECT_NE(writer, nullptr) << error;
  Stream stream("s", spec.ToOnlineConfig(), /*translate=*/true);
  EXPECT_TRUE(stream.Create(writer.get(), &error)) << error;
  for (const online::Update& update : trace.updates) {
    const StepResult step = stream.Apply(update, window, writer.get());
    EXPECT_EQ(step.log_error, "");
  }
  EXPECT_TRUE(stream.Checkpoint(writer.get(), &error)) << error;
  EXPECT_TRUE(writer->Sync(&error)) << error;
  return {fs.WrittenContents("wal"), StateFingerprint::Of(stream)};
}

TEST(StreamTest, WritesTheHarnessChangelogByteForByte) {
  for (const wl::TraceConfig& shape : SixShapes(120)) {
    const online::UpdateTrace trace = wl::GenerateTrace(shape);
    const online::InstanceSpec spec =
        CrashSpec(trace.x2y, trace.initial_capacity);
    for (const std::size_t window : {0, 1, 4, 8}) {
      SCOPED_TRACE(std::string(trace.x2y ? "x2y" : "a2a") + " seed " +
                   std::to_string(shape.seed) + " window " +
                   std::to_string(window));
      const Logged want = ViaHarness(trace, spec, window);
      const Logged got = ViaStream(trace, spec, window);
      EXPECT_EQ(got.bytes, want.bytes);
      EXPECT_EQ(got.final_state, want.final_state);

      // The inverse step: replaying the log rebuilds the same stream.
      std::string error;
      const auto contents = ReadChangelog(got.bytes, &error);
      ASSERT_TRUE(contents.has_value()) << error;
      ASSERT_TRUE(contents->clean);
      std::map<std::string, Stream> streams;
      ReplayStats stats;
      ASSERT_TRUE(
          ReplayRecords(contents->records, &streams, nullptr, &stats, &error))
          << error;
      EXPECT_EQ(StateFingerprint::Of(streams.at("s")), want.final_state);
      EXPECT_EQ(stats.applied + stats.rejected + stats.skipped,
                trace.updates.size());
      EXPECT_EQ(streams.at("s").skipped(), stats.skipped);
    }
  }
}

TEST(StreamTest, CheckpointWithNothingPendingLogsNothing) {
  MemFileSystem fs;
  std::string error;
  auto writer = ChangelogWriter::Create(&fs, "wal", 1, Options(), &error);
  ASSERT_NE(writer, nullptr) << error;
  Stream stream("s", CrashSpec(false, 100).ToOnlineConfig(),
                /*translate=*/true);
  ASSERT_TRUE(stream.Create(writer.get(), &error)) << error;
  ASSERT_TRUE(stream.Checkpoint(writer.get(), &error)) << error;
  EXPECT_EQ(writer->appended_records(), 1u);  // the create alone

  // A window of 4 leaves three adds pending; the explicit checkpoint
  // decides and logs once, a second one finds nothing to decide.
  for (int i = 0; i < 3; ++i) {
    const StepResult step =
        stream.Apply(online::Update::Add(10), /*window=*/4, writer.get());
    EXPECT_EQ(step.kind, RecordKind::kApplied);
  }
  EXPECT_EQ(writer->appended_records(), 4u);
  ASSERT_TRUE(stream.Checkpoint(writer.get(), &error)) << error;
  ASSERT_TRUE(stream.Checkpoint(writer.get(), &error)) << error;
  EXPECT_EQ(writer->appended_records(), 5u);
  EXPECT_EQ(stream.assigner().totals().repairs +
                stream.assigner().totals().replans,
            1u);
}

TEST(StreamTest, SkipsAndRejectionsAdvanceTheCursor) {
  Stream stream("s", CrashSpec(false, 100).ToOnlineConfig(),
                /*translate=*/true);
  // Trace id 0 names no add yet: skipped, logged raw.
  StepResult step = stream.Apply(online::Update::Remove(0), 1, nullptr);
  EXPECT_EQ(step.kind, RecordKind::kSkipped);
  // Larger than q: rejected, and the add is remembered as rejected.
  step = stream.Apply(online::Update::Add(500), 1, nullptr);
  EXPECT_EQ(step.kind, RecordKind::kRejected);
  EXPECT_NE(step.reason, "");
  step = stream.Apply(online::Update::Remove(0), 1, nullptr);
  EXPECT_EQ(step.kind, RecordKind::kSkipped);
  step = stream.Apply(online::Update::Add(30), 1, nullptr);
  EXPECT_EQ(step.kind, RecordKind::kApplied);
  EXPECT_EQ(stream.cursor().next_event, 4u);
  EXPECT_EQ(stream.skipped(), 2u);
  ASSERT_EQ(stream.cursor().live_of_trace.size(), 2u);
  EXPECT_FALSE(stream.cursor().live_of_trace[0].has_value());
  EXPECT_EQ(stream.cursor().live_of_trace[1], InputId{0});
}

TEST(StreamTest, ImageRoundTripKeepsTheCursor) {
  Stream stream("k", CrashSpec(true, 100).ToOnlineConfig(),
                /*translate=*/true);
  const online::UpdateTrace trace = wl::GenerateTrace(SixShapes(40).at(1));
  for (const online::Update& update : trace.updates) {
    stream.Apply(update, 4, nullptr);
  }
  const ImageEntry entry = stream.ToImage(/*epoch=*/7);
  EXPECT_EQ(entry.key, "k");
  EXPECT_TRUE(entry.translate);
  uint64_t epoch = 0;
  std::string error;
  const auto back = Stream::FromImage(entry, nullptr, &epoch, &error);
  ASSERT_TRUE(back.has_value()) << error;
  EXPECT_EQ(epoch, 7u);
  EXPECT_EQ(back->key(), "k");
  EXPECT_TRUE(back->translate());
  EXPECT_EQ(StateFingerprint::Of(*back), StateFingerprint::Of(stream));
}

}  // namespace
}  // namespace msp::durability
