// Snapshot / restore tests.
//
// The failover acceptance bar: on every differential trace shape, for
// several cut points (including mid-batch-window cuts), snapshot ->
// restore -> continue-replay must produce the *bit-identical* final
// schema and churn counters of an uninterrupted replay. Plus format
// hardening: truncated, corrupted, and alien files are rejected with
// an error, never a crash or a bad assigner.

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/a2a.h"
#include "core/instance.h"
#include "core/schema_io.h"
#include "gtest/gtest.h"
#include "online/assigner.h"
#include "online/snapshot.h"
#include "online/spec.h"
#include "online/trace.h"
#include "workload/sizes.h"
#include "workload/updates.h"

namespace msp::online {
namespace {

UpdateTrace ShapeTrace(bool x2y, uint64_t seed) {
  wl::TraceConfig config;
  config.x2y = x2y;
  config.initial_inputs = 30;
  config.steps = 220;
  config.capacity = 100;
  config.lo = 2;
  config.hi = 40;
  config.seed = seed;
  return wl::GenerateTrace(config);
}

OnlineConfig DriftConfig(const UpdateTrace& trace) {
  OnlineConfig config;
  config.x2y = trace.x2y;
  config.capacity = trace.initial_capacity;
  config.policy_spec.name = "drift";
  config.policy_spec.reducer_drift = 1.4;
  config.policy_spec.comm_drift = 2.0;
  config.policy_spec.max_updates = 64;
  config.policy_spec.cooldown = 8;
  // Replans must be deterministic for bit-identical continuation.
  config.plan_options.use_portfolio = false;
  return config;
}

// Replays trace events [cursor->next_event, end) with the same window
// semantics the CLI and the serving shard use: checkpoint when the
// assigner's pending count reaches `window`, never on a cut.
void ReplayRange(const UpdateTrace& trace, std::size_t end,
                 std::size_t window, OnlineAssigner* assigner,
                 ReplayCursor* cursor) {
  while (cursor->next_event < end) {
    Update update = trace.updates[cursor->next_event];
    ++cursor->next_event;
    if (update.kind == UpdateKind::kRemoveInput ||
        update.kind == UpdateKind::kResizeInput) {
      ASSERT_LT(update.id, cursor->live_of_trace.size());
      ASSERT_TRUE(cursor->live_of_trace[update.id].has_value());
      update.id = *cursor->live_of_trace[update.id];
    }
    const UpdateResult result = assigner->ApplyDeferred(update);
    if (update.kind == UpdateKind::kAddInput) {
      cursor->live_of_trace.push_back(result.applied ? result.new_id
                                                     : std::nullopt);
    }
    ASSERT_TRUE(result.applied) << result.error;
    if (assigner->pending_decision_updates() >= window) {
      assigner->PolicyCheckpoint();
    }
  }
}

void ExpectSameTotals(const OnlineTotals& a, const OnlineTotals& b) {
  EXPECT_EQ(a.updates, b.updates);
  EXPECT_EQ(a.rejected, b.rejected);
  EXPECT_EQ(a.repairs, b.repairs);
  EXPECT_EQ(a.replans, b.replans);
  EXPECT_EQ(a.churn.inputs_moved, b.churn.inputs_moved);
  EXPECT_EQ(a.churn.inputs_dropped, b.churn.inputs_dropped);
  EXPECT_EQ(a.churn.bytes_moved, b.churn.bytes_moved);
  EXPECT_EQ(a.churn.reducers_created, b.churn.reducers_created);
  EXPECT_EQ(a.churn.reducers_destroyed, b.churn.reducers_destroyed);
}

TEST(SnapshotTest, RoundTripPreservesEverything) {
  const UpdateTrace trace = ShapeTrace(false, 11);
  OnlineAssigner assigner(DriftConfig(trace));
  ReplayCursor cursor;
  ReplayRange(trace, 100, /*window=*/1, &assigner, &cursor);

  const std::string bytes = SnapshotCodec::Serialize(assigner, cursor);
  std::string error;
  auto restored = SnapshotCodec::Restore(bytes, &error);
  ASSERT_TRUE(restored.has_value()) << error;

  EXPECT_EQ(SchemaToText(restored->assigner->Schema()),
            SchemaToText(assigner.Schema()));
  EXPECT_EQ(restored->assigner->capacity(), assigner.capacity());
  EXPECT_EQ(restored->assigner->num_inputs(), assigner.num_inputs());
  EXPECT_EQ(restored->cursor, cursor);
  ExpectSameTotals(restored->assigner->totals(), assigner.totals());
  std::string oracle_error;
  EXPECT_TRUE(restored->assigner->ValidateNow(&oracle_error))
      << oracle_error;
  // The restored instance spec round-tripped.
  EXPECT_EQ(InstanceSpec::Of(restored->assigner->config()),
            InstanceSpec::Of(assigner.config()));
}

// The tentpole acceptance criterion: every differential trace shape,
// several cut points, both single-update and mid-window batched mode.
TEST(SnapshotTest, ContinuationIsBitIdenticalOnEveryShape) {
  const struct {
    bool x2y;
    uint64_t seed;
  } shapes[] = {{false, 11}, {false, 23}, {true, 12}, {true, 29}};
  for (const auto& shape : shapes) {
    const UpdateTrace trace = ShapeTrace(shape.x2y, shape.seed);
    for (const std::size_t window : {std::size_t{1}, std::size_t{8}}) {
      // Uninterrupted reference replay.
      OnlineAssigner reference(DriftConfig(trace));
      ReplayCursor reference_cursor;
      ReplayRange(trace, trace.updates.size(), window, &reference,
                  &reference_cursor);
      const std::string expected = SchemaToText(reference.Schema());

      for (const std::size_t cut :
           {std::size_t{1}, std::size_t{37}, trace.updates.size() / 2,
            trace.updates.size() - 1}) {
        SCOPED_TRACE("x2y=" + std::to_string(shape.x2y) + " seed=" +
                     std::to_string(shape.seed) + " window=" +
                     std::to_string(window) + " cut=" +
                     std::to_string(cut));
        OnlineAssigner first(DriftConfig(trace));
        ReplayCursor cursor;
        ReplayRange(trace, cut, window, &first, &cursor);
        const std::string bytes = SnapshotCodec::Serialize(first, cursor);

        std::string error;
        auto restored = SnapshotCodec::Restore(bytes, &error);
        ASSERT_TRUE(restored.has_value()) << error;
        ReplayRange(trace, trace.updates.size(), window,
                    restored->assigner.get(), &restored->cursor);

        EXPECT_EQ(SchemaToText(restored->assigner->Schema()), expected);
        ExpectSameTotals(restored->assigner->totals(), reference.totals());
        EXPECT_TRUE(restored->assigner->ValidateNow());
      }
    }
  }
}

TEST(SnapshotTest, RejectsTruncationAtEveryBoundary) {
  const UpdateTrace trace = ShapeTrace(true, 12);
  OnlineAssigner assigner(DriftConfig(trace));
  ReplayCursor cursor;
  ReplayRange(trace, 60, 1, &assigner, &cursor);
  const std::string bytes = SnapshotCodec::Serialize(assigner, cursor);

  // Every strict prefix must fail cleanly (checked at a byte stride to
  // keep the test fast; boundaries near the front are covered densely).
  for (std::size_t len = 0; len < bytes.size();
       len += (len < 64 ? 1 : 97)) {
    std::string error;
    EXPECT_FALSE(
        SnapshotCodec::Restore(bytes.substr(0, len), &error).has_value())
        << "prefix of " << len << " bytes was accepted";
    EXPECT_FALSE(error.empty());
  }
}

TEST(SnapshotTest, RejectsBitFlipsEverywhere) {
  const UpdateTrace trace = ShapeTrace(false, 23);
  OnlineAssigner assigner(DriftConfig(trace));
  ReplayCursor cursor;
  ReplayRange(trace, 60, 1, &assigner, &cursor);
  const std::string bytes = SnapshotCodec::Serialize(assigner, cursor);

  const std::string reference = SchemaToText(assigner.Schema());
  for (std::size_t at = 0; at < bytes.size();
       at += (at < 32 ? 1 : 61)) {
    std::string corrupted = bytes;
    corrupted[at] = static_cast<char>(corrupted[at] ^ 0x20);
    std::string error;
    const auto restored = SnapshotCodec::Restore(corrupted, &error);
    if (restored.has_value()) {
      // A flip that survives must have produced a byte-identical file
      // interpretation — impossible for the magic/checksum layout, so
      // fail loudly with the offset for debugging.
      ADD_FAILURE() << "bit flip at offset " << at << " was accepted";
    } else {
      EXPECT_FALSE(error.empty());
    }
  }
}

TEST(SnapshotTest, RejectsAlienAndVersionedFiles) {
  std::string error;
  EXPECT_FALSE(SnapshotCodec::Restore("", &error).has_value());
  EXPECT_FALSE(SnapshotCodec::Restore(
                   "this is long enough to parse but is no snapshot", &error)
                   .has_value());
  EXPECT_NE(error.find("magic"), std::string::npos);

  const UpdateTrace trace = ShapeTrace(false, 11);
  OnlineAssigner assigner(DriftConfig(trace));
  ReplayCursor cursor;
  ReplayRange(trace, 40, 1, &assigner, &cursor);
  std::string bytes = SnapshotCodec::Serialize(assigner, cursor);
  bytes[8] = 9;  // version field (little-endian u32 after the magic)
  EXPECT_FALSE(SnapshotCodec::Restore(bytes, &error).has_value());
  EXPECT_NE(error.find("version"), std::string::npos);

  // Trailing garbage breaks the framing.
  std::string padded = SnapshotCodec::Serialize(assigner, cursor) + "x";
  EXPECT_FALSE(SnapshotCodec::Restore(padded, &error).has_value());
}

// Version 3 stores the config as an InstanceSpec (plus the last
// matching gap); a version-2 file is refused by name.
TEST(SnapshotTest, PreviousFormatVersionIsRefused) {
  ASSERT_EQ(kSnapshotVersion, 3u);
  const UpdateTrace trace = ShapeTrace(false, 11);
  OnlineAssigner assigner(DriftConfig(trace));
  ReplayCursor cursor;
  ReplayRange(trace, 40, 1, &assigner, &cursor);
  std::string bytes = SnapshotCodec::Serialize(assigner, cursor);
  bytes[8] = 2;  // version field (little-endian u32 after the magic)
  std::string error;
  EXPECT_FALSE(SnapshotCodec::Restore(bytes, &error).has_value());
  EXPECT_EQ(error, "unsupported snapshot version 2");
}

TEST(SnapshotTest, FileRoundTripAndMissingFile) {
  const UpdateTrace trace = ShapeTrace(false, 11);
  OnlineAssigner assigner(DriftConfig(trace));
  ReplayCursor cursor;
  ReplayRange(trace, 80, 1, &assigner, &cursor);

  const std::string path =
      ::testing::TempDir() + "/msp_snapshot_test.snap";
  std::string error;
  ASSERT_TRUE(WriteSnapshotFile(path, assigner, cursor, &error)) << error;
  auto restored = ReadSnapshotFile(path, &error);
  ASSERT_TRUE(restored.has_value()) << error;
  EXPECT_EQ(SchemaToText(restored->assigner->Schema()),
            SchemaToText(assigner.Schema()));
  std::remove(path.c_str());

  EXPECT_FALSE(ReadSnapshotFile(path + ".missing", &error).has_value());
  EXPECT_NE(error.find("cannot open"), std::string::npos);
}

TEST(SnapshotTest, SeededAssignerSnapshotsAndRestores) {
  // Warm start from an offline plan, then snapshot the warm state.
  const std::vector<InputSize> sizes = wl::UniformSizes(60, 5, 40, 3);
  const auto instance = A2AInstance::Create(sizes, 100);
  ASSERT_TRUE(instance.has_value());
  const auto schema = SolveA2AAuto(*instance);
  ASSERT_TRUE(schema.has_value());

  OnlineConfig config;
  config.capacity = 100;
  config.policy_spec.name = "never";
  OnlineAssigner assigner(config);
  std::string error;
  ASSERT_TRUE(assigner.Seed(sizes, {}, *schema, /*validate=*/true, &error))
      << error;
  EXPECT_EQ(assigner.num_inputs(), sizes.size());
  EXPECT_EQ(assigner.totals().churn.inputs_moved, 0u);  // no churn charged

  const std::string bytes = SnapshotCodec::Serialize(assigner);
  auto restored = SnapshotCodec::Restore(bytes, &error);
  ASSERT_TRUE(restored.has_value()) << error;
  EXPECT_EQ(SchemaToText(restored->assigner->Schema()),
            SchemaToText(assigner.Schema()));
  // The restored assigner keeps serving updates.
  EXPECT_TRUE(restored->assigner->AddInput(25).applied);
  EXPECT_TRUE(restored->assigner->ValidateNow());
}

TEST(SnapshotTest, SeedRejectsBadInput) {
  OnlineConfig config;
  config.capacity = 100;
  config.policy_spec.name = "never";
  OnlineAssigner assigner(config);
  std::string error;
  MappingSchema schema;
  EXPECT_FALSE(assigner.Seed({}, {}, schema, true, &error));
  EXPECT_FALSE(assigner.Seed({50, 200}, {}, schema, true, &error));
  schema.reducers = {{0, 7}};
  EXPECT_FALSE(assigner.Seed({50, 40}, {}, schema, true, &error));
  schema.reducers = {{0, 0}};
  EXPECT_FALSE(assigner.Seed({50, 40}, {}, schema, true, &error));
  // Oracle catches an uncovered pair.
  schema.reducers = {};
  EXPECT_FALSE(assigner.Seed({50, 40}, {}, schema, true, &error));
  EXPECT_NE(error.find("invalid"), std::string::npos);
  // The failed seeds left a pristine assigner behind.
  schema.reducers = {{0, 1}};
  EXPECT_TRUE(assigner.Seed({50, 40}, {}, schema, true, &error)) << error;
  EXPECT_TRUE(assigner.ValidateNow());
}

}  // namespace
}  // namespace msp::online
