// Tests for the one instance spec (online/spec.h):
//
//  * Validate() refuses every precondition a constructor would
//    otherwise enforce by aborting, NaN included;
//  * the spec codec round-trips every spec and refuses every
//    truncation and every out-of-range byte (a decoded spec is always
//    canonical: re-encoding it gives back exactly the decoded bytes);
//  * the update codec does the same for every update kind;
//  * the per-field recovery bar: for each spec field set off its
//    default in turn, create -> apply -> kill the changelog writer
//    (FaultyFs) -> recover -> continue, and snapshot -> restore ->
//    continue, both land on exactly the uninterrupted run's state,
//    counters and churn.

#include <cmath>
#include <cstdint>
#include <functional>
#include <limits>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "crash_harness.h"
#include "durability/changelog.h"
#include "durability/wal.h"
#include "gtest/gtest.h"
#include "online/assigner.h"
#include "online/snapshot.h"
#include "online/spec.h"
#include "online/trace.h"
#include "util/binary_io.h"
#include "util/fs.h"
#include "workload/updates.h"

namespace msp::online {
namespace {

using durability::StateFingerprint;

constexpr std::size_t kWindow = 4;

InstanceSpec ValidSpec() {
  InstanceSpec spec;
  spec.capacity = 100;
  return spec;
}

// A spec with every field off its default.
InstanceSpec EveryFieldSpec() {
  InstanceSpec spec;
  spec.x2y = true;
  spec.capacity = 12345;
  spec.policy.name = "every-n";
  spec.policy.reducer_drift = 1.75;
  spec.policy.comm_drift = 2.5;
  spec.policy.max_updates = 99;
  spec.policy.every_n = 17;
  spec.policy.cooldown = 5;
  spec.matching = DeltaMatching::kHungarian;
  spec.measure_matching_gap = true;
  spec.budget.window_updates = 32;
  spec.budget.bytes_per_window = 4096;
  spec.use_portfolio = true;
  spec.budget_ms = 0.25;
  spec.full_reassign_on_replan = true;
  return spec;
}

std::string Encode(const InstanceSpec& spec) {
  std::string bytes;
  PutSpec(&bytes, spec);
  return bytes;
}

bool Decode(std::string_view bytes, InstanceSpec* spec, std::string* error) {
  BinaryReader in(bytes);
  return GetSpec(&in, spec, error) && in.exhausted();
}

TEST(InstanceSpecTest, ValidateAcceptsBuildableSpecs) {
  EXPECT_EQ(ValidSpec().Validate(), "");
  EXPECT_EQ(EveryFieldSpec().Validate(), "");
  for (const char* name : {"drift", "never", "always", "every-n"}) {
    InstanceSpec spec = ValidSpec();
    spec.policy.name = name;
    EXPECT_EQ(spec.Validate(), "") << name;
  }
  // Parameters of a policy that is not selected are not constraints.
  InstanceSpec never = ValidSpec();
  never.policy.name = "never";
  never.policy.every_n = 0;
  never.policy.reducer_drift = 0.5;
  EXPECT_EQ(never.Validate(), "");
  InstanceSpec max_q = ValidSpec();
  max_q.capacity = kMaxCapacity;
  EXPECT_EQ(max_q.Validate(), "");
}

TEST(InstanceSpecTest, ValidateRefusesEveryConstructorPrecondition) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  const std::vector<std::pair<const char*, std::function<void(InstanceSpec*)>>>
      cases = {
          {"zero capacity", [](InstanceSpec* s) { s->capacity = 0; }},
          {"capacity above 10^18",
           [](InstanceSpec* s) { s->capacity = kMaxCapacity + 1; }},
          {"unknown policy", [](InstanceSpec* s) { s->policy.name = "x"; }},
          {"reducer_drift < 1",
           [](InstanceSpec* s) { s->policy.reducer_drift = 0.5; }},
          {"NaN reducer_drift",
           [nan](InstanceSpec* s) { s->policy.reducer_drift = nan; }},
          {"comm_drift < 1",
           [](InstanceSpec* s) { s->policy.comm_drift = 0.99; }},
          {"NaN comm_drift",
           [nan](InstanceSpec* s) { s->policy.comm_drift = nan; }},
          {"max_updates 0",
           [](InstanceSpec* s) { s->policy.max_updates = 0; }},
          {"every-n period 0",
           [](InstanceSpec* s) {
             s->policy.name = "every-n";
             s->policy.every_n = 0;
           }},
          {"matching out of range",
           [](InstanceSpec* s) {
             s->matching = static_cast<DeltaMatching>(7);
           }},
          {"negative budget_ms", [](InstanceSpec* s) { s->budget_ms = -1; }},
          {"NaN budget_ms", [nan](InstanceSpec* s) { s->budget_ms = nan; }},
          {"infinite budget_ms",
           [inf](InstanceSpec* s) { s->budget_ms = inf; }},
          {"budget window 0",
           [](InstanceSpec* s) {
             s->budget.bytes_per_window = 10;
             s->budget.window_updates = 0;
           }},
      };
  for (const auto& [name, mutate] : cases) {
    InstanceSpec spec = ValidSpec();
    mutate(&spec);
    EXPECT_NE(spec.Validate(), "") << name;
  }
}

TEST(InstanceSpecTest, ConfigConversionRoundTrips) {
  const InstanceSpec spec = EveryFieldSpec();
  const OnlineConfig config = spec.ToOnlineConfig();
  EXPECT_EQ(config.x2y, spec.x2y);
  EXPECT_EQ(config.capacity, spec.capacity);
  EXPECT_EQ(config.policy_spec, spec.policy);
  EXPECT_EQ(config.delta_matching, spec.matching);
  EXPECT_EQ(config.measure_matching_gap, spec.measure_matching_gap);
  EXPECT_EQ(config.plan_options.use_portfolio, spec.use_portfolio);
  EXPECT_EQ(config.plan_options.budget_ms, spec.budget_ms);
  EXPECT_EQ(config.full_reassign_on_replan, spec.full_reassign_on_replan);
  EXPECT_EQ(InstanceSpec::Of(config, spec.budget), spec);
}

TEST(SpecCodecTest, EverySpecRoundTrips) {
  std::vector<InstanceSpec> specs = {ValidSpec(), EveryFieldSpec()};
  for (const char* name : {"drift", "never", "always", "every-n"}) {
    for (const bool flag : {false, true}) {
      InstanceSpec spec = EveryFieldSpec();
      spec.policy.name = name;
      spec.x2y = flag;
      spec.measure_matching_gap = !flag;
      spec.use_portfolio = flag;
      spec.full_reassign_on_replan = !flag;
      spec.matching = flag ? DeltaMatching::kGreedy
                           : DeltaMatching::kHungarian;
      spec.budget.bytes_per_window = flag ? 0 : 77;
      specs.push_back(spec);
    }
  }
  InstanceSpec extreme = EveryFieldSpec();
  extreme.capacity = kMaxCapacity;
  extreme.policy.reducer_drift = std::numeric_limits<double>::infinity();
  extreme.policy.max_updates = UINT64_MAX;
  extreme.policy.cooldown = UINT64_MAX;
  specs.push_back(extreme);
  for (const InstanceSpec& spec : specs) {
    ASSERT_EQ(spec.Validate(), "");
    InstanceSpec decoded;
    std::string error;
    ASSERT_TRUE(Decode(Encode(spec), &decoded, &error)) << error;
    EXPECT_EQ(decoded, spec);
  }
}

TEST(SpecCodecTest, EveryTruncationIsRefused) {
  const std::string bytes = Encode(EveryFieldSpec());
  for (std::size_t len = 0; len < bytes.size(); ++len) {
    InstanceSpec decoded;
    std::string error;
    BinaryReader in(std::string_view(bytes).substr(0, len));
    EXPECT_FALSE(GetSpec(&in, &decoded, &error)) << "len=" << len;
    EXPECT_NE(error, "") << "len=" << len;
  }
}

// No byte value the encoder never writes may decode: any mutation
// either is refused or decodes to a valid spec whose encoding is the
// mutated bytes themselves (so nothing is silently normalized away).
TEST(SpecCodecTest, EveryOutOfRangeByteIsRefused) {
  for (const InstanceSpec& base : {ValidSpec(), EveryFieldSpec()}) {
    const std::string bytes = Encode(base);
    for (std::size_t pos = 0; pos < bytes.size(); ++pos) {
      for (int value = 0; value < 256; ++value) {
        std::string mutated = bytes;
        mutated[pos] = static_cast<char>(value);
        InstanceSpec decoded;
        std::string error;
        if (!Decode(mutated, &decoded, &error)) continue;
        ASSERT_EQ(decoded.Validate(), "") << "pos=" << pos;
        ASSERT_EQ(Encode(decoded), mutated)
            << "pos=" << pos << " value=" << value;
      }
    }
  }
  // The flag and enum bytes explicitly: x2y is the first byte, the
  // full_reassign flag the last.
  std::string bytes = Encode(ValidSpec());
  InstanceSpec decoded;
  std::string error;
  bytes.front() = 2;
  EXPECT_FALSE(Decode(bytes, &decoded, &error));
  EXPECT_NE(error.find("out of range"), std::string::npos) << error;
  bytes = Encode(ValidSpec());
  bytes.back() = 2;
  EXPECT_FALSE(Decode(bytes, &decoded, &error));
}

TEST(SpecCodecTest, InvalidSpecsAreRefusedAtDecode) {
  InstanceSpec bad = ValidSpec();
  bad.policy.reducer_drift = std::numeric_limits<double>::quiet_NaN();
  InstanceSpec decoded;
  std::string error;
  EXPECT_FALSE(Decode(Encode(bad), &decoded, &error));
  EXPECT_NE(error.find("invalid instance spec"), std::string::npos) << error;
  bad = ValidSpec();
  bad.capacity = 2'000'000'000'000'000'000;
  EXPECT_FALSE(Decode(Encode(bad), &decoded, &error));
}

TEST(UpdateCodecTest, RoundTripsEveryKindAndRefusesBadBytes) {
  const std::vector<Update> updates = {
      Update::Add(30), Update::Add(11, Side::kY), Update::Remove(77),
      Update::Resize(3, 900), Update::SetCapacity(kMaxCapacity)};
  for (const Update& update : updates) {
    std::string bytes;
    PutUpdate(&bytes, update);
    ASSERT_EQ(bytes.size(), 14u);
    Update decoded;
    std::string error;
    BinaryReader in(bytes);
    ASSERT_TRUE(GetUpdate(&in, &decoded, &error)) << error;
    EXPECT_TRUE(in.exhausted());
    EXPECT_EQ(decoded, update);
    for (std::size_t len = 0; len < bytes.size(); ++len) {
      BinaryReader torn(std::string_view(bytes).substr(0, len));
      EXPECT_FALSE(GetUpdate(&torn, &decoded, &error));
    }
    for (const std::size_t pos : {std::size_t{0}, std::size_t{1}}) {
      std::string bad = bytes;
      bad[pos] = static_cast<char>(pos == 0 ? 4 : 2);  // kind, side
      BinaryReader in_bad(bad);
      EXPECT_FALSE(GetUpdate(&in_bad, &decoded, &error));
    }
  }
}

// --- per-field recovery -------------------------------------------------

// The base spec of the recovery cases. Communication drift is the
// binding trigger (reducer drift is loose), so on the trace below the
// deploy matching shows in the churn and the measured matching gap,
// which widens the communication bar, shifts re-plan timing.
InstanceSpec RecoveryBase(bool x2y, InputSize capacity) {
  InstanceSpec spec;
  spec.x2y = x2y;
  spec.capacity = capacity;
  spec.policy.reducer_drift = 3.0;
  spec.policy.comm_drift = 1.65;
  return spec;
}

struct FieldCase {
  std::string name;
  std::function<void(InstanceSpec*)> set;
};

// Each spec field set off its default in turn. Budgets wrap the
// assigner and are refused with a WAL and in snapshots (tested in the
// serving, RPC and CLI suites), so they are not among the cases.
std::vector<FieldCase> OffDefaultFields() {
  return {
      {"x2y", [](InstanceSpec* s) { s->x2y = true; }},
      {"matching=hungarian",
       [](InstanceSpec* s) { s->matching = DeltaMatching::kHungarian; }},
      {"measure_matching_gap",
       [](InstanceSpec* s) { s->measure_matching_gap = true; }},
      {"use_portfolio", [](InstanceSpec* s) { s->use_portfolio = true; }},
      {"budget_ms", [](InstanceSpec* s) { s->budget_ms = 0.5; }},
      {"full_reassign_on_replan",
       [](InstanceSpec* s) { s->full_reassign_on_replan = true; }},
      {"policy=never", [](InstanceSpec* s) { s->policy.name = "never"; }},
      {"policy=always", [](InstanceSpec* s) { s->policy.name = "always"; }},
      {"policy=every-n", [](InstanceSpec* s) { s->policy.name = "every-n"; }},
      {"reducer_drift", [](InstanceSpec* s) { s->policy.reducer_drift = 1.2; }},
      {"comm_drift", [](InstanceSpec* s) { s->policy.comm_drift = 1.2; }},
      {"max_updates", [](InstanceSpec* s) { s->policy.max_updates = 9; }},
      {"every_n",
       [](InstanceSpec* s) {
         s->policy.name = "every-n";
         s->policy.every_n = 7;
       }},
      {"cooldown", [](InstanceSpec* s) { s->policy.cooldown = 6; }},
  };
}

UpdateTrace RecoveryTrace(bool x2y) {
  wl::TraceConfig config;
  config.x2y = x2y;
  config.initial_inputs = 30;
  config.steps = 200;
  config.capacity = 100;
  // A seed on which both matching fields change the final state; see
  // TheTraceIsSensitiveToMatchingAndGap.
  config.seed = 14;
  return wl::GenerateTrace(config);
}

// One instance driven exactly like a serving shard drives it, without
// logging: translate trace ids, repair, decide once per full window.
// The decision is also taken *before* an event whose window filled
// earlier — a no-op on an uninterrupted stream, and what a resumed
// stream owes when a crash landed between an event record and its
// checkpoint record.
struct Driver {
  explicit Driver(std::unique_ptr<OnlineAssigner> resumed,
                  std::vector<std::optional<InputId>> translation = {},
                  uint64_t next_event = 0)
      : Driver(resumed.get(), std::move(translation), next_event) {
    owned = std::move(resumed);
  }
  /// Drives an assigner owned elsewhere (a recovered stream's).
  Driver(OnlineAssigner* resumed,
         std::vector<std::optional<InputId>> translation,
         uint64_t next_event)
      : assigner(resumed),
        live_of_trace(std::move(translation)),
        event_seq(next_event) {}

  std::unique_ptr<OnlineAssigner> owned;
  OnlineAssigner* assigner = nullptr;
  std::vector<std::optional<InputId>> live_of_trace;
  uint64_t event_seq = 0;

  void Decide() {
    if (assigner->pending_decision_updates() >= kWindow) {
      assigner->PolicyCheckpoint();
    }
  }

  void Run(const UpdateTrace& trace, std::size_t end) {
    for (; event_seq < end; ++event_seq) {
      Decide();
      Update update = trace.updates[event_seq];
      TraceIdTranslator translator(&live_of_trace);
      if (!translator.Translate(&update)) continue;
      const UpdateResult result = assigner->ApplyDeferred(update);
      if (update.kind == UpdateKind::kAddInput) {
        translator.RecordAdd(result.applied ? result.new_id : std::nullopt);
      }
      Decide();
    }
  }

  void Finish(const UpdateTrace& trace) {
    Run(trace, trace.updates.size());
    if (assigner->pending_decision_updates() > 0) {
      assigner->PolicyCheckpoint();
    }
  }

  StateFingerprint Fingerprint() const {
    return StateFingerprint::Of(*assigner, event_seq, live_of_trace);
  }
};

StateFingerprint Uninterrupted(const InstanceSpec& spec,
                               const UpdateTrace& trace) {
  Driver driver(std::make_unique<OnlineAssigner>(spec.ToOnlineConfig()));
  driver.Finish(trace);
  return driver.Fingerprint();
}

// Bytes of the full changelog of `spec` over `trace`.
uint64_t FullLogBytes(const InstanceSpec& spec, const UpdateTrace& trace) {
  MemFileSystem fs;
  std::string error;
  auto writer = durability::ChangelogWriter::Create(&fs, "wal", 1, {}, &error);
  EXPECT_NE(writer, nullptr) << error;
  durability::LoggedStream stream("s", spec, writer.get());
  for (const Update& update : trace.updates) stream.Apply(update, kWindow);
  return writer->bytes_appended();
}

TEST(SpecRecoveryTest, TheTraceIsSensitiveToMatchingAndGap) {
  // Guards the recovery cases below: a recovery that dropped either
  // field would land on a different state, not on the same one by luck.
  const UpdateTrace trace = RecoveryTrace(false);
  const InstanceSpec base = RecoveryBase(false, trace.initial_capacity);
  const StateFingerprint plain = Uninterrupted(base, trace);
  InstanceSpec hungarian = base;
  hungarian.matching = DeltaMatching::kHungarian;
  EXPECT_NE(Uninterrupted(hungarian, trace).churn.bytes_moved,
            plain.churn.bytes_moved);
  InstanceSpec gap = base;
  gap.measure_matching_gap = true;
  EXPECT_NE(Uninterrupted(gap, trace), plain);
}

TEST(SpecRecoveryTest, WalRecoveryKeepsEveryField) {
  for (const FieldCase& field : OffDefaultFields()) {
    InstanceSpec probe = RecoveryBase(false, 100);
    field.set(&probe);
    const UpdateTrace trace = RecoveryTrace(probe.x2y);
    InstanceSpec spec = RecoveryBase(probe.x2y, trace.initial_capacity);
    field.set(&spec);
    ASSERT_EQ(spec.Validate(), "") << field.name;
    const StateFingerprint want = Uninterrupted(spec, trace);
    const uint64_t full = FullLogBytes(spec, trace);

    for (const uint64_t kill : {full / 3, full / 2, 2 * full / 3}) {
      SCOPED_TRACE(field.name + ", killed at byte " + std::to_string(kill));
      MemFileSystem mem;
      durability::FaultyFs fs(&mem);
      durability::ChangelogWriterOptions options;
      options.fsync_every_n = 1;
      std::string error;
      auto writer =
          durability::ChangelogWriter::Create(&fs, "wal", 1, options, &error);
      ASSERT_NE(writer, nullptr) << error;
      fs.fault().write_budget = static_cast<int64_t>(kill);
      durability::LoggedStream stream("s", spec, writer.get());
      for (const Update& update : trace.updates) {
        stream.Apply(update, kWindow);
        if (stream.wal_failed()) break;
      }
      ASSERT_TRUE(fs.fault().killed);

      const auto contents =
          durability::ReadChangelog(mem.WrittenContents("wal"), &error);
      ASSERT_TRUE(contents.has_value()) << error;
      std::map<std::string, durability::Stream> streams;
      ASSERT_TRUE(durability::ReplayRecords(contents->records, &streams,
                                            nullptr, nullptr, &error))
          << error;
      durability::Stream& recovered = streams.at("s");
      EXPECT_EQ(InstanceSpec::Of(recovered.assigner().config()), spec);
      EXPECT_TRUE(recovered.translate());

      Driver driver(&recovered.assigner(), recovered.cursor().live_of_trace,
                    recovered.cursor().next_event);
      driver.Finish(trace);
      EXPECT_EQ(driver.Fingerprint(), want);
      EXPECT_EQ(driver.assigner->totals().churn.bytes_moved,
                want.churn.bytes_moved);
    }
  }
}

TEST(SpecRecoveryTest, SnapshotRestoreKeepsEveryField) {
  for (const FieldCase& field : OffDefaultFields()) {
    InstanceSpec probe = RecoveryBase(false, 100);
    field.set(&probe);
    const UpdateTrace trace = RecoveryTrace(probe.x2y);
    InstanceSpec spec = RecoveryBase(probe.x2y, trace.initial_capacity);
    field.set(&spec);
    const StateFingerprint want = Uninterrupted(spec, trace);

    for (const std::size_t cut :
         {trace.updates.size() / 3, trace.updates.size() / 2 + 1}) {
      SCOPED_TRACE(field.name + ", cut at event " + std::to_string(cut));
      Driver live(std::make_unique<OnlineAssigner>(spec.ToOnlineConfig()));
      live.Run(trace, cut);
      ReplayCursor cursor;
      cursor.next_event = live.event_seq;
      cursor.live_of_trace = live.live_of_trace;
      std::string error;
      auto restored = SnapshotCodec::Restore(
          SnapshotCodec::Serialize(*live.assigner, cursor), &error);
      ASSERT_TRUE(restored.has_value()) << error;
      EXPECT_EQ(InstanceSpec::Of(restored->assigner->config()), spec);

      Driver resumed(std::move(restored->assigner),
                     std::move(restored->cursor.live_of_trace),
                     restored->cursor.next_event);
      resumed.Finish(trace);
      EXPECT_EQ(resumed.Fingerprint(), want);
      EXPECT_EQ(resumed.assigner->totals().churn.bytes_moved,
                want.churn.bytes_moved);
    }
  }
}

}  // namespace
}  // namespace msp::online
