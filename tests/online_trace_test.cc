// Differential trace tests for the online assignment subsystem.
//
// The acceptance bar of the online layer: replaying >= 200 randomized
// update steps per problem shape,
//  (1) every intermediate schema held by OnlineAssigner passes the
//      ValidateA2A / ValidateX2Y oracle,
//  (2) incremental repair moves strictly fewer inputs in total than
//      the re-plan-every-update baseline on the same trace, and
//  (3) live reducer count stays within the drift policy's bound of a
//      fresh re-plan of the current instance.
// Plus a brute-force recount oracle for the pair-coverage counters, and
// round-trip and determinism tests for the trace format and generator.

#include <algorithm>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <utility>

#include "gtest/gtest.h"
#include "online/assigner.h"
#include "online/policy.h"
#include "online/trace.h"
#include "planner/service.h"
#include "workload/updates.h"

namespace msp::online {
namespace {

constexpr double kReducerDrift = 1.4;

wl::TraceConfig BaseTraceConfig(bool x2y, uint64_t seed) {
  wl::TraceConfig config;
  config.x2y = x2y;
  config.initial_inputs = 30;
  config.steps = 220;  // >= 200 randomized steps after the initial adds
  config.capacity = 100;
  config.lo = 2;
  config.hi = 40;
  config.seed = seed;
  return config;
}

OnlineConfig IncrementalConfig(bool x2y, InputSize capacity) {
  OnlineConfig config;
  config.x2y = x2y;
  config.capacity = capacity;
  config.policy =
      std::make_shared<DriftThresholdPolicy>(kReducerDrift, 2.0, 64);
  // Replans and the fresh-plan referee below must pick identical
  // schemas, so both use the deterministic auto dispatcher.
  config.plan_options.use_portfolio = false;
  return config;
}

OnlineConfig ReplanEveryUpdateConfig(bool x2y, InputSize capacity) {
  OnlineConfig config;
  config.x2y = x2y;
  config.capacity = capacity;
  config.policy = std::make_shared<AlwaysReplanPolicy>();
  // The baseline deploys each fresh plan from scratch — the offline
  // "just re-run the paper's algorithm" strategy.
  config.full_reassign_on_replan = true;
  config.plan_options.use_portfolio = false;
  return config;
}

void RunDifferentialTraceConfig(const wl::TraceConfig& config) {
  const bool x2y = config.x2y;
  const UpdateTrace trace = wl::GenerateTrace(config);
  ASSERT_GE(trace.updates.size(), 200u + 30u);

  OnlineAssigner incremental(
      IncrementalConfig(x2y, trace.initial_capacity));
  OnlineAssigner baseline(
      ReplanEveryUpdateConfig(x2y, trace.initial_capacity));

  std::size_t step = 0;
  for (const Update& update : trace.updates) {
    ++step;
    const UpdateResult inc = incremental.Apply(update);
    ASSERT_TRUE(inc.applied) << "step " << step << ": " << inc.error;
    const UpdateResult base = baseline.Apply(update);
    ASSERT_TRUE(base.applied) << "step " << step << ": " << base.error;

    // (1) Every intermediate schema passes the oracle.
    std::string error;
    ASSERT_TRUE(incremental.ValidateNow(&error))
        << "incremental invalid at step " << step << ": " << error;
    if (step % 25 == 0) {
      ASSERT_TRUE(baseline.ValidateNow(&error))
          << "baseline invalid at step " << step << ": " << error;
    }

    // (3) Reducer count within the drift bound of a fresh re-plan.
    if (step % 20 == 0) {
      const QualitySnapshot quality = incremental.Quality();
      if (quality.bounds_available) {
        // The baseline's schema *is* the fresh re-plan of the shared
        // current instance (it replanned this very step with the same
        // deterministic dispatcher).
        const uint64_t fresh = baseline.Schema().num_reducers();
        ASSERT_GT(fresh, 0u);
        EXPECT_LE(static_cast<double>(quality.live_reducers),
                  kReducerDrift * static_cast<double>(fresh) + 1e-9)
            << "drift bound broken at step " << step;
      }
    }
  }

  // (2) Incremental repair moves strictly fewer inputs in total.
  const OnlineTotals& inc_totals = incremental.totals();
  const OnlineTotals& base_totals = baseline.totals();
  EXPECT_LT(inc_totals.churn.inputs_moved, base_totals.churn.inputs_moved);
  EXPECT_LT(inc_totals.churn.bytes_moved, base_totals.churn.bytes_moved);
  EXPECT_GT(inc_totals.repairs, 0u);
  EXPECT_EQ(base_totals.replans, base_totals.updates);
  EXPECT_EQ(inc_totals.rejected, 0u) << "generated traces must be feasible";
  EXPECT_EQ(base_totals.rejected, 0u);
}

void RunDifferentialTrace(bool x2y, uint64_t seed) {
  RunDifferentialTraceConfig(BaseTraceConfig(x2y, seed));
}

TEST(OnlineTraceTest, DifferentialA2A) { RunDifferentialTrace(false, 11); }

TEST(OnlineTraceTest, DifferentialA2ASecondSeed) {
  RunDifferentialTrace(false, 23);
}

TEST(OnlineTraceTest, DifferentialX2Y) { RunDifferentialTrace(true, 12); }

TEST(OnlineTraceTest, DifferentialX2YSecondSeed) {
  RunDifferentialTrace(true, 29);
}

// The adversarial shapes join the differential matrix: validity after
// every step, churn strictly below replan-every, bounded drift.
TEST(OnlineTraceTest, DifferentialFlashCrowdA2A) {
  wl::TraceConfig config = BaseTraceConfig(false, 41);
  config.shape = wl::TraceShape::kFlashCrowd;
  RunDifferentialTraceConfig(config);
}

TEST(OnlineTraceTest, DifferentialFlashCrowdX2Y) {
  wl::TraceConfig config = BaseTraceConfig(true, 42);
  config.shape = wl::TraceShape::kFlashCrowd;
  RunDifferentialTraceConfig(config);
}

TEST(OnlineTraceTest, DifferentialCapacityOscillationA2A) {
  wl::TraceConfig config = BaseTraceConfig(false, 43);
  config.shape = wl::TraceShape::kCapacityOscillation;
  RunDifferentialTraceConfig(config);
}

TEST(OnlineTraceTest, DifferentialCapacityOscillationX2Y) {
  wl::TraceConfig config = BaseTraceConfig(true, 44);
  config.shape = wl::TraceShape::kCapacityOscillation;
  RunDifferentialTraceConfig(config);
}

wl::TraceConfig AdversarialStatsConfig(wl::TraceShape shape) {
  wl::TraceConfig config;
  config.shape = shape;
  config.initial_inputs = 20;
  config.steps = 200;
  config.capacity = 100;
  config.lo = 2;
  config.hi = 20;  // regular arrivals stay well below the q/2 bursts
  config.seed = 61;
  return config;
}

TEST(AdversarialTraceTest, FlashCrowdShapeStatisticsMatchSpec) {
  wl::TraceConfig config = AdversarialStatsConfig(
      wl::TraceShape::kFlashCrowd);
  config.burst_every = 40;
  config.burst_size = 12;
  const UpdateTrace trace = wl::GenerateTrace(config);
  // Bursts fire at steps 0, 40, 80, 120, 160: five full bursts of
  // near-q/2 arrivals. Regular arrivals draw at most hi = 20, so the
  // crowd is exactly the adds at 2q/5 and above.
  uint64_t crowd = 0;
  for (const Update& u : trace.updates) {
    EXPECT_NE(u.kind, UpdateKind::kSetCapacity)
        << "flash-crowd traces never retune";
    if (u.kind == UpdateKind::kAddInput && u.value >= 40) {
      ++crowd;
      EXPECT_LE(u.value, 50u) << "burst arrivals stay pairable";
    }
  }
  EXPECT_EQ(crowd, 5u * 12u);
}

TEST(AdversarialTraceTest, CapacityOscillationStatisticsMatchSpec) {
  wl::TraceConfig config = AdversarialStatsConfig(
      wl::TraceShape::kCapacityOscillation);
  config.osc_period = 25;
  config.osc_factor = 2.0;
  const UpdateTrace trace = wl::GenerateTrace(config);
  // Swings at steps 25, 50, ..., 175: seven retunes, alternating
  // shrink to q/2 (sizes stay <= 20, so the clamp never lifts it) and
  // grow back to q.
  std::vector<InputSize> swings;
  for (const Update& u : trace.updates) {
    if (u.kind == UpdateKind::kSetCapacity) swings.push_back(u.value);
  }
  ASSERT_EQ(swings.size(), 7u);
  for (std::size_t i = 0; i < swings.size(); ++i) {
    EXPECT_EQ(swings[i], i % 2 == 0 ? 50u : 100u) << "swing " << i;
  }
}

TEST(AdversarialTraceTest, AdversarialTracesAreDeterministicAndRoundTrip) {
  for (const wl::TraceShape shape :
       {wl::TraceShape::kFlashCrowd, wl::TraceShape::kCapacityOscillation}) {
    const wl::TraceConfig config = AdversarialStatsConfig(shape);
    const UpdateTrace trace = wl::GenerateTrace(config);
    EXPECT_EQ(wl::GenerateTrace(config), trace);
    std::string error;
    const auto parsed = TraceFromText(TraceToText(trace), &error);
    ASSERT_TRUE(parsed.has_value()) << error;
    EXPECT_EQ(*parsed, trace);
    wl::TraceConfig reseeded = config;
    reseeded.seed = config.seed + 1;
    EXPECT_NE(wl::GenerateTrace(reseeded), trace);
  }
}

// Feasibility by construction: an assigner replaying an adversarial
// trace rejects nothing and ends oracle-valid, for both problem
// shapes.
TEST(AdversarialTraceTest, AdversarialTracesAreFeasible) {
  for (const wl::TraceShape shape :
       {wl::TraceShape::kFlashCrowd, wl::TraceShape::kCapacityOscillation}) {
    for (const bool x2y : {false, true}) {
      wl::TraceConfig config = AdversarialStatsConfig(shape);
      config.x2y = x2y;
      const UpdateTrace trace = wl::GenerateTrace(config);
      OnlineConfig online_config;
      online_config.x2y = x2y;
      online_config.capacity = trace.initial_capacity;
      online_config.policy_spec.name = "never";
      OnlineAssigner assigner(online_config);
      for (const Update& update : trace.updates) {
        ASSERT_TRUE(assigner.Apply(update).applied);
      }
      EXPECT_EQ(assigner.totals().rejected, 0u);
      std::string error;
      EXPECT_TRUE(assigner.ValidateNow(&error)) << error;
    }
  }
}

// The triangular pair-coverage array must always hold exactly the
// number of live reducers in which each required pair meets (every
// pair for A2A, cross pairs for X2Y; other pairs are never counted).
// The oracle recounts every pair by brute force from the live schema's
// reducer lists and compares it with PairCoverage::Count every 10
// steps, on every differential shape.
void ExpectCoverageMatchesRecount(const OnlineAssigner& assigner,
                                  const std::string& where) {
  const LiveState& state = assigner.live_state();
  ASSERT_EQ(state.cover.num_ranks(), state.num_alive()) << where;
  std::map<std::pair<InputId, InputId>, uint32_t> recount;
  for (const Reducer& reducer : assigner.Schema().reducers) {
    for (std::size_t i = 0; i < reducer.size(); ++i) {
      for (std::size_t j = i + 1; j < reducer.size(); ++j) {
        if (state.IsPartner(reducer[i], reducer[j])) {
          ++recount[std::minmax(reducer[i], reducer[j])];
        }
      }
    }
  }
  for (std::size_t i = 0; i < state.alive_ids.size(); ++i) {
    for (std::size_t j = i + 1; j < state.alive_ids.size(); ++j) {
      const InputId a = state.alive_ids[i];
      const InputId b = state.alive_ids[j];
      const auto it = recount.find(std::minmax(a, b));
      const uint32_t expected = it == recount.end() ? 0 : it->second;
      ASSERT_EQ(state.cover.Count(state.alive_pos[a], state.alive_pos[b]),
                expected)
          << "pair (" << a << ", " << b << ") " << where;
    }
  }
}

TEST(OnlineTraceTest, CoverageMatchesBruteForceRecountOnEveryShape) {
  const struct {
    bool x2y;
    uint64_t seed;
  } shapes[] = {{false, 11}, {false, 23}, {true, 12}, {true, 29}};
  for (const auto& shape : shapes) {
    const UpdateTrace trace =
        wl::GenerateTrace(BaseTraceConfig(shape.x2y, shape.seed));
    OnlineAssigner assigner(
        IncrementalConfig(shape.x2y, trace.initial_capacity));
    std::size_t step = 0;
    for (const Update& update : trace.updates) {
      ++step;
      ASSERT_TRUE(assigner.Apply(update).applied);
      if (step % 10 == 0) {
        ExpectCoverageMatchesRecount(
            assigner, "at step " + std::to_string(step) +
                          " (x2y=" + std::to_string(shape.x2y) +
                          " seed=" + std::to_string(shape.seed) + ")");
      }
    }
    ExpectCoverageMatchesRecount(assigner, "at the end");
    EXPECT_GT(assigner.totals().replans, 0u);
    std::string error;
    EXPECT_TRUE(assigner.ValidateNow(&error)) << error;
  }
}

TEST(OnlineTraceTest, GeneratorIsDeterministicInSeed) {
  const wl::TraceConfig config = BaseTraceConfig(false, 5);
  const UpdateTrace a = wl::GenerateTrace(config);
  const UpdateTrace b = wl::GenerateTrace(config);
  EXPECT_EQ(a, b);
  wl::TraceConfig other = config;
  other.seed = 6;
  EXPECT_NE(wl::GenerateTrace(other), a);
}

// Every initial input and every step emits exactly one event, and the
// generator allocates the trace once at that size: a trace rebuilt at
// twice the length (as long benchmark runs do) carries no doubling
// slack.
TEST(OnlineTraceTest, GeneratorAllocatesTheTraceExactly) {
  for (const wl::TraceShape shape :
       {wl::TraceShape::kMixed, wl::TraceShape::kFlashCrowd,
        wl::TraceShape::kCapacityOscillation}) {
    for (const bool x2y : {false, true}) {
      for (const std::size_t steps : {0, 1, 97, 1000}) {
        wl::TraceConfig config = AdversarialStatsConfig(shape);
        config.x2y = x2y;
        config.steps = steps;
        const UpdateTrace trace = wl::GenerateTrace(config);
        EXPECT_EQ(trace.updates.size(), config.initial_inputs + steps);
        EXPECT_EQ(trace.updates.capacity(), trace.updates.size())
            << "shape " << static_cast<int>(shape) << " x2y " << x2y
            << " steps " << steps;
      }
    }
  }
}

TEST(OnlineTraceTest, RetunesClampToMaxCapacity) {
  // With q at the subsystem limit, upward retunes must clamp so the
  // emitted trace stays replayable (the parser rejects setq > 10^18).
  wl::TraceConfig config = BaseTraceConfig(false, 7);
  config.capacity = kMaxCapacity;
  const UpdateTrace trace = wl::GenerateTrace(config);
  for (const Update& u : trace.updates) {
    if (u.kind == UpdateKind::kSetCapacity) {
      EXPECT_LE(u.value, kMaxCapacity);
    }
  }
  std::string error;
  EXPECT_TRUE(TraceFromText(TraceToText(trace), &error).has_value())
      << error;
}

TEST(OnlineTraceTest, TraceTextRoundTrip) {
  for (bool x2y : {false, true}) {
    const UpdateTrace trace =
        wl::GenerateTrace(BaseTraceConfig(x2y, 3));
    const std::string text = TraceToText(trace);
    std::string error;
    const auto parsed = TraceFromText(text, &error);
    ASSERT_TRUE(parsed.has_value()) << error;
    EXPECT_EQ(*parsed, trace);
  }
}

TEST(OnlineTraceTest, TraceParserRejectsGarbage) {
  std::string error;
  EXPECT_FALSE(TraceFromText("", &error).has_value());
  EXPECT_NE(error.find("header"), std::string::npos);
  EXPECT_FALSE(TraceFromText("update-trace v2 a2a q=10\n").has_value());
  EXPECT_FALSE(TraceFromText("update-trace v1 a2a q=0\n").has_value());
  EXPECT_FALSE(
      TraceFromText("update-trace v1 a2a q=10\nfrob 1\n", &error).has_value());
  EXPECT_NE(error.find("unknown op"), std::string::npos);
  EXPECT_FALSE(
      TraceFromText("update-trace v1 a2a q=10\nadd 5 junk\n").has_value());
  // Negative numbers must not wrap through unsigned extraction — a
  // rejected add would silently desync the implicit id numbering.
  EXPECT_FALSE(
      TraceFromText("update-trace v1 a2a q=10\nadd -5\n").has_value());
  EXPECT_FALSE(
      TraceFromText("update-trace v1 a2a q=10\nremove -1\n").has_value());
  EXPECT_FALSE(
      TraceFromText("update-trace v1 a2a q=10\nresize 0 -3\n").has_value());
  EXPECT_FALSE(
      TraceFromText("update-trace v1 a2a q=-100\nadd 5\n").has_value());
  // The header gets the same trailing-garbage and suffix checks as ops.
  EXPECT_FALSE(
      TraceFromText("update-trace v1 a2a q=10O\nadd 5\n").has_value());
  EXPECT_FALSE(
      TraceFromText("update-trace v1 a2a q=10 extra\nadd 5\n").has_value());
  EXPECT_FALSE(
      TraceFromText("update-trace v1 x2y q=10\nadd 5\n").has_value());
  // Comments and blank lines are fine.
  const auto ok = TraceFromText(
      "# hello\n\nupdate-trace v1 a2a q=10  # header\nadd 5\nremove 0\n");
  ASSERT_TRUE(ok.has_value());
  EXPECT_EQ(ok->updates.size(), 2u);
}

}  // namespace
}  // namespace msp::online
