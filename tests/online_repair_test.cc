// Unit tests for OnlineAssigner's local repair operations: validity
// after every single-update repair, exact churn accounting against
// schema diffs, and rejection of infeasible updates.

#include <algorithm>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "core/schema.h"
#include "gtest/gtest.h"
#include "online/assigner.h"
#include "online/policy.h"
#include "workload/updates.h"

namespace msp::online {
namespace {

OnlineConfig NeverReplanConfig(InputSize capacity, bool x2y = false) {
  OnlineConfig config;
  config.x2y = x2y;
  config.capacity = capacity;
  config.policy = std::make_shared<NeverReplanPolicy>();
  return config;
}

// Total copies and bytes of a schema, for aggregate churn checks.
std::pair<uint64_t, uint64_t> CountCopies(const OnlineAssigner& assigner) {
  uint64_t copies = 0;
  uint64_t bytes = 0;
  const MappingSchema schema = assigner.Schema();
  for (const Reducer& reducer : schema.reducers) {
    for (InputId id : reducer) {
      ++copies;
      bytes += assigner.size_of(id);
    }
  }
  return {copies, bytes};
}

// The exact-churn invariant: moved - dropped must equal the copy-count
// delta, and created - destroyed the reducer-count delta.
void ExpectChurnMatchesDiff(const ChurnStats& churn, uint64_t copies_before,
                            uint64_t copies_after, uint64_t z_before,
                            uint64_t z_after) {
  EXPECT_EQ(static_cast<int64_t>(churn.inputs_moved) -
                static_cast<int64_t>(churn.inputs_dropped),
            static_cast<int64_t>(copies_after) -
                static_cast<int64_t>(copies_before));
  EXPECT_EQ(static_cast<int64_t>(churn.reducers_created) -
                static_cast<int64_t>(churn.reducers_destroyed),
            static_cast<int64_t>(z_after) - static_cast<int64_t>(z_before));
}

TEST(OnlineRepairTest, FirstInputPlacesNoCopies) {
  OnlineAssigner assigner(NeverReplanConfig(100));
  const UpdateResult result = assigner.AddInput(30);
  ASSERT_TRUE(result.applied);
  EXPECT_EQ(result.new_id, InputId{0});
  // No partner exists yet, so nothing needs to meet anything.
  EXPECT_EQ(assigner.Schema().num_reducers(), 0u);
  EXPECT_EQ(result.churn.inputs_moved, 0u);
  EXPECT_TRUE(assigner.ValidateNow());
}

TEST(OnlineRepairTest, SequentialAddsStayValid) {
  OnlineAssigner assigner(NeverReplanConfig(100));
  for (InputSize w : {30, 40, 20, 10, 35, 25, 15, 45, 5, 50}) {
    const UpdateResult result = assigner.AddInput(w);
    ASSERT_TRUE(result.applied) << result.error;
    std::string error;
    ASSERT_TRUE(assigner.ValidateNow(&error)) << error;
  }
  EXPECT_EQ(assigner.num_inputs(), 10u);
  EXPECT_EQ(assigner.totals().updates, 10u);
  EXPECT_EQ(assigner.totals().repairs, 10u);
  EXPECT_EQ(assigner.totals().replans, 0u);
}

TEST(OnlineRepairTest, AddChurnMatchesSchemaDiff) {
  OnlineAssigner assigner(NeverReplanConfig(60));
  assigner.AddInput(20);
  assigner.AddInput(25);
  const auto [copies_before, bytes_before] = CountCopies(assigner);
  const uint64_t z_before = assigner.Schema().num_reducers();
  const UpdateResult result = assigner.AddInput(30);
  ASSERT_TRUE(result.applied);
  const auto [copies_after, bytes_after] = CountCopies(assigner);
  ExpectChurnMatchesDiff(result.churn, copies_before, copies_after, z_before,
                         assigner.Schema().num_reducers());
  // An add never drops copies, so bytes_moved is the exact byte delta.
  EXPECT_EQ(result.churn.inputs_dropped, 0u);
  EXPECT_EQ(result.churn.bytes_moved, bytes_after - bytes_before);
}

TEST(OnlineRepairTest, RemoveInputKeepsRemainingPairsCovered) {
  OnlineAssigner assigner(NeverReplanConfig(100));
  std::vector<InputId> ids;
  for (InputSize w : {30, 40, 20, 10, 35}) {
    ids.push_back(*assigner.AddInput(w).new_id);
  }
  const auto [copies_before, bytes_before] = CountCopies(assigner);
  const uint64_t z_before = assigner.Schema().num_reducers();
  const UpdateResult result = assigner.RemoveInput(ids[1]);
  ASSERT_TRUE(result.applied);
  std::string error;
  EXPECT_TRUE(assigner.ValidateNow(&error)) << error;
  EXPECT_FALSE(assigner.is_alive(ids[1]));
  const auto [copies_after, bytes_after] = CountCopies(assigner);
  ExpectChurnMatchesDiff(result.churn, copies_before, copies_after, z_before,
                         assigner.Schema().num_reducers());
  // The removed input appears nowhere in the live schema.
  for (const Reducer& reducer : assigner.Schema().reducers) {
    EXPECT_FALSE(std::binary_search(reducer.begin(), reducer.end(), ids[1]));
  }
}

TEST(OnlineRepairTest, ResizeShrinkIsValidAndGrowRepairs) {
  OnlineAssigner assigner(NeverReplanConfig(100));
  std::vector<InputId> ids;
  for (InputSize w : {45, 40, 30, 20, 10}) {
    ids.push_back(*assigner.AddInput(w).new_id);
  }
  ASSERT_TRUE(assigner.ResizeInput(ids[2], 5).applied);
  std::string error;
  EXPECT_TRUE(assigner.ValidateNow(&error)) << error;

  // Growing input 3 from 20 to 55 overflows reducers pairing it with
  // the 45/40-sized inputs; repair must re-cover those pairs.
  const UpdateResult grown = assigner.ResizeInput(ids[3], 55);
  ASSERT_TRUE(grown.applied) << grown.error;
  EXPECT_TRUE(assigner.ValidateNow(&error)) << error;
  EXPECT_EQ(assigner.size_of(ids[3]), 55u);
}

TEST(OnlineRepairTest, CapacityGrowIsFreeShrinkRepairs) {
  OnlineAssigner assigner(NeverReplanConfig(100));
  for (InputSize w : {30, 25, 20, 15, 10, 5}) assigner.AddInput(w);
  const UpdateResult grow = assigner.SetCapacity(200);
  ASSERT_TRUE(grow.applied);
  EXPECT_EQ(grow.churn.inputs_moved, 0u);
  EXPECT_EQ(grow.churn.inputs_dropped, 0u);
  std::string error;
  EXPECT_TRUE(assigner.ValidateNow(&error)) << error;

  // Shrinking to 60 overflows the large reducers built under q=200.
  const UpdateResult shrink = assigner.SetCapacity(60);
  ASSERT_TRUE(shrink.applied) << shrink.error;
  EXPECT_TRUE(assigner.ValidateNow(&error)) << error;
  EXPECT_EQ(assigner.capacity(), 60u);
  for (const Reducer& reducer : assigner.Schema().reducers) {
    uint64_t load = 0;
    for (InputId id : reducer) load += assigner.size_of(id);
    EXPECT_LE(load, 60u);
  }
}

TEST(OnlineRepairTest, RejectsInfeasibleUpdates) {
  OnlineAssigner assigner(NeverReplanConfig(100));
  const InputId big = *assigner.AddInput(60).new_id;
  assigner.AddInput(30);

  EXPECT_FALSE(assigner.AddInput(0).applied);
  EXPECT_FALSE(assigner.AddInput(101).applied);     // larger than q
  EXPECT_FALSE(assigner.AddInput(50).applied);      // 50 + 60 > 100
  EXPECT_FALSE(assigner.RemoveInput(99).applied);   // unknown id
  EXPECT_FALSE(assigner.ResizeInput(big, 75).applied);  // 75 + 30 > 100
  EXPECT_FALSE(assigner.SetCapacity(89).applied);   // below pair 60 + 30
  EXPECT_FALSE(assigner.SetCapacity(0).applied);

  EXPECT_EQ(assigner.totals().rejected, 7u);
  EXPECT_EQ(assigner.totals().updates, 2u);  // only the two adds
  std::string error;
  EXPECT_TRUE(assigner.ValidateNow(&error)) << error;

  // A removed id cannot be resized or removed again.
  ASSERT_TRUE(assigner.RemoveInput(big).applied);
  EXPECT_FALSE(assigner.RemoveInput(big).applied);
  EXPECT_FALSE(assigner.ResizeInput(big, 10).applied);
}

TEST(OnlineRepairTest, X2YOnlyCrossPairsAreCovered) {
  OnlineAssigner assigner(NeverReplanConfig(50, /*x2y=*/true));
  std::vector<InputId> xs;
  std::vector<InputId> ys;
  for (InputSize w : {20, 15, 10}) {
    xs.push_back(*assigner.AddInput(w, Side::kX).new_id);
  }
  // X-only instance: no outputs, no reducers needed.
  EXPECT_EQ(assigner.Schema().num_reducers(), 0u);
  for (InputSize w : {25, 12}) {
    ys.push_back(*assigner.AddInput(w, Side::kY).new_id);
    std::string error;
    ASSERT_TRUE(assigner.ValidateNow(&error)) << error;
  }
  ASSERT_TRUE(assigner.RemoveInput(xs[0]).applied);
  ASSERT_TRUE(assigner.ResizeInput(ys[0], 30).applied);
  std::string error;
  EXPECT_TRUE(assigner.ValidateNow(&error)) << error;
}

TEST(OnlineRepairTest, CompactNeverBreaksValidityOrGrowsSchema) {
  OnlineAssigner assigner(NeverReplanConfig(100));
  for (InputSize w : {10, 9, 8, 7, 6, 5, 4, 3, 2, 12, 11, 13}) {
    assigner.AddInput(w);
  }
  // Churn the schema into a fragmented state.
  assigner.RemoveInput(0);
  assigner.RemoveInput(5);
  const uint64_t z_before = assigner.Schema().num_reducers();
  const auto [copies_before, bytes_before] = CountCopies(assigner);
  const UpdateResult result = assigner.Compact();
  ASSERT_TRUE(result.applied);
  std::string error;
  EXPECT_TRUE(assigner.ValidateNow(&error)) << error;
  EXPECT_LE(assigner.Schema().num_reducers(), z_before);
  const auto [copies_after, bytes_after] = CountCopies(assigner);
  ExpectChurnMatchesDiff(result.churn, copies_before, copies_after, z_before,
                         assigner.Schema().num_reducers());
}

TEST(OnlineRepairTest, DriftPolicyEscalatesToReplan) {
  OnlineConfig config;
  config.capacity = 100;
  // Tight drift bound: repair-induced degradation triggers re-plans.
  config.policy = std::make_shared<DriftThresholdPolicy>(1.05, 1.2, 1024);
  config.plan_options.use_portfolio = false;
  OnlineAssigner assigner(config);
  // Grow, then churn the membership hard: the fragmented repaired
  // schema falls behind what a fresh construction achieves, so the
  // drift policy must escalate and deploy at least one re-plan.
  std::vector<InputId> ids;
  for (InputSize w : {30, 40, 20, 10, 35, 25, 15, 45, 5, 50,
                      33, 27, 18, 42, 9, 21, 14, 38, 7, 29}) {
    const UpdateResult added = assigner.AddInput(w);
    ASSERT_TRUE(added.applied);
    ids.push_back(*added.new_id);
  }
  for (std::size_t i = 0; i < ids.size(); i += 2) {
    ASSERT_TRUE(assigner.RemoveInput(ids[i]).applied);
    std::string error;
    ASSERT_TRUE(assigner.ValidateNow(&error)) << error;
  }
  for (InputSize w : {11, 23, 37, 41, 13, 19}) {
    ASSERT_TRUE(assigner.AddInput(w).applied);
    std::string error;
    ASSERT_TRUE(assigner.ValidateNow(&error)) << error;
  }
  EXPECT_GT(assigner.totals().replans, 0u);
  const QualitySnapshot quality = assigner.Quality();
  ASSERT_TRUE(quality.bounds_available);
  EXPECT_GE(quality.live_reducers, 1u);
}

// The repair path on every trace shape (including the adversarial
// ones, whose bursts and retune storms are CoverStar-heavy): the live
// schema stays valid throughout, and each shape's final reducer count
// and churn ledger are pinned to the values the bitmap and the former
// unordered_set partner-set backends both produced, so any change to
// the repair decisions shows up here.
TEST(OnlineRepairTest, RepairIsPinnedOnEveryShape) {
  const struct {
    wl::TraceShape shape;
    bool x2y;
    uint64_t seed;
    std::size_t reducers;
    uint64_t inputs_moved;
    uint64_t bytes_moved;
  } shapes[] = {
      {wl::TraceShape::kMixed, false, 51, 11, 745, 7164},
      {wl::TraceShape::kMixed, true, 52, 10, 347, 3376},
      {wl::TraceShape::kFlashCrowd, false, 53, 963, 5418, 133595},
      {wl::TraceShape::kCapacityOscillation, false, 54, 38, 1198, 10824},
  };
  for (const auto& entry : shapes) {
    wl::TraceConfig trace_config;
    trace_config.shape = entry.shape;
    trace_config.x2y = entry.x2y;
    trace_config.initial_inputs = 20;
    trace_config.steps = 160;
    trace_config.seed = entry.seed;
    const auto trace = wl::GenerateTrace(trace_config);

    OnlineAssigner assigner(NeverReplanConfig(trace.initial_capacity,
                                              entry.x2y));
    std::size_t step = 0;
    for (const Update& update : trace.updates) {
      ++step;
      ASSERT_TRUE(assigner.Apply(update).applied);
      if (step % 10 == 0) {
        std::string error;
        ASSERT_TRUE(assigner.ValidateNow(&error))
            << "seed " << entry.seed << " step " << step << ": " << error;
      }
    }
    std::string error;
    ASSERT_TRUE(assigner.ValidateNow(&error)) << error;
    EXPECT_EQ(assigner.Schema().reducers.size(), entry.reducers)
        << "seed " << entry.seed;
    EXPECT_EQ(assigner.totals().churn.inputs_moved, entry.inputs_moved)
        << "seed " << entry.seed;
    EXPECT_EQ(assigner.totals().churn.bytes_moved, entry.bytes_moved)
        << "seed " << entry.seed;
  }
}

}  // namespace
}  // namespace msp::online
