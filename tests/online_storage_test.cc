// Tests for the repair path's pooled storage (scratch vectors and
// retired reducer buffers resident on the LiveState). Warm pools must
// not change a decision: an assigner restored from a snapshot, whose
// pools start empty, must make exactly the decisions of the
// uninterrupted one on every trace shape. And a warmed-up assigner
// must execute a steady-state repair window without touching the heap
// at all — the claim is gated on the assigner's own published
// allocation counters, with a cold restored copy proving on the same
// window that the measurement sees something.

#include <algorithm>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "gtest/gtest.h"
#include "obs/alloc.h"
#include "obs/metrics.h"
#include "online/assigner.h"
#include "online/repair.h"
#include "online/snapshot.h"
#include "online/trace.h"
#include "workload/updates.h"

namespace msp::online {
namespace {

// The policy is selected by spec, not supplied directly, so that
// snapshots capture it.
OnlineConfig NeverReplanConfig(InputSize capacity, bool x2y) {
  OnlineConfig config;
  config.x2y = x2y;
  config.capacity = capacity;
  config.policy_spec.name = "never";
  return config;
}

std::unique_ptr<OnlineAssigner> RestoredCopy(const OnlineAssigner& source) {
  std::string error;
  auto restored =
      SnapshotCodec::Restore(SnapshotCodec::Serialize(source), &error);
  EXPECT_TRUE(restored.has_value()) << error;
  return restored.has_value() ? std::move(restored->assigner) : nullptr;
}

std::vector<wl::TraceConfig> Shapes(std::size_t steps) {
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

// Warm pools and scratch only change where memory comes from, never a
// decision. The "heap" side is a copy restored from a snapshot every 7
// steps, so it keeps running on fresh, empty scratch and reducer pools
// (every buffer it needs comes from the heap); each update must
// produce the same result and the same live schema as the
// uninterrupted run.
TEST(RepairStorageTest, PooledMatchesHeapOnGeneratedTraces) {
  for (const wl::TraceConfig& shape : Shapes(200)) {
    const UpdateTrace trace = wl::GenerateTrace(shape);
    OnlineAssigner pooled(NeverReplanConfig(trace.initial_capacity,
                                            trace.x2y));
    std::unique_ptr<OnlineAssigner> heap;
    std::vector<std::optional<InputId>> live_of_trace;
    TraceIdTranslator translator(&live_of_trace);
    std::size_t step = 0;
    for (const Update& update : trace.updates) {
      Update live = update;
      if (!translator.Translate(&live)) continue;
      if (step++ % 7 == 0) {
        heap = RestoredCopy(pooled);
        ASSERT_NE(heap, nullptr) << "shape seed " << shape.seed;
      }
      const UpdateResult a = pooled.ApplyDeferred(live);
      const UpdateResult b = heap->ApplyDeferred(live);
      if (live.kind == UpdateKind::kAddInput) {
        translator.RecordAdd(a.applied ? a.new_id : std::nullopt);
      }
      ASSERT_EQ(a.applied, b.applied) << "shape seed " << shape.seed;
      ASSERT_EQ(a.new_id, b.new_id) << "shape seed " << shape.seed;
      ASSERT_EQ(a.churn, b.churn) << "shape seed " << shape.seed;
      ASSERT_EQ(pooled.Schema().reducers, heap->Schema().reducers)
          << "shape seed " << shape.seed;
    }
    ASSERT_NE(heap, nullptr);
    EXPECT_EQ(pooled.totals().churn, heap->totals().churn);
  }
}

// Drives `assigner` through a deterministic steady-state repair window
// and returns the allocations the calling thread made during it (a
// superset of what the assigner publishes, which needs a registry).
// The window oscillates the sizes of a fixed set of inputs: every
// update repairs (evictions, re-covers, reducer churn) but the id
// space, the alive set, and the load scale all stay fixed — exactly
// the regime the pooled storage promises to serve allocation-free.
uint64_t AllocsOverWindow(OnlineAssigner* assigner,
                          const std::vector<InputId>& ids,
                          std::size_t cycles) {
  const obs::AllocScope scope;
  for (std::size_t cycle = 0; cycle < cycles; ++cycle) {
    for (const InputId id : ids) {
      const InputSize size = (cycle % 2 == 0) ? 3 : 2;
      const UpdateResult result =
          assigner->ApplyDeferred(Update::Resize(id, size));
      // A rejection would allocate its error string and poison the
      // measurement; this window must stay rejection-free.
      EXPECT_TRUE(result.applied) << result.error;
    }
  }
  return scope.delta().allocs;
}

struct WarmedAssigner {
  std::unique_ptr<OnlineAssigner> assigner;
  std::vector<InputId> ids;  // oscillation targets, all alive
};

// Builds an assigner and replays a 300-step mixed trace as warm-up.
WarmedAssigner WarmUp(obs::Registry* registry) {
  wl::TraceConfig shape;
  shape.shape = wl::TraceShape::kMixed;
  shape.initial_inputs = 24;
  shape.steps = 300;
  shape.capacity = 100;
  shape.lo = 2;
  shape.hi = 40;
  shape.seed = 17;
  const UpdateTrace trace = wl::GenerateTrace(shape);

  OnlineConfig config = NeverReplanConfig(trace.initial_capacity,
                                          trace.x2y);
  config.metrics = registry;
  WarmedAssigner warmed;
  warmed.assigner = std::make_unique<OnlineAssigner>(config);
  std::vector<std::optional<InputId>> live_of_trace;
  TraceIdTranslator translator(&live_of_trace);
  for (const Update& update : trace.updates) {
    Update live = update;
    if (!translator.Translate(&live)) continue;
    const UpdateResult result = warmed.assigner->ApplyDeferred(live);
    if (live.kind == UpdateKind::kAddInput) {
      translator.RecordAdd(result.applied ? result.new_id : std::nullopt);
    }
  }

  const LiveState& state = warmed.assigner->live_state();
  warmed.ids.assign(state.alive_ids.begin(), state.alive_ids.end());
  std::sort(warmed.ids.begin(), warmed.ids.end());
  warmed.ids.resize(std::min<std::size_t>(warmed.ids.size(), 8));
  return warmed;
}

TEST(RepairStorageTest, SteadyStateRepairIsAllocationFree) {
  if (!obs::AllocCountingActive()) {
    GTEST_SKIP() << "counting allocator interposed (sanitizer build)";
  }
  obs::Registry registry;
  obs::Counter* allocs = registry.counter("online.allocs_total");
  WarmedAssigner warmed = WarmUp(&registry);
  ASSERT_GE(warmed.ids.size(), 4u);
  // First pass reaches the oscillation's high-water marks...
  AllocsOverWindow(warmed.assigner.get(), warmed.ids, 20);
  // ...after which the steady state is allocation-free: not "few", not
  // "amortized" — zero heap traffic across 160 repairing updates.
  const uint64_t published_before = allocs->value();
  EXPECT_EQ(AllocsOverWindow(warmed.assigner.get(), warmed.ids, 20), 0u);
  EXPECT_EQ(allocs->value(), published_before);
}

// The same window on a copy restored from a snapshot of the warmed
// assigner — identical state, but empty scratch and reducer pools —
// must allocate; otherwise the zero above would be vacuous (a gate
// that cannot fail gates nothing).
TEST(RepairStorageTest, HeapBaselineAllocatesOnTheSameWindow) {
  if (!obs::AllocCountingActive()) {
    GTEST_SKIP() << "counting allocator interposed (sanitizer build)";
  }
  obs::Registry registry;
  WarmedAssigner warmed = WarmUp(&registry);
  ASSERT_GE(warmed.ids.size(), 4u);
  AllocsOverWindow(warmed.assigner.get(), warmed.ids, 20);
  const std::unique_ptr<OnlineAssigner> cold =
      RestoredCopy(*warmed.assigner);
  ASSERT_NE(cold, nullptr);
  EXPECT_GT(AllocsOverWindow(cold.get(), warmed.ids, 20), 0u);
}

}  // namespace
}  // namespace msp::online
