// Tests for PlannerService: the end-to-end canonicalize -> cache ->
// portfolio -> de-canonicalize flow, warm-path behavior, batching,
// budget fallback, stats reporting, and a concurrent stress run.

#include <sstream>
#include <thread>
#include <vector>

#include "core/a2a.h"
#include "core/validate.h"
#include "core/x2y.h"
#include "gtest/gtest.h"
#include "planner/service.h"
#include "workload/sizes.h"

namespace msp::planner {
namespace {

// Property test: Plan() returns schemas valid for the ORIGINAL
// (un-canonicalized) instance, never worse than the auto dispatcher.
TEST(PlannerServiceTest, PlansAreValidForOriginalAndBeatAuto) {
  PlannerService service;
  for (uint64_t seed = 1; seed <= 10; ++seed) {
    const auto sizes = wl::ZipfSizes(60, 3, 45, 1.3, seed);
    const auto in = A2AInstance::Create(sizes, 120).value();
    const PlanResult result = service.Plan(in);
    ASSERT_TRUE(result.schema.has_value()) << "seed " << seed;
    const ValidationResult valid = ValidateA2A(in, *result.schema);
    EXPECT_TRUE(valid.ok) << "seed " << seed << ": " << valid.error;

    auto auto_schema = SolveA2AAuto(in);
    ASSERT_TRUE(auto_schema.has_value());
    EXPECT_LE(result.stats.num_reducers, auto_schema->num_reducers())
        << "seed " << seed;
  }
}

TEST(PlannerServiceTest, SecondPlanIsACacheHitWithSameSchema) {
  PlannerService service;
  const auto in =
      A2AInstance::Create(wl::UniformSizes(40, 2, 20, 5), 60).value();
  const PlanResult cold = service.Plan(in);
  const PlanResult warm = service.Plan(in);
  ASSERT_TRUE(cold.schema.has_value());
  ASSERT_TRUE(warm.schema.has_value());
  EXPECT_FALSE(cold.cache_hit);
  EXPECT_TRUE(warm.cache_hit);
  EXPECT_FALSE(cold.scoreboard.empty());
  EXPECT_TRUE(warm.scoreboard.empty());  // hit path runs no algorithms
  EXPECT_EQ(cold.algorithm, warm.algorithm);
  EXPECT_EQ(cold.schema->reducers, warm.schema->reducers);

  const PlannerStats stats = service.stats();
  EXPECT_EQ(stats.plans, 2u);
  EXPECT_EQ(stats.cache_hits, 1u);
  EXPECT_EQ(stats.cache_misses, 1u);
  EXPECT_EQ(stats.portfolio_runs, 1u);
}

TEST(PlannerServiceTest, PermutedAndScaledInstancesHitTheSameEntry) {
  PlannerService service;
  const auto base = A2AInstance::Create({12, 9, 6, 3}, 21).value();
  const auto permuted = A2AInstance::Create({3, 6, 9, 12}, 21).value();
  const auto scaled = A2AInstance::Create({48, 36, 24, 12}, 84).value();
  EXPECT_FALSE(service.Plan(base).cache_hit);
  const PlanResult p = service.Plan(permuted);
  const PlanResult s = service.Plan(scaled);
  EXPECT_TRUE(p.cache_hit);
  EXPECT_TRUE(s.cache_hit);
  // The rewritten schemas must be valid for their own instances.
  EXPECT_TRUE(ValidateA2A(permuted, *p.schema).ok);
  EXPECT_TRUE(ValidateA2A(scaled, *s.schema).ok);
  EXPECT_EQ(service.stats().cache_entries, 1u);
}

TEST(PlannerServiceTest, X2YPlansValidAndMirroredSidesShareTheEntry) {
  PlannerService service;
  const auto ab = X2YInstance::Create({9, 7, 5}, {6, 4}, 18).value();
  const auto ba = X2YInstance::Create({6, 4}, {9, 7, 5}, 18).value();
  const PlanResult first = service.Plan(ab);
  const PlanResult second = service.Plan(ba);
  ASSERT_TRUE(first.schema.has_value());
  ASSERT_TRUE(second.schema.has_value());
  EXPECT_FALSE(first.cache_hit);
  EXPECT_TRUE(second.cache_hit);
  EXPECT_TRUE(ValidateX2Y(ab, *first.schema).ok);
  EXPECT_TRUE(ValidateX2Y(ba, *second.schema).ok);
}

TEST(PlannerServiceTest, InfeasibleInstanceReturnsNoSchema) {
  PlannerService service;
  const auto in = A2AInstance::Create({80, 80}, 100).value();
  const PlanResult result = service.Plan(in);
  EXPECT_FALSE(result.schema.has_value());
  EXPECT_EQ(service.stats().infeasible, 1u);
  // Infeasible results are not cached; a retry misses again.
  service.Plan(in);
  EXPECT_EQ(service.stats().cache_misses, 2u);
}

TEST(PlannerServiceTest, TightBudgetFallsBackToAuto) {
  PlannerConfig config;
  config.portfolio_min_budget_ms = 5.0;
  PlannerService service(config);
  const auto in =
      A2AInstance::Create(wl::UniformSizes(40, 2, 20, 7), 60).value();
  PlanOptions opts;
  opts.budget_ms = 0.5;  // below the threshold -> auto dispatcher
  const PlanResult result = service.Plan(in, opts);
  ASSERT_TRUE(result.schema.has_value());
  EXPECT_EQ(result.algorithm, "auto");
  EXPECT_TRUE(result.scoreboard.empty());
  EXPECT_EQ(service.stats().auto_runs, 1u);
  EXPECT_EQ(service.stats().portfolio_runs, 0u);
  EXPECT_TRUE(ValidateA2A(in, *result.schema).ok);
}

TEST(PlannerServiceTest, UsePortfolioFalseUsesAuto) {
  PlannerService service;
  const auto in =
      A2AInstance::Create(wl::UniformSizes(30, 2, 15, 20), 50).value();
  PlanOptions opts;
  opts.use_portfolio = false;
  const PlanResult result = service.Plan(in, opts);
  ASSERT_TRUE(result.schema.has_value());
  EXPECT_EQ(result.algorithm, "auto");
  EXPECT_EQ(service.stats().auto_runs, 1u);
  // The bare construction: no merge post-pass on top of the dispatcher
  // (MergeReducers would take this instance from 78 to 74 reducers).
  const auto bare = SolveA2AAuto(Canonicalize(in).instance);
  ASSERT_TRUE(bare.has_value());
  EXPECT_EQ(result.schema->num_reducers(), bare->num_reducers());
}

// Auto plans bypass the cache entirely, so the two kinds of plan can
// never be served for each other: a portfolio request after an auto
// plan of the same instance still runs the portfolio, and an auto
// request after a cached portfolio plan still runs the dispatcher.
TEST(PlannerServiceTest, AutoPlanIsNeverServedToAPortfolioRequest) {
  PlannerConfig config;
  config.portfolio_min_budget_ms = 5.0;
  PlannerService service(config);
  const auto in =
      A2AInstance::Create(wl::ZipfSizes(50, 2, 30, 1.3, 4), 80).value();
  PlanOptions tight;
  tight.budget_ms = 0.5;  // budget fallback to the auto dispatcher
  const PlanResult fallback = service.Plan(in, tight);
  ASSERT_TRUE(fallback.schema.has_value());
  EXPECT_EQ(fallback.algorithm, "auto");

  const PlanResult full = service.Plan(in);  // unlimited budget
  ASSERT_TRUE(full.schema.has_value());
  EXPECT_FALSE(full.cache_hit);
  EXPECT_FALSE(full.scoreboard.empty());
  EXPECT_EQ(service.stats().portfolio_runs, 1u);

  PlanOptions no_portfolio;
  no_portfolio.use_portfolio = false;
  const PlanResult bare = service.Plan(in, no_portfolio);
  ASSERT_TRUE(bare.schema.has_value());
  EXPECT_FALSE(bare.cache_hit);
  EXPECT_EQ(bare.algorithm, "auto");

  const PlannerStats stats = service.stats();
  EXPECT_EQ(stats.auto_runs, 2u);
  EXPECT_EQ(stats.cache_hits, 0u);
  EXPECT_EQ(stats.cache_misses, 1u);
  EXPECT_EQ(stats.cache_entries, 1u);
}

TEST(PlannerServiceTest, PlanManyMatchesIndividualPlans) {
  std::vector<A2AInstance> batch;
  for (uint64_t seed = 1; seed <= 8; ++seed) {
    batch.push_back(
        A2AInstance::Create(wl::ZipfSizes(40, 2, 25, 1.2, seed), 70).value());
  }
  PlannerService batched;
  const std::vector<PlanResult> results = batched.PlanMany(batch);
  ASSERT_EQ(results.size(), batch.size());

  PlannerService sequential;
  for (std::size_t i = 0; i < batch.size(); ++i) {
    ASSERT_TRUE(results[i].schema.has_value()) << "instance " << i;
    EXPECT_TRUE(ValidateA2A(batch[i], *results[i].schema).ok)
        << "instance " << i;
    const PlanResult expected = sequential.Plan(batch[i]);
    EXPECT_EQ(results[i].stats.num_reducers, expected.stats.num_reducers)
        << "instance " << i;
  }
  EXPECT_EQ(batched.stats().plans, batch.size());
}

TEST(PlannerServiceTest, ClearCacheForcesResolve) {
  PlannerService service;
  const auto in = A2AInstance::Create({9, 8, 7, 6}, 20).value();
  service.Plan(in);
  service.ClearCache();
  const PlanResult result = service.Plan(in);
  EXPECT_FALSE(result.cache_hit);
  EXPECT_EQ(service.stats().cache_misses, 2u);
}

TEST(PlannerServiceTest, PrintStatsRendersTable) {
  PlannerService service;
  const auto in = A2AInstance::Create({5, 4, 3}, 12).value();
  service.Plan(in);
  std::ostringstream out;
  service.PrintStats(out);
  EXPECT_NE(out.str().find("planner stats"), std::string::npos);
  EXPECT_NE(out.str().find("cache hits"), std::string::npos);
  EXPECT_NE(out.str().find("plan us (mean)"), std::string::npos);
}

// Concurrency stress: many threads plan overlapping instances; all
// results must be valid and the counters must balance exactly.
TEST(PlannerServiceStressTest, ConcurrentPlansKeepStatsExact) {
  constexpr std::size_t kThreads = 8;
  constexpr int kPlansPerThread = 40;
  constexpr uint64_t kDistinct = 10;  // overlapping across threads

  PlannerConfig config;
  config.num_threads = 4;
  PlannerService service(config);

  std::vector<A2AInstance> instances;
  for (uint64_t i = 0; i < kDistinct; ++i) {
    instances.push_back(
        A2AInstance::Create(wl::ZipfSizes(30, 2, 20, 1.3, i + 1), 50)
            .value());
  }

  std::vector<std::thread> threads;
  std::vector<int> failures(kThreads, 0);
  threads.reserve(kThreads);
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int p = 0; p < kPlansPerThread; ++p) {
        const A2AInstance& in = instances[(t + p) % kDistinct];
        const PlanResult result = service.Plan(in);
        if (!result.schema.has_value() ||
            !ValidateA2A(in, *result.schema).ok) {
          ++failures[t];
        }
      }
    });
  }
  for (auto& thread : threads) thread.join();

  for (std::size_t t = 0; t < kThreads; ++t) {
    EXPECT_EQ(failures[t], 0) << "thread " << t;
  }
  const PlannerStats stats = service.stats();
  EXPECT_EQ(stats.plans, kThreads * kPlansPerThread);
  EXPECT_EQ(stats.cache_hits + stats.cache_misses, stats.plans);
  // Every distinct instance is solved at least once; racing threads may
  // solve the same instance concurrently, so misses can exceed
  // kDistinct but never the plan count.
  EXPECT_GE(stats.cache_misses, kDistinct);
  EXPECT_EQ(stats.cache_entries, kDistinct);
  EXPECT_EQ(stats.portfolio_runs + stats.auto_runs + stats.cache_hits,
            stats.plans);
}

}  // namespace
}  // namespace msp::planner
