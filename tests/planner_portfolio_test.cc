// Tests for the algorithm portfolio: winner validity, the differential
// guarantee against the auto dispatchers, scoreboard bookkeeping, and
// pool-vs-inline determinism.

#include <vector>

#include "core/a2a.h"
#include "core/validate.h"
#include "core/x2y.h"
#include "gtest/gtest.h"
#include "planner/portfolio.h"
#include "util/thread_pool.h"
#include "workload/sizes.h"

namespace msp::planner {
namespace {

uint64_t AutoReducersA2A(const A2AInstance& in) {
  auto schema = SolveA2AAuto(in);
  EXPECT_TRUE(schema.has_value());
  return schema->num_reducers();
}

TEST(PortfolioA2ATest, ScoreboardListsAllCandidates) {
  const auto in =
      A2AInstance::Create(wl::UniformSizes(50, 2, 20, 3), 60).value();
  const PortfolioResult result = RunPortfolio(in, /*pool=*/nullptr);
  ASSERT_TRUE(result.best.has_value());
  ASSERT_EQ(result.scoreboard.size(), 6u);
  EXPECT_EQ(result.scoreboard[0].name, "auto");
  EXPECT_EQ(result.scoreboard[5].name, "big-small");
  EXPECT_EQ(result.best_algorithm,
            result.scoreboard[result.best_index].name);
  EXPECT_TRUE(ValidateA2A(in, *result.best).ok);
}

TEST(PortfolioA2ATest, WinnerMinimizesReducersThenCommunication) {
  const auto in =
      A2AInstance::Create(wl::ZipfSizes(80, 2, 30, 1.3, 11), 90).value();
  const PortfolioResult result = RunPortfolio(in, nullptr);
  ASSERT_TRUE(result.best.has_value());
  const AlgorithmScore& winner = result.scoreboard[result.best_index];
  for (const AlgorithmScore& score : result.scoreboard) {
    if (!score.produced) continue;
    EXPECT_GE(score.reducers, winner.reducers) << score.name;
    if (score.reducers == winner.reducers) {
      EXPECT_GE(score.communication, winner.communication) << score.name;
    }
  }
}

TEST(PortfolioA2ATest, InfeasibleInstanceHasNoWinner) {
  const auto in = A2AInstance::Create({90, 90}, 100).value();
  const PortfolioResult result = RunPortfolio(in, nullptr);
  EXPECT_FALSE(result.best.has_value());
  EXPECT_EQ(result.best_index, result.scoreboard.size());
  for (const AlgorithmScore& score : result.scoreboard) {
    EXPECT_FALSE(score.produced) << score.name;
  }
}

// Differential guarantee: the portfolio is never worse than the auto
// dispatcher, on random feasible instances across distributions.
TEST(PortfolioA2ATest, NeverWorseThanAutoDifferential) {
  ThreadPool pool(4);
  for (uint64_t seed = 1; seed <= 12; ++seed) {
    for (int dist = 0; dist < 3; ++dist) {
      std::vector<InputSize> sizes;
      if (dist == 0) {
        sizes = wl::UniformSizes(70, 2, 25, seed);
      } else if (dist == 1) {
        sizes = wl::ZipfSizes(70, 2, 45, 1.4, seed);
      } else {
        sizes = wl::EqualSizes(70, 4);
      }
      const auto in = A2AInstance::Create(sizes, 100).value();
      const PortfolioResult result = RunPortfolio(in, &pool);
      ASSERT_TRUE(result.best.has_value()) << "seed " << seed;
      EXPECT_TRUE(ValidateA2A(in, *result.best).ok) << "seed " << seed;
      EXPECT_LE(result.best->num_reducers(), AutoReducersA2A(in))
          << "seed " << seed << " dist " << dist;
    }
  }
}

TEST(PortfolioA2ATest, PoolAndInlineRunsAgree) {
  ThreadPool pool(4);
  for (uint64_t seed = 1; seed <= 5; ++seed) {
    const auto in =
        A2AInstance::Create(wl::ZipfSizes(60, 2, 30, 1.2, seed), 80).value();
    const PortfolioResult inline_run = RunPortfolio(in, nullptr);
    const PortfolioResult pool_run = RunPortfolio(in, &pool);
    ASSERT_EQ(inline_run.best.has_value(), pool_run.best.has_value());
    EXPECT_EQ(inline_run.best_algorithm, pool_run.best_algorithm);
    EXPECT_EQ(inline_run.best->reducers, pool_run.best->reducers);
  }
}

TEST(PortfolioX2YTest, WinnerValidAndNeverWorseThanAuto) {
  ThreadPool pool(4);
  for (uint64_t seed = 1; seed <= 12; ++seed) {
    const auto x = wl::ZipfSizes(50, 2, 40, 1.3, seed);
    const auto y = wl::UniformSizes(30, 2, 35, seed + 500);
    const auto in = X2YInstance::Create(x, y, 100).value();
    const PortfolioResult result = RunPortfolio(in, &pool);
    ASSERT_TRUE(result.best.has_value()) << "seed " << seed;
    EXPECT_TRUE(ValidateX2Y(in, *result.best).ok) << "seed " << seed;

    auto auto_schema = SolveX2YAuto(in);
    ASSERT_TRUE(auto_schema.has_value());
    EXPECT_LE(result.best->num_reducers(), auto_schema->num_reducers())
        << "seed " << seed;
  }
}

TEST(PortfolioX2YTest, ScoreboardListsAllCandidates) {
  const auto in = X2YInstance::Create({8, 6, 4}, {5, 3}, 20).value();
  const PortfolioResult result = RunPortfolio(in, nullptr);
  ASSERT_EQ(result.scoreboard.size(), 4u);
  EXPECT_EQ(result.scoreboard[0].name, "auto");
  EXPECT_EQ(result.scoreboard[3].name, "big-small");
  ASSERT_TRUE(result.best.has_value());
  EXPECT_TRUE(ValidateX2Y(in, *result.best).ok);
}

}  // namespace
}  // namespace msp::planner
