// Algorithm portfolio: run every applicable construction, keep the best.
//
// The paper's constructions win on different instance shapes (equal
// grouping on uniform sizes, pairing/k-groups when inputs are small
// relative to q, big/small under heavy skew), and picking the best one
// per instance is exactly the NP-hard tension the paper analyzes. The
// portfolio sidesteps the prediction problem: it runs all applicable
// solvers — concurrently when given a ThreadPool — and scores the
// constructions as they come, with no post-pass, by reducer count,
// then communication cost. The `auto` dispatcher is always one of the
// candidates, so the portfolio winner is never worse than
// SolveA2AAuto / SolveX2YAuto.

#ifndef MSP_PLANNER_PORTFOLIO_H_
#define MSP_PLANNER_PORTFOLIO_H_

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "core/a2a.h"
#include "core/instance.h"
#include "core/schema.h"
#include "core/x2y.h"
#include "util/thread_pool.h"

namespace msp::planner {

/// One row of the per-algorithm scoreboard.
struct AlgorithmScore {
  std::string name;
  /// False when the algorithm's precondition failed (no schema).
  bool produced = false;
  uint64_t reducers = 0;
  uint64_t communication = 0;
  uint64_t micros = 0;  // wall time of the solve
};

/// Portfolio outcome: the winning schema plus the scoreboard.
struct PortfolioResult {
  std::optional<MappingSchema> best;  // nullopt: infeasible instance
  std::string best_algorithm;
  std::vector<AlgorithmScore> scoreboard;

  /// Index into `scoreboard` of the winner (scoreboard.size() when
  /// nothing produced a schema).
  std::size_t best_index = 0;
};

/// Runs the A2A candidates (auto, equal-grouping, binpack-pairing,
/// binpack-triples, binpack-4groups, big-small). Tasks run on `pool`
/// when non-null (the call still blocks until its own tasks finish;
/// other users' pool tasks are not waited on), inline otherwise. The
/// winner minimizes (reducers, communication), ties broken by candidate
/// order — deterministic with and without a pool.
PortfolioResult RunPortfolio(const A2AInstance& in, ThreadPool* pool,
                             const A2AOptions& options = {});

/// X2Y candidates: auto, binpack-cross, binpack-cross-tuned, big-small.
PortfolioResult RunPortfolio(const X2YInstance& in, ThreadPool* pool,
                             const X2YOptions& options = {});

}  // namespace msp::planner

#endif  // MSP_PLANNER_PORTFOLIO_H_
