#include "planner/portfolio.h"

#include <condition_variable>
#include <functional>
#include <mutex>
#include <utility>

#include "util/timer.h"

namespace msp::planner {

namespace {

// One portfolio candidate: a named closure producing a schema.
template <typename Instance>
struct Candidate {
  std::string name;
  std::function<std::optional<MappingSchema>(const Instance&)> solve;
};

// Runs one candidate and fills its scoreboard slot (each task touches
// only its own slot, so the tasks are data-race free without locking).
template <typename Instance>
void RunCandidate(const Instance& in, const Candidate<Instance>& candidate,
                  AlgorithmScore* score,
                  std::optional<MappingSchema>* schema) {
  Stopwatch watch;
  score->name = candidate.name;
  *schema = candidate.solve(in);
  if (schema->has_value()) {
    score->produced = true;
    const SchemaStats stats = SchemaStats::Compute(in, **schema);
    score->reducers = stats.num_reducers;
    score->communication = stats.communication_cost;
  }
  score->micros = watch.ElapsedMicros();
}

// Runs all candidates (on `pool` when non-null) and picks the winner.
template <typename Instance>
PortfolioResult RunAll(const Instance& in,
                       const std::vector<Candidate<Instance>>& candidates,
                       ThreadPool* pool) {
  PortfolioResult result;
  result.scoreboard.resize(candidates.size());
  std::vector<std::optional<MappingSchema>> schemas(candidates.size());

  if (pool != nullptr && candidates.size() > 1) {
    // Per-run completion latch: ThreadPool::Wait() drains the whole
    // queue (including other planners' tasks), so each portfolio run
    // counts down only its own tasks.
    std::mutex mu;
    std::condition_variable done;
    std::size_t remaining = candidates.size();
    for (std::size_t i = 0; i < candidates.size(); ++i) {
      pool->Submit([&, i] {
        RunCandidate(in, candidates[i], &result.scoreboard[i], &schemas[i]);
        std::lock_guard<std::mutex> lock(mu);
        if (--remaining == 0) done.notify_all();
      });
    }
    std::unique_lock<std::mutex> lock(mu);
    done.wait(lock, [&] { return remaining == 0; });
  } else {
    for (std::size_t i = 0; i < candidates.size(); ++i) {
      RunCandidate(in, candidates[i], &result.scoreboard[i], &schemas[i]);
    }
  }

  result.best_index = candidates.size();
  for (std::size_t i = 0; i < candidates.size(); ++i) {
    const AlgorithmScore& score = result.scoreboard[i];
    if (!score.produced) continue;
    if (result.best_index == candidates.size()) {
      result.best_index = i;
      continue;
    }
    const AlgorithmScore& leader = result.scoreboard[result.best_index];
    if (score.reducers < leader.reducers ||
        (score.reducers == leader.reducers &&
         score.communication < leader.communication)) {
      result.best_index = i;
    }
  }
  if (result.best_index < candidates.size()) {
    result.best = std::move(schemas[result.best_index]);
    result.best_algorithm = result.scoreboard[result.best_index].name;
  }
  return result;
}

}  // namespace

PortfolioResult RunPortfolio(const A2AInstance& in, ThreadPool* pool,
                             const A2AOptions& options) {
  const std::vector<Candidate<A2AInstance>> candidates = {
      {"auto",
       [options](const A2AInstance& i) { return SolveA2AAuto(i, options); }},
      {"equal-grouping",
       [](const A2AInstance& i) { return SolveA2AEqualGrouping(i); }},
      {"binpack-pairing",
       [options](const A2AInstance& i) {
         return SolveA2ABinPackPairing(i, options);
       }},
      {"binpack-triples",
       [options](const A2AInstance& i) {
         return SolveA2ABinPackTriples(i, options);
       }},
      {"binpack-4groups",
       [options](const A2AInstance& i) {
         return SolveA2ABinPackKGroups(i, 4, options);
       }},
      {"big-small",
       [options](const A2AInstance& i) {
         return SolveA2ABigSmall(i, options);
       }},
  };
  return RunAll(in, candidates, pool);
}

PortfolioResult RunPortfolio(const X2YInstance& in, ThreadPool* pool,
                             const X2YOptions& options) {
  const std::vector<Candidate<X2YInstance>> candidates = {
      {"auto",
       [options](const X2YInstance& i) { return SolveX2YAuto(i, options); }},
      {"binpack-cross",
       [options](const X2YInstance& i) {
         return SolveX2YBinPackCross(i, options);
       }},
      {"binpack-cross-tuned",
       [options](const X2YInstance& i) {
         return SolveX2YBinPackCrossTuned(i, options);
       }},
      {"big-small",
       [options](const X2YInstance& i) {
         return SolveX2YBigSmall(i, options);
       }},
  };
  return RunAll(in, candidates, pool);
}

}  // namespace msp::planner
