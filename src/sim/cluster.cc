#include "sim/cluster.h"

#include <algorithm>
#include <cstdint>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "core/schema.h"
#include "mapreduce/engine.h"
#include "mapreduce/job.h"
#include "mapreduce/schema_partitioner.h"
#include "mapreduce/types.h"
#include "util/thread_pool.h"

namespace msp::sim {

namespace {

using online::LiveState;
using online::ReshuffleOp;
using online::ReshufflePlan;

// Deterministic payload fill: the content is irrelevant (only sizes
// are weighed), but distinct inputs get distinct bytes so accidental
// record mixups cannot cancel out in the byte totals.
char FillChar(InputId id) { return static_cast<char>('a' + id % 23); }

// Swallows reducer groups; re-shuffle jobs only measure the shuffle.
class SinkReducer : public mr::GroupReducer {
 public:
  void Reduce(mr::ReducerIndex, const mr::KeyValueList&,
              mr::KeyValueList*) const override {}
};

// Emits every unordered pair of keys co-located in a reducer group,
// packed into one 64-bit key (the pair-coverage witness stream).
class PairWitnessReducer : public mr::GroupReducer {
 public:
  void Reduce(mr::ReducerIndex, const mr::KeyValueList& group,
              mr::KeyValueList* out) const override {
    for (std::size_t i = 0; i < group.size(); ++i) {
      for (std::size_t j = i + 1; j < group.size(); ++j) {
        const uint64_t a = std::min(group[i].key, group[j].key);
        const uint64_t b = std::max(group[i].key, group[j].key);
        out->push_back({(a << 32) | b, ""});
      }
    }
  }
};

}  // namespace

SimulatedCluster::~SimulatedCluster() = default;

ThreadPool* SimulatedCluster::WorkerPool() const {
  if (pool_ == nullptr) {
    pool_ = std::make_unique<ThreadPool>(
        std::max<std::size_t>(config_.workers, 1));
  }
  return pool_.get();
}

SimulatedCluster::Outcome SimulatedCluster::Execute(
    const ReshufflePlan& plan) {
  Outcome outcome;
  const auto fail = [&outcome](std::string why) {
    outcome.ok = false;
    if (outcome.error.empty()) outcome.error = std::move(why);
    return outcome;
  };

  // Apply the plan to the placement in order (within one update a copy
  // may ship to a reducer a later op folds away, so order matters),
  // collecting the ships for the engine job.
  std::vector<ReshuffleOp> ships;
  for (const ReshuffleOp& op : plan) {
    if (op.kind == ReshuffleOp::Kind::kShip) {
      if (op.bytes > kMaxSimPayloadBytes) {
        return fail("copy of input " + std::to_string(op.input) +
                    " too large to materialize (" +
                    std::to_string(op.bytes) + " bytes)");
      }
      if (!hosted_[op.reducer_uid].insert(op.input).second) {
        return fail("plan ships input " + std::to_string(op.input) +
                    " to reducer uid " + std::to_string(op.reducer_uid) +
                    " which already hosts it");
      }
      ships.push_back(op);
      continue;
    }
    const auto it = hosted_.find(op.reducer_uid);
    if (it == hosted_.end() || it->second.erase(op.input) == 0) {
      return fail("plan drops input " + std::to_string(op.input) +
                  " from reducer uid " + std::to_string(op.reducer_uid) +
                  " which does not host it");
    }
    if (it->second.empty()) hosted_.erase(it);
    ++outcome.dropped_records;
  }
  if (ships.empty()) return outcome;

  // One engine job executes the ships: the i-th ship is the i-th
  // record, routed to its destination reducer (uids densified in
  // first-seen order). The engine's shuffle accounting — not the plan
  // — produces the executed byte/record counts.
  std::unordered_map<uint64_t, mr::ReducerIndex> dense_of_uid;
  std::vector<uint64_t> ship_bytes_of_dense;
  std::vector<uint64_t> ship_records_of_dense;
  mr::KeyValueList records;
  std::vector<std::vector<mr::ReducerIndex>> routes;
  records.reserve(ships.size());
  routes.reserve(ships.size());
  for (const ReshuffleOp& op : ships) {
    auto [it, fresh] = dense_of_uid.try_emplace(
        op.reducer_uid, static_cast<mr::ReducerIndex>(dense_of_uid.size()));
    if (fresh) {
      ship_bytes_of_dense.push_back(0);
      ship_records_of_dense.push_back(0);
    }
    ship_bytes_of_dense[it->second] += op.bytes;
    ++ship_records_of_dense[it->second];
    records.push_back({records.size(),
                       std::string(static_cast<std::size_t>(op.bytes),
                                   FillChar(op.input))});
    routes.push_back({it->second});
  }

  mr::EngineConfig engine_config;
  engine_config.num_workers = config_.workers;
  engine_config.pool = WorkerPool();
  const mr::MapReduceEngine engine(engine_config);
  const mr::RoutingPartitioner partitioner(
      std::move(routes), static_cast<mr::ReducerIndex>(dense_of_uid.size()));
  mr::KeyValueList output;
  const mr::JobMetrics metrics = engine.Run(
      records, mr::IdentityMapper(), partitioner, SinkReducer(), &output);

  mr::PublishJobMetrics(metrics, config_.metrics, "reshuffle");
  outcome.shipped_records = metrics.shuffle_records;
  outcome.shipped_bytes = metrics.shuffle_bytes;
  // The engine's per-reducer ledger must agree with the plan's per-uid
  // totals — a routing or accounting bug shows up here, not as a
  // silently wrong total.
  for (const auto& [uid, dense] : dense_of_uid) {
    if (metrics.reducer_bytes[dense] != ship_bytes_of_dense[dense] ||
        metrics.reducer_records[dense] != ship_records_of_dense[dense]) {
      return fail("engine delivered " +
                  std::to_string(metrics.reducer_bytes[dense]) + " bytes / " +
                  std::to_string(metrics.reducer_records[dense]) +
                  " records to reducer uid " + std::to_string(uid) +
                  ", plan shipped " +
                  std::to_string(ship_bytes_of_dense[dense]) + " / " +
                  std::to_string(ship_records_of_dense[dense]));
    }
  }
  return outcome;
}

bool SimulatedCluster::MatchesLiveState(const LiveState& state,
                                        std::string* error) const {
  const auto fail = [error](std::string why) {
    if (error != nullptr) *error = std::move(why);
    return false;
  };
  if (hosted_.size() != state.reducers.size()) {
    return fail("cluster hosts " + std::to_string(hosted_.size()) +
                " reducers, live schema has " +
                std::to_string(state.reducers.size()));
  }
  for (std::size_t r = 0; r < state.reducers.size(); ++r) {
    const uint64_t uid = state.reducer_uids[r];
    const auto it = hosted_.find(uid);
    if (it == hosted_.end()) {
      return fail("live reducer uid " + std::to_string(uid) +
                  " missing from the cluster");
    }
    const Reducer& members = state.reducers[r];
    if (!std::equal(members.begin(), members.end(), it->second.begin(),
                    it->second.end())) {
      return fail("member mismatch at reducer uid " + std::to_string(uid));
    }
    uint64_t load = 0;
    for (InputId id : members) load += state.sizes[id];
    if (load != state.loads[r]) {
      return fail("load mismatch at reducer uid " + std::to_string(uid) +
                  ": cluster " + std::to_string(load) + ", assigner " +
                  std::to_string(state.loads[r]));
    }
  }
  return true;
}

bool SimulatedCluster::OracleCheck(const LiveState& state,
                                   std::string* error) const {
  const auto fail = [error](std::string why) {
    if (error != nullptr) *error = std::move(why);
    return false;
  };
  // Dense projection of the alive instance, in ascending id order (the
  // same canonical order the assigner's own oracle uses).
  std::vector<InputId> ordered(state.alive_ids.begin(),
                               state.alive_ids.end());
  std::sort(ordered.begin(), ordered.end());
  if (ordered.size() < 2) return true;
  std::vector<InputId> dense_of(state.sizes.size(), ~InputId{0});
  for (InputId d = 0; d < ordered.size(); ++d) dense_of[ordered[d]] = d;

  MappingSchema dense_schema;
  dense_schema.reducers.reserve(state.reducers.size());
  for (const Reducer& reducer : state.reducers) {
    Reducer mapped;
    mapped.reserve(reducer.size());
    for (InputId id : reducer) {
      if (dense_of[id] == ~InputId{0}) {
        return fail("live schema references a dead input");
      }
      mapped.push_back(dense_of[id]);
    }
    dense_schema.reducers.push_back(std::move(mapped));
  }

  mr::KeyValueList records;
  records.reserve(ordered.size());
  for (InputId d = 0; d < ordered.size(); ++d) {
    const InputSize w = state.sizes[ordered[d]];
    if (w > kMaxSimPayloadBytes) {
      return fail("input too large to materialize for the oracle job");
    }
    records.push_back(
        {d, std::string(static_cast<std::size_t>(w), FillChar(ordered[d]))});
  }

  mr::EngineConfig engine_config;
  engine_config.num_workers = config_.workers;
  engine_config.reducer_capacity = state.capacity;
  engine_config.pool = WorkerPool();
  const mr::MapReduceEngine engine(engine_config);
  const mr::SchemaPartitioner partitioner(dense_schema, ordered.size());
  mr::KeyValueList witnesses;
  const mr::JobMetrics metrics =
      engine.Run(records, mr::IdentityMapper(), partitioner,
                 PairWitnessReducer(), &witnesses);
  mr::PublishJobMetrics(metrics, config_.metrics, "oracle");

  if (metrics.capacity_violated) {
    return fail("engine partition overflows capacity " +
                std::to_string(state.capacity));
  }
  for (std::size_t r = 0; r < dense_schema.reducers.size(); ++r) {
    if (metrics.reducer_bytes[r] != state.loads[r]) {
      return fail("engine delivered " +
                  std::to_string(metrics.reducer_bytes[r]) +
                  " bytes to reducer " + std::to_string(r) +
                  ", assigner load is " + std::to_string(state.loads[r]));
    }
  }
  std::unordered_set<uint64_t> covered;
  covered.reserve(witnesses.size());
  for (const mr::KeyValue& kv : witnesses) covered.insert(kv.key);
  for (uint64_t a = 0; a < ordered.size(); ++a) {
    for (uint64_t b = a + 1; b < ordered.size(); ++b) {
      if (state.x2y &&
          state.sides[ordered[a]] == state.sides[ordered[b]]) {
        continue;
      }
      if (covered.count((a << 32) | b) == 0) {
        return fail("pair (" + std::to_string(ordered[a]) + ", " +
                    std::to_string(ordered[b]) +
                    ") meets at no engine reducer");
      }
    }
  }
  return true;
}

}  // namespace msp::sim
