// The simulated cluster: a persistent data placement driven by
// re-shuffle plans, executed on the MapReduce engine.
//
// The online layer (src/online) reasons about churn as bookkeeping;
// this class makes it physical. It holds the cluster's current
// placement — which input copies live at which reducer, keyed by the
// stable reducer uids LiveState assigns — and advances it only by
// executing ReshufflePlans: every kShip op becomes one real record
// (payload materialized at the copy's byte size) routed through a
// RoutingPartitioner and delivered by a MapReduceEngine shuffle, so
// "bytes re-shuffled" is measured by the engine's own communication
// accounting, not copied from the plan; kDrop ops are local deletes
// (free, exactly as the churn ledger treats them).
//
// Two independent checks close the loop against the online layer:
//  * MatchesLiveState — the placement reached by executing the plans
//    must equal the assigner's live schema, reducer by reducer (uid,
//    members, and byte load);
//  * OracleCheck — a full engine job over the live inputs, partitioned
//    by the live schema, must co-locate every required pair within
//    capacity (the engine-side analogue of ValidateA2A/ValidateX2Y).

#ifndef MSP_SIM_CLUSTER_H_
#define MSP_SIM_CLUSTER_H_

#include <cstdint>
#include <map>
#include <memory>
#include <set>
#include <string>

#include "mapreduce/metrics.h"
#include "online/moves.h"
#include "online/repair.h"

namespace msp {
class ThreadPool;  // util/thread_pool.h
}

namespace msp::sim {

/// Ceiling on a single copy's materialized payload. The simulator
/// builds real records (one byte per size unit) so the engine can
/// weigh them; a trace with astronomic sizes must fail with an error,
/// not an allocation storm.
inline constexpr InputSize kMaxSimPayloadBytes = 1 << 20;

/// See the file comment.
class SimulatedCluster {
 public:
  struct Config {
    /// Worker threads of the engine executing re-shuffle jobs (the
    /// simulated cluster's shards).
    std::size_t workers = 1;
    /// Optional metrics sink: every engine job run by the cluster
    /// publishes mr.* series (kind="reshuffle" for Execute jobs,
    /// kind="oracle" for OracleCheck jobs). Not owned; may be null.
    obs::Registry* metrics = nullptr;
  };

  /// Outcome of executing one re-shuffle plan.
  struct Outcome {
    bool ok = true;           // plan applied and engine counters agree
    uint64_t shipped_records = 0;  // engine-delivered record copies
    uint64_t shipped_bytes = 0;    // engine-measured shuffle bytes
    uint64_t dropped_records = 0;  // local deletes (no bytes on the wire)
    std::string error;
  };

  explicit SimulatedCluster(Config config) : config_(config) {}
  ~SimulatedCluster();  // out of line: pool_ sees ThreadPool complete

  /// Applies `plan` in order to the placement and executes the ships
  /// as one engine job (no job when the plan ships nothing). The
  /// returned shipped counters come from the engine's JobMetrics; the
  /// per-reducer delivered bytes/records are cross-checked against the
  /// plan's per-uid totals, and any disagreement (or an inconsistent
  /// plan: shipping a copy already hosted, dropping one that is not)
  /// fails the outcome.
  Outcome Execute(const online::ReshufflePlan& plan);

  /// True when the placement equals `state`'s live schema exactly:
  /// same reducer uids, same member sets, and byte loads matching
  /// `state.loads` under the current sizes.
  bool MatchesLiveState(const online::LiveState& state,
                        std::string* error) const;

  /// Engine-side schema oracle: runs a full job over the alive inputs
  /// partitioned by the live schema and verifies that every required
  /// pair meets at some reducer, that no reducer receives more than
  /// `state.capacity` bytes, and that per-reducer delivered bytes
  /// equal the assigner's loads. Trivially true below two inputs.
  bool OracleCheck(const online::LiveState& state, std::string* error) const;

  /// Reducers currently holding data.
  std::size_t num_reducers() const { return hosted_.size(); }

 private:
  /// The shared engine pool, lazily spawned and kept alive across
  /// engine jobs: a step's delta re-shuffle is a tiny job, so thread
  /// spin-up would dominate it. `mutable` because OracleCheck is
  /// logically const but still runs its job on the shared workers;
  /// callers already serialize Execute/OracleCheck, matching the
  /// one-Run-at-a-time contract of EngineConfig::pool.
  ThreadPool* WorkerPool() const;

  Config config_;
  mutable std::unique_ptr<ThreadPool> pool_;
  /// uid -> hosted input copies. Ordered so iteration (and with it
  /// every failure message) is deterministic.
  std::map<uint64_t, std::set<InputId>> hosted_;
};

}  // namespace msp::sim

#endif  // MSP_SIM_CLUSTER_H_
