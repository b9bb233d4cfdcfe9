// ClusterSimulator — executes update traces on the MapReduce engine
// and differentially verifies predicted vs. actually re-shuffled
// bytes.
//
// The paper's mapping schemas exist to minimize communication cost,
// but the online layer's churn ledger is copy accounting: "what the
// OnlineAssigner claims it moved". This simulator closes the loop with
// the execution engine. It owns one OnlineAssigner and one
// SimulatedCluster, and per trace update:
//
//  1. applies the update to the assigner with the move log attached,
//     capturing the *predicted* churn (the ledger) and the re-shuffle
//     plan (the ledger's itemization, moves.h);
//  2. executes the plan on the engine — one real record per shipped
//     copy, routed by a RoutingPartitioner, weighed by the engine's
//     shuffle accounting — producing the *executed* bytes, records,
//     and per-reducer loads;
//  3. reconciles the two exactly (per step and cumulatively): executed
//     re-shuffled bytes must equal predicted churn bytes, shipped
//     records must equal inputs moved, drops must equal inputs
//     dropped, and the placement reached by executing every plan so
//     far must equal the assigner's live schema reducer for reducer;
//  4. optionally re-checks the whole partition on the engine (a full
//     job over the alive inputs: every required pair co-located, no
//     reducer past capacity).
//
// Any gap — a move the ledger counts but no engine shuffle pays, or
// bytes the engine ships that the ledger missed — fails the step and
// is reported. `mspctl simulate` and bench_c1_simulator drive this;
// tests/sim_test.cc enforces a zero gap on every trace shape.

#ifndef MSP_SIM_SIMULATOR_H_
#define MSP_SIM_SIMULATOR_H_

#include <cstdint>
#include <string>
#include <vector>

#include "online/assigner.h"
#include "online/moves.h"
#include "online/trace.h"
#include "sim/cluster.h"

namespace msp::sim {

/// Construction-time configuration.
struct SimConfig {
  /// Assigner configuration (shape, capacity, policy, backends).
  online::OnlineConfig online;
  /// Worker threads of the engine executing re-shuffle and oracle jobs
  /// (the simulated cluster's shards).
  std::size_t shards = 1;
  /// Policy window: the escalation policy runs once per `batch`
  /// applied updates (0/1 = after every update), mirroring
  /// `mspctl online --batch`.
  std::size_t batch = 0;
  /// Run the engine-side partition oracle every N applied steps
  /// (0 disables; it is a full job over the alive inputs).
  uint64_t oracle_every = 0;
  /// Optional metrics sink, fanned out to the assigner (online.*
  /// series) and the simulated cluster (mr.* engine series), so one
  /// snapshot reports engine bytes/records next to predicted churn.
  /// Not owned; may be null.
  obs::Registry* metrics = nullptr;
};

/// Outcome of one simulated step. Predicted numbers come from the
/// assigner's churn ledger; executed numbers from the engine.
struct StepRecord {
  uint64_t step = 0;  // 1-based position in the replayed stream
  online::UpdateKind kind = online::UpdateKind::kAddInput;
  bool applied = false;
  bool skipped = false;  // trace id referenced an unknown/rejected add
  bool replanned = false;
  bool checkpoint = false;  // trailing batch-window policy decision

  uint64_t predicted_moved_inputs = 0;
  uint64_t predicted_moved_bytes = 0;
  uint64_t predicted_dropped_inputs = 0;
  uint64_t executed_shipped_records = 0;
  uint64_t executed_shipped_bytes = 0;
  uint64_t executed_dropped_records = 0;

  uint64_t live_reducers = 0;     // after the step
  uint64_t max_reducer_load = 0;  // after the step

  bool reconciled = false;    // executed == predicted, all three pairs
  bool placement_ok = false;  // cluster placement == live schema

  bool operator==(const StepRecord&) const = default;
};

/// Aggregates of a whole run.
struct SimReport {
  std::vector<StepRecord> steps;

  uint64_t predicted_bytes = 0;
  uint64_t executed_bytes = 0;
  uint64_t predicted_inputs = 0;
  uint64_t executed_records = 0;
  uint64_t predicted_drops = 0;
  uint64_t executed_drops = 0;

  uint64_t reshuffle_jobs = 0;  // engine delta jobs actually run
  uint64_t oracle_checks = 0;
  uint64_t mismatched_steps = 0;   // reconciliation failures
  uint64_t placement_failures = 0;
  uint64_t oracle_failures = 0;
  uint64_t rejected = 0;  // assigner refused the update
  uint64_t skipped = 0;   // untranslatable trace ids

  std::string first_error;

  /// True when every step reconciled exactly and every placement and
  /// oracle check passed.
  bool ok() const {
    return mismatched_steps == 0 && placement_failures == 0 &&
           oracle_failures == 0;
  }

  bool operator==(const SimReport&) const = default;
};

/// See the file comment. Not thread-safe; one simulator drives one
/// instance's stream.
class ClusterSimulator {
 public:
  explicit ClusterSimulator(const SimConfig& config);
  ~ClusterSimulator();

  ClusterSimulator(const ClusterSimulator&) = delete;
  ClusterSimulator& operator=(const ClusterSimulator&) = delete;

  /// Applies one update (ids are live assigner ids) and executes its
  /// re-shuffle plan. The returned record is also appended to the
  /// report.
  StepRecord Step(const online::Update& update);

  /// Replays a whole trace with trace-id translation (remove/resize
  /// targets of rejected adds are skipped, as in `mspctl online`),
  /// including the trailing batch-window checkpoint. Returns
  /// `report().ok()`.
  bool ReplayTrace(const online::UpdateTrace& trace);

  const SimReport& report() const { return report_; }
  const online::OnlineAssigner& assigner() const { return assigner_; }
  const SimulatedCluster& cluster() const { return cluster_; }

  /// Per-step CSV projection (header + one row per StepRecord), used
  /// by `mspctl simulate --csv` and the benches.
  static std::vector<std::string> CsvHeader();
  static std::vector<std::string> CsvRow(const StepRecord& record);

 private:
  /// Executes `plan_`, reconciles against `churn`, and fills
  /// `record`'s executed/reconciliation fields and the report totals.
  /// The caller appends the record to the report.
  void ExecuteAndReconcile(const online::ChurnStats& churn,
                           StepRecord* record);

  SimConfig config_;
  online::ReshufflePlan plan_;  // declared before the assigner holding
                                // a pointer to it
  online::OnlineAssigner assigner_;
  SimulatedCluster cluster_;
  SimReport report_;
  uint64_t steps_seen_ = 0;
  uint64_t applied_steps_ = 0;
  /// sim.alloc_* ledger handles (null without a metrics sink).
  obs::Counter* alloc_bytes_ = nullptr;
  obs::Counter* allocs_ = nullptr;
};

}  // namespace msp::sim

#endif  // MSP_SIM_SIMULATOR_H_
