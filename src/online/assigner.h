// OnlineAssigner — a live, always-valid mapping schema under updates.
//
// The paper's algorithms answer "which schema, for this size vector
// and q" once; the assigner keeps the answer *continuously* correct
// while the instance evolves: inputs arrive (AddInput), depart
// (RemoveInput), change size (ResizeInput), and the reducer capacity
// is retuned (SetCapacity). Every update is absorbed by the local
// repair engine (repair.h) with exact churn accounting; after each
// repair a pluggable policy (policy.h) compares the live schema
// against the paper's lower bounds and may escalate to a full
// PlannerService re-plan, deployed through the minimum-move delta
// (delta.h) so unchanged reducers keep their data.
//
//   OnlineConfig config;
//   config.capacity = 100;
//   OnlineAssigner assigner(config);
//   auto a = assigner.AddInput(30);         // a.new_id == 0
//   auto b = assigner.AddInput(40);         // covers pair (0, 1)
//   assigner.ResizeInput(*a.new_id, 55);    // local repair
//   assigner.RemoveInput(*b.new_id);
//   assert(assigner.ValidateNow());          // oracle-checked validity
//
// Updates that would make the instance infeasible (an input larger
// than q, a pair that fits in no reducer, a capacity below an alive
// input) are rejected — `UpdateResult::applied` is false and the live
// schema is untouched, so the validity invariant never breaks.
//
// Not thread-safe: one assigner serves one instance's update stream
// (shard across assigners for parallel serving).

#ifndef MSP_ONLINE_ASSIGNER_H_
#define MSP_ONLINE_ASSIGNER_H_

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "core/instance.h"
#include "core/schema.h"
#include "obs/metrics.h"
#include "online/coverage.h"
#include "online/delta.h"
#include "online/policy.h"
#include "online/repair.h"
#include "online/trace.h"
#include "planner/service.h"

namespace msp::online {

/// Construction-time configuration. The behaviour-changing fields are
/// exactly those of online::InstanceSpec (spec.h), the serializable
/// form every CLI, RPC, changelog and snapshot boundary carries; the
/// rest are performance knobs and host wiring.
struct OnlineConfig {
  /// Problem shape: false = A2A (every pair), true = X2Y (cross pairs).
  bool x2y = false;
  /// Initial reducer capacity q. Must be positive.
  InputSize capacity = 0;
  /// Escalation policy; null builds one from `policy_spec`. Directly
  /// supplied policies are NOT captured by snapshots or changelogs —
  /// durable flows configure through `policy_spec` instead.
  std::shared_ptr<ReplanPolicy> policy;
  /// Declarative policy selection, used when `policy` is null.
  PolicySpec policy_spec;
  /// Matching backend of the min-move delta deploying escalated
  /// re-plans (see delta.h). Greedy max-overlap is the fast default;
  /// the exact Hungarian assignment is the optimal baseline the greedy
  /// matcher is measured against (O(n^3) in the reducer count — fine
  /// at replan scale, pointless on the repair path, which never calls
  /// it).
  DeltaMatching delta_matching = DeltaMatching::kGreedy;
  /// When true, every deployed re-plan runs BOTH matching backends and
  /// records how many bytes the greedy pairing over-ships relative to
  /// the exact Hungarian assignment (exposed via
  /// `last_matching_gap_bytes()` and fed to the escalation policy as
  /// `PolicySignals::matching_gap_bytes`). Costs one extra O(n^3)
  /// matching per deploy — cheap at replan cadence, so serving hosts
  /// can leave it on to let drift policies discount deploy-cost noise.
  bool measure_matching_gap = false;
  /// When true, a re-plan counts every copy of the fresh schema as
  /// moved (the naive "reassign everything" deployment) instead of the
  /// minimum-move delta. Used by the churn baselines.
  bool full_reassign_on_replan = false;
  /// Planner used for escalated re-plans. When null, the assigner owns
  /// a private single-worker PlannerService built from `planner`; a
  /// shared service (thread-safe, e.g. one per ServingService) lets
  /// many assigners pool one planner (and, for portfolio plans, one
  /// plan cache; auto plans are never cached).
  std::shared_ptr<planner::PlannerService> shared_planner;
  /// Configuration of the internally-owned PlannerService. The default
  /// single worker keeps per-assigner overhead small.
  planner::PlannerConfig planner = {.num_threads = 1};
  /// Plan options for escalated re-plans.
  planner::PlanOptions plan_options;
  /// Optional metrics sink: when set, the assigner publishes online.*
  /// counters (per-kind applied updates and churn bytes, policy
  /// consults, repair/replan decisions) into it, and forwards the sink
  /// to a privately-owned planner. Never captured by snapshots (a
  /// restored assigner attaches whatever sink its new host provides).
  obs::Registry* metrics = nullptr;
};

/// Outcome of one update.
struct UpdateResult {
  bool applied = false;    // false: rejected, state untouched
  bool replanned = false;  // policy escalated after the repair
  std::optional<InputId> new_id;  // AddInput only
  ChurnStats churn;        // exact churn of this update (repair + replan)
  std::string error;       // why the update was rejected
};

/// Live quality snapshot against the paper's lower bounds.
/// `bounds_available` is false when the instance is too small to bound
/// (fewer than 2 inputs, or an empty X2Y side).
struct QualitySnapshot {
  bool bounds_available = false;
  uint64_t live_reducers = 0;
  uint64_t live_communication = 0;
  uint64_t lb_reducers = 0;
  uint64_t lb_communication = 0;
};

/// Lifetime counters of an assigner. `repairs` + `replans` counts
/// *policy decisions*: one per applied update in single-update mode,
/// one per window under ApplyBatch.
struct OnlineTotals {
  uint64_t updates = 0;   // applied updates
  uint64_t rejected = 0;  // infeasible/unknown-id updates refused
  uint64_t repairs = 0;   // decisions absorbed by local repair only
  uint64_t replans = 0;   // policy escalations to a full re-plan
  ChurnStats churn;       // exact cumulative churn
};

/// Outcome of one ApplyBatch window.
struct BatchResult {
  uint64_t applied = 0;
  uint64_t rejected = 0;
  bool replanned = false;  // the window's single policy check escalated
  ChurnStats churn;        // aggregate churn (repairs + any replan)
  /// One entry per kAddInput event, in order; nullopt = rejected.
  std::vector<std::optional<InputId>> new_ids;
  std::string first_error;  // first rejection reason, if any
};

/// See the file comment. All mutating calls are sequential.
class OnlineAssigner {
 public:
  explicit OnlineAssigner(const OnlineConfig& config);

  OnlineAssigner(const OnlineAssigner&) = delete;
  OnlineAssigner& operator=(const OnlineAssigner&) = delete;

  /// Applies one trace event (AddInput ignores `update.id`; the
  /// assigned id is returned in `UpdateResult::new_id`).
  UpdateResult Apply(const Update& update);

  /// Convenience wrappers over Apply.
  UpdateResult AddInput(InputSize size, Side side = Side::kX);
  UpdateResult RemoveInput(InputId id);
  UpdateResult ResizeInput(InputId id, InputSize size);
  UpdateResult SetCapacity(InputSize capacity);

  /// Applies a window of events as one batch: every event is repaired
  /// immediately (ids assigned in order, each intermediate schema
  /// valid) but the escalation policy runs once, after the window —
  /// the amortized mode for high-throughput serving.
  BatchResult ApplyBatch(std::span<const Update> updates);

  /// Building blocks of ApplyBatch, exposed for callers that must
  /// interleave work between events (the serving shard translates
  /// trace ids as adds resolve): repair-only application, then one
  /// explicit policy decision covering the window so far.
  UpdateResult ApplyDeferred(const Update& update);
  UpdateResult PolicyCheckpoint();

  /// Bulk-loads an initial instance and its already-planned schema
  /// into an empty assigner (warm start from an offline plan; the
  /// snapshot-free way to reach large m without replaying adds).
  /// `sides` may be empty for A2A. No churn is charged: the schema is
  /// pre-existing state, not movement. When `validate` is set the
  /// schema is checked against the oracle first (O(m^2) on A2A).
  /// Returns false (empty assigner untouched) on any inconsistency.
  /// `resume_updates` primes the applied-update counter: a seeded
  /// assigner standing in for one that already absorbed N changelog
  /// records reports totals().updates == N, so replay resumed from a
  /// changelog cursor keeps its counters aligned with the uninterrupted
  /// stream (policy windows still start fresh — the seed is a schema
  /// boundary, exactly like a deployed re-plan).
  bool Seed(const std::vector<InputSize>& sizes,
            const std::vector<Side>& sides, const MappingSchema& schema,
            bool validate, std::string* error = nullptr,
            uint64_t resume_updates = 0);

  /// Runs the full MergeReducers pass over the live schema, churn
  /// accounted through the min-move delta. Never breaks validity.
  UpdateResult Compact();

  /// The live schema over live (sparse, never-reused) input ids.
  MappingSchema Schema() const { return state_.ToSchema(); }

  InputSize capacity() const { return state_.capacity; }
  std::size_t num_inputs() const { return state_.num_alive(); }
  bool is_alive(InputId id) const {
    return id < state_.alive.size() && state_.alive[id];
  }
  InputSize size_of(InputId id) const { return state_.sizes[id]; }

  /// Pure feasibility check: returns the rejection reason Apply would
  /// give `update` against the current live state, or an empty string
  /// when it would be accepted. Mutates nothing — no counters, no
  /// metrics, no state. The churn-budget layer (budget.h) consults
  /// this before dry-running an update's repair on a state copy.
  std::string CheckUpdate(const Update& update) const;

  /// Checks the live schema against the ValidateA2A/ValidateX2Y
  /// oracle (on the dense projection of the live instance). Returns
  /// true when valid; fills `*error` otherwise.
  bool ValidateNow(std::string* error = nullptr) const;

  /// Live quality vs the paper's lower bounds.
  QualitySnapshot Quality() const;

  const OnlineTotals& totals() const { return totals_; }
  const OnlineConfig& config() const { return config_; }

  /// Read-only view of the live state (serving stats, tests).
  const LiveState& live_state() const { return state_; }

  /// Attaches (or detaches, with nullptr) a re-shuffle recorder: every
  /// copy placed or deleted by subsequent updates — repairs and
  /// deployed re-plans alike — is appended to `log` the moment the
  /// churn ledger counts it, so the recorded plan is the ledger's
  /// exact itemization (see moves.h). The caller owns the plan and
  /// typically clears it between updates; the pointer must outlive the
  /// assigner or be detached first. Snapshots never capture it.
  void SetMoveLog(ReshufflePlan* log) { state_.move_log = log; }

  /// The id the next applied AddInput will receive (ids are issued
  /// sequentially and never reused).
  InputId next_id() const { return static_cast<InputId>(state_.sizes.size()); }

  /// Bytes the greedy min-move matching over-shipped vs the exact
  /// Hungarian assignment on the last deployed re-plan (0 until one
  /// deploys, and always 0 unless `OnlineConfig::measure_matching_gap`
  /// is set). The drift policy reads this through PolicySignals.
  uint64_t last_matching_gap_bytes() const {
    return last_matching_gap_bytes_;
  }

  /// Applied updates not yet covered by a policy decision. Batched
  /// replays checkpoint when this reaches their window size, so window
  /// alignment survives snapshot/restore and task re-framing.
  uint64_t pending_decision_updates() const { return updates_since_decision_; }

  /// Planner used for escalated re-plans (exposes PrintStats etc.).
  planner::PlannerService& planner() { return *planner_; }

 private:
  friend class SnapshotCodec;  // serializes/restores the private state

  /// Dense projection: live ids compacted to [0, m) so the immutable
  /// instance types, the validate oracle, and the planner apply.
  struct DenseView {
    std::optional<A2AInstance> a2a;
    std::optional<X2YInstance> x2y;
    std::vector<InputId> live_of_dense;  // dense id -> live id
    bool usable() const { return a2a.has_value() || x2y.has_value(); }
  };
  DenseView BuildDense() const;
  QualitySnapshot QualityFrom(const DenseView& dense) const;

  UpdateResult Reject(std::string why);
  /// Feasibility prefixes of the Do* handlers, shared with
  /// CheckUpdate. Empty string = the update would be accepted.
  std::string CheckAdd(InputSize size, Side side) const;
  std::string CheckResize(InputId id, InputSize size) const;
  std::string CheckSetCapacity(InputSize capacity) const;
  /// Adds one update's churn to the registry totals (sink attached).
  void PublishChurn(const ChurnStats& churn);
  /// Migrates the live schema to `fresh_live` through the min-move
  /// delta: matched reducers keep their uids, the symmetric difference
  /// is logged to the move log, and the delta churn is returned.
  /// `fresh_live` becomes the live schema without a copy.
  ChurnStats DeployMinMove(MappingSchema fresh_live);
  UpdateResult DoAdd(InputSize size, Side side);
  UpdateResult DoRemove(InputId id);
  UpdateResult DoResize(InputId id, InputSize size);
  UpdateResult DoSetCapacity(InputSize capacity);
  void MaybeReplan(UpdateResult* result);
  void DeployReplanned(MappingSchema fresh_live, UpdateResult* result);

  OnlineConfig config_;
  LiveState state_;
  std::shared_ptr<ReplanPolicy> policy_;
  std::shared_ptr<planner::PlannerService> planner_;
  OnlineTotals totals_;
  /// Registry handles, resolved once at construction; all null when no
  /// metrics sink is attached (record paths are then a pointer test).
  struct Instruments {
    obs::Counter* applied_by_kind[4] = {};     // indexed by UpdateKind
    obs::Counter* churn_bytes_by_kind[4] = {};
    obs::Counter* churn_bytes_replan = nullptr;
    obs::Counter* rejected = nullptr;
    obs::Counter* inputs_moved = nullptr;
    obs::Counter* inputs_dropped = nullptr;
    obs::Counter* reducers_created = nullptr;
    obs::Counter* reducers_destroyed = nullptr;
    obs::Counter* policy_consults = nullptr;
    obs::Counter* repairs = nullptr;
    obs::Counter* replans = nullptr;
    obs::Counter* plans_computed = nullptr;  // deployed or not
    obs::Counter* alloc_bytes = nullptr;  // online.alloc_bytes_total
    obs::Counter* allocs = nullptr;       // online.allocs_total
  };
  Instruments pub_;
  uint64_t updates_since_replan_ = 0;
  /// Applied updates since the last PolicyCheckpoint; a checkpoint
  /// with nothing pending is a no-op.
  uint64_t updates_since_decision_ = 0;
  /// Reducer count the last planner consult produced (deployed or
  /// not); 0 until the first consult. Feeds the hysteresis policy.
  uint64_t last_fresh_reducers_ = 0;
  /// Greedy-vs-Hungarian over-shipping of the last deployed re-plan;
  /// see OnlineConfig::measure_matching_gap.
  uint64_t last_matching_gap_bytes_ = 0;
};

}  // namespace msp::online

#endif  // MSP_ONLINE_ASSIGNER_H_
