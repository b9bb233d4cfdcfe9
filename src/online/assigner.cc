#include "online/assigner.h"

#include <algorithm>
#include <utility>

#include "core/bounds.h"
#include "core/improve.h"
#include "core/validate.h"
#include "obs/alloc.h"
#include "obs/span.h"
#include "util/check.h"

namespace msp::online {

namespace {

const char* KindLabel(UpdateKind kind) {
  switch (kind) {
    case UpdateKind::kAddInput:
      return "add";
    case UpdateKind::kRemoveInput:
      return "remove";
    case UpdateKind::kResizeInput:
      return "resize";
    case UpdateKind::kSetCapacity:
      return "setq";
  }
  return "?";
}

// The internally-owned planner inherits the assigner's metrics sink
// unless the caller wired its own into the planner config.
planner::PlannerConfig OwnedPlannerConfig(const OnlineConfig& config) {
  planner::PlannerConfig pc = config.planner;
  if (pc.metrics == nullptr) pc.metrics = config.metrics;
  return pc;
}

// Adds the full-reassignment churn of deploying `schema` from scratch.
void CountFullDeploy(const std::vector<InputSize>& sizes,
                     const MappingSchema& schema, ChurnStats* churn) {
  churn->reducers_created += schema.num_reducers();
  for (const Reducer& reducer : schema.reducers) {
    for (InputId id : reducer) {
      ++churn->inputs_moved;
      churn->bytes_moved += sizes[id];
    }
  }
}

}  // namespace

OnlineAssigner::OnlineAssigner(const OnlineConfig& config)
    : config_(config),
      policy_(config.policy ? config.policy : MakePolicy(config.policy_spec)),
      planner_(config.shared_planner
                   ? config.shared_planner
                   : std::make_shared<planner::PlannerService>(
                         OwnedPlannerConfig(config))) {
  MSP_CHECK_GT(config.capacity, 0u) << "OnlineConfig.capacity must be set";
  MSP_CHECK_LE(config.capacity, kMaxCapacity)
      << "capacity above 10^18 would let feasibility sums wrap uint64";
  MSP_CHECK(policy_ != nullptr)
      << "unknown policy spec '" << config.policy_spec.name << "'";
  state_.x2y = config.x2y;
  state_.capacity = config.capacity;
  if (obs::Registry* reg = config_.metrics) {
    for (const UpdateKind kind :
         {UpdateKind::kAddInput, UpdateKind::kRemoveInput,
          UpdateKind::kResizeInput, UpdateKind::kSetCapacity}) {
      const obs::Labels labels = {{"kind", KindLabel(kind)}};
      const auto k = static_cast<std::size_t>(kind);
      pub_.applied_by_kind[k] =
          reg->counter("online.updates_applied_total", labels);
      pub_.churn_bytes_by_kind[k] =
          reg->counter("online.churn_bytes_total", labels);
    }
    pub_.churn_bytes_replan =
        reg->counter("online.churn_bytes_total", {{"kind", "replan"}});
    pub_.rejected = reg->counter("online.updates_rejected_total");
    pub_.inputs_moved = reg->counter("online.churn_inputs_moved_total");
    pub_.inputs_dropped = reg->counter("online.churn_inputs_dropped_total");
    pub_.reducers_created = reg->counter("online.reducers_created_total");
    pub_.reducers_destroyed =
        reg->counter("online.reducers_destroyed_total");
    pub_.policy_consults = reg->counter("online.policy_consults_total");
    pub_.repairs = reg->counter("online.repairs_total");
    pub_.replans = reg->counter("online.replans_total");
    pub_.plans_computed = reg->counter("online.plans_computed_total");
    pub_.alloc_bytes = reg->counter("online.alloc_bytes_total");
    pub_.allocs = reg->counter("online.allocs_total");
  }
}

UpdateResult OnlineAssigner::Apply(const Update& update) {
  UpdateResult result = ApplyDeferred(update);
  if (!result.applied) return result;
  const UpdateResult decision = PolicyCheckpoint();
  result.replanned = decision.replanned;
  result.churn += decision.churn;
  return result;
}

UpdateResult OnlineAssigner::ApplyDeferred(const Update& update) {
  obs::Span span("online.update");
  obs::AllocScope alloc_scope(pub_.alloc_bytes, pub_.allocs);
  UpdateResult result;
  switch (update.kind) {
    case UpdateKind::kAddInput:
      result = DoAdd(update.value, update.side);
      break;
    case UpdateKind::kRemoveInput:
      result = DoRemove(update.id);
      break;
    case UpdateKind::kResizeInput:
      result = DoResize(update.id, update.value);
      break;
    case UpdateKind::kSetCapacity:
      result = DoSetCapacity(update.value);
      break;
  }
  if (result.applied) {
    ++totals_.updates;
    totals_.churn += result.churn;
    ++updates_since_replan_;
    ++updates_since_decision_;
    if (pub_.rejected != nullptr) {
      const auto k = static_cast<std::size_t>(update.kind);
      pub_.applied_by_kind[k]->Inc();
      pub_.churn_bytes_by_kind[k]->Inc(result.churn.bytes_moved);
      PublishChurn(result.churn);
    }
  }
  if (span.active()) {
    span.Arg("kind", KindLabel(update.kind));
    span.Arg("applied", result.applied);
    span.Arg("churn_bytes", result.churn.bytes_moved);
  }
  return result;
}

UpdateResult OnlineAssigner::PolicyCheckpoint() {
  UpdateResult result;
  if (updates_since_decision_ == 0) {
    result.error = "no updates since the last policy decision";
    return result;
  }
  result.applied = true;
  MaybeReplan(&result);
  totals_.churn += result.churn;  // replan churn only; repairs already counted
  if (result.replanned) {
    ++totals_.replans;
  } else {
    ++totals_.repairs;
  }
  if (pub_.rejected != nullptr) {
    if (result.replanned) {
      pub_.replans->Inc();
      pub_.churn_bytes_replan->Inc(result.churn.bytes_moved);
      PublishChurn(result.churn);
    } else {
      pub_.repairs->Inc();
    }
  }
  updates_since_decision_ = 0;
  return result;
}

BatchResult OnlineAssigner::ApplyBatch(std::span<const Update> updates) {
  BatchResult batch;
  for (const Update& update : updates) {
    const UpdateResult result = ApplyDeferred(update);
    if (update.kind == UpdateKind::kAddInput) {
      batch.new_ids.push_back(result.applied ? result.new_id : std::nullopt);
    }
    if (result.applied) {
      ++batch.applied;
      batch.churn += result.churn;
    } else {
      ++batch.rejected;
      if (batch.first_error.empty()) batch.first_error = result.error;
    }
  }
  if (batch.applied > 0) {
    const UpdateResult decision = PolicyCheckpoint();
    batch.replanned = decision.replanned;
    batch.churn += decision.churn;
  }
  return batch;
}

UpdateResult OnlineAssigner::AddInput(InputSize size, Side side) {
  return Apply(Update::Add(size, side));
}

UpdateResult OnlineAssigner::RemoveInput(InputId id) {
  return Apply(Update::Remove(id));
}

UpdateResult OnlineAssigner::ResizeInput(InputId id, InputSize size) {
  return Apply(Update::Resize(id, size));
}

UpdateResult OnlineAssigner::SetCapacity(InputSize capacity) {
  return Apply(Update::SetCapacity(capacity));
}

std::string OnlineAssigner::CheckAdd(InputSize size, Side side) const {
  if (size == 0) return "input size must be positive";
  if (size > state_.capacity) return "input larger than capacity";
  // Per-pair feasibility: the new input must fit next to its largest
  // (current or future peer on the other side) partner.
  InputSize max_partner = 0;
  for (InputId j : state_.alive_ids) {
    if (config_.x2y && state_.sides[j] == side) continue;
    max_partner = std::max(max_partner, state_.sizes[j]);
  }
  if (max_partner > 0 && size + max_partner > state_.capacity) {
    return "pair would exceed capacity: no reducer could cover it";
  }
  return "";
}

std::string OnlineAssigner::CheckResize(InputId id, InputSize size) const {
  if (!is_alive(id)) return "unknown or departed input id";
  if (size == 0) return "input size must be positive";
  if (size > state_.capacity) return "input larger than capacity";
  InputSize max_partner = 0;
  for (InputId j : state_.alive_ids) {
    if (j == id) continue;
    if (config_.x2y && state_.sides[j] == state_.sides[id]) continue;
    max_partner = std::max(max_partner, state_.sizes[j]);
  }
  if (max_partner > 0 && size + max_partner > state_.capacity) {
    return "pair would exceed capacity: no reducer could cover it";
  }
  return "";
}

std::string OnlineAssigner::CheckSetCapacity(InputSize capacity) const {
  if (capacity == 0) return "capacity must be positive";
  if (capacity > kMaxCapacity) {
    return "capacity above the 10^18 limit";
  }
  InputSize max_x = 0;
  InputSize max_y = 0;  // A2A: second-largest overall
  for (InputId j : state_.alive_ids) {
    const InputSize w = state_.sizes[j];
    if (!config_.x2y || state_.sides[j] == Side::kX) {
      if (!config_.x2y) {
        if (w >= max_x) {
          max_y = max_x;
          max_x = w;
        } else {
          max_y = std::max(max_y, w);
        }
      } else {
        max_x = std::max(max_x, w);
      }
    } else {
      max_y = std::max(max_y, w);
    }
  }
  if (std::max(max_x, max_y) > capacity) {
    return "capacity below an alive input's size";
  }
  if (max_x > 0 && max_y > 0 && max_x + max_y > capacity) {
    return "capacity below the largest required pair";
  }
  return "";
}

std::string OnlineAssigner::CheckUpdate(const Update& update) const {
  switch (update.kind) {
    case UpdateKind::kAddInput:
      return CheckAdd(update.value,
                      config_.x2y ? update.side : Side::kX);
    case UpdateKind::kRemoveInput:
      return is_alive(update.id) ? "" : "unknown or departed input id";
    case UpdateKind::kResizeInput:
      return CheckResize(update.id, update.value);
    case UpdateKind::kSetCapacity:
      return CheckSetCapacity(update.value);
  }
  return "";
}

UpdateResult OnlineAssigner::DoAdd(InputSize size, Side side) {
  if (!config_.x2y) side = Side::kX;
  if (std::string why = CheckAdd(size, side); !why.empty()) {
    return Reject(std::move(why));
  }

  const InputId id = static_cast<InputId>(state_.sizes.size());
  state_.sizes.push_back(size);
  state_.sides.push_back(side);
  state_.alive.push_back(true);
  state_.RegisterAlive(id);

  UpdateResult result;
  result.applied = true;
  result.new_id = id;
  RepairAdd(&state_, id, &result.churn);
  return result;
}

UpdateResult OnlineAssigner::DoRemove(InputId id) {
  if (!is_alive(id)) return Reject("unknown or departed input id");
  UpdateResult result;
  result.applied = true;
  RepairRemove(&state_, id, &result.churn);
  return result;
}

UpdateResult OnlineAssigner::DoResize(InputId id, InputSize size) {
  if (std::string why = CheckResize(id, size); !why.empty()) {
    return Reject(std::move(why));
  }
  UpdateResult result;
  result.applied = true;
  RepairResize(&state_, id, size, &result.churn);
  return result;
}

UpdateResult OnlineAssigner::DoSetCapacity(InputSize capacity) {
  if (std::string why = CheckSetCapacity(capacity); !why.empty()) {
    return Reject(std::move(why));
  }
  UpdateResult result;
  result.applied = true;
  RepairCapacity(&state_, capacity, &result.churn);
  return result;
}

bool OnlineAssigner::Seed(const std::vector<InputSize>& sizes,
                          const std::vector<Side>& sides,
                          const MappingSchema& schema, bool validate,
                          std::string* error, uint64_t resume_updates) {
  const auto fail = [error](const char* why) {
    if (error != nullptr) *error = why;
    return false;
  };
  if (!state_.sizes.empty() || totals_.updates != 0 || totals_.rejected != 0) {
    return fail("Seed requires a pristine assigner");
  }
  if (sizes.empty()) return fail("Seed needs at least one input");
  if (!sides.empty() && sides.size() != sizes.size()) {
    return fail("sides must be empty or parallel to sizes");
  }
  if (config_.x2y && sides.empty()) {
    return fail("X2Y seeds need one side per input");
  }
  for (InputSize w : sizes) {
    if (w == 0) return fail("seed sizes must be positive");
    if (w > state_.capacity) return fail("seed input larger than capacity");
  }
  for (const Reducer& reducer : schema.reducers) {
    Reducer sorted = reducer;
    std::sort(sorted.begin(), sorted.end());
    if (!sorted.empty() && sorted.back() >= sizes.size()) {
      return fail("seed schema references an unknown input id");
    }
    if (std::adjacent_find(sorted.begin(), sorted.end()) != sorted.end()) {
      return fail("seed schema holds a duplicate member");
    }
  }

  state_.sizes = sizes;
  state_.sides = config_.x2y ? sides : std::vector<Side>(sizes.size(),
                                                         Side::kX);
  state_.alive.assign(sizes.size(), true);
  // Build the alive index directly instead of RegisterAlive per id:
  // the ids are dense, and sizing the coverage triangle once (inside
  // RebuildDerived) avoids 2x geometric-growth slack on m^2/2 entries.
  state_.alive_ids.resize(sizes.size());
  state_.alive_pos.resize(sizes.size());
  for (InputId id = 0; id < sizes.size(); ++id) {
    state_.alive_ids[id] = id;
    state_.alive_pos[id] = id;
  }
  state_.ResetSchema(schema);

  const auto rollback = [this, error](const std::string& why) {
    state_ = LiveState{};
    state_.x2y = config_.x2y;
    state_.capacity = config_.capacity;
    if (error != nullptr) *error = why;
    return false;
  };
  for (InputSize load : state_.loads) {
    if (load > state_.capacity) {
      return rollback("seed schema overflows a reducer");
    }
  }
  if (validate) {
    std::string oracle_error;
    if (!ValidateNow(&oracle_error)) {
      return rollback("seed schema invalid: " + oracle_error);
    }
  }
  totals_.updates = resume_updates;
  return true;
}

UpdateResult OnlineAssigner::Compact() {
  UpdateResult result;
  result.applied = true;
  MappingSchema merged = state_.ToSchema();
  MergeReducers(state_.sizes, state_.capacity, &merged);
  result.churn = DeployMinMove(std::move(merged));
  totals_.churn += result.churn;
  return result;
}

ChurnStats OnlineAssigner::DeployMinMove(MappingSchema fresh_live) {
  obs::Span span("online.deploy");
  DeltaDetail detail;
  DeltaStats delta;
  {
    obs::Span diff("online.deploy.delta");
    delta = MinMoveDelta(state_.sizes, state_.reducers, fresh_live.reducers,
                         &detail, config_.delta_matching);
    if (config_.measure_matching_gap) {
      // One extra matching with the other backend. Both land on the
      // same final schema; only the shipped bytes differ, and Hungarian
      // is provably minimal, so greedy - hungarian >= 0 up to ties.
      const bool greedy_deployed =
          config_.delta_matching == DeltaMatching::kGreedy;
      const DeltaStats other = MinMoveDelta(
          state_.sizes, state_.reducers, fresh_live.reducers, nullptr,
          greedy_deployed ? DeltaMatching::kHungarian
                          : DeltaMatching::kGreedy);
      const uint64_t greedy_bytes =
          greedy_deployed ? delta.bytes_moved : other.bytes_moved;
      const uint64_t exact_bytes =
          greedy_deployed ? other.bytes_moved : delta.bytes_moved;
      last_matching_gap_bytes_ =
          greedy_bytes > exact_bytes ? greedy_bytes - exact_bytes : 0;
    }
  }
  if (span.active()) {
    span.Arg("candidates", delta.overlapping_pairs);
    span.Arg("old_reducers", static_cast<uint64_t>(state_.reducers.size()));
    span.Arg("new_reducers",
             static_cast<uint64_t>(fresh_live.num_reducers()));
    span.Arg("matched", delta.reducers_matched);
  }
  obs::Span install("online.deploy.install");
  // Matched reducers keep their stable identity; created ones get
  // fresh uids, assigned here so the ships below can reference them.
  std::vector<uint64_t> uids(fresh_live.num_reducers());
  for (std::size_t t = 0; t < uids.size(); ++t) {
    uids[t] = detail.matched_from[t] == DeltaDetail::kUnmatched
                  ? state_.next_reducer_uid++
                  : state_.reducer_uids[detail.matched_from[t]];
  }
  if (state_.move_log != nullptr) {
    // Drops before ships: drops reference pre-deploy placements, and a
    // copy evicted from one reducer may ship to another in this delta.
    for (const auto& [f, id] : detail.drops) {
      state_.move_log->push_back({ReshuffleOp::Kind::kDrop, id,
                                  state_.reducer_uids[f], state_.sizes[id]});
    }
    for (const auto& [t, id] : detail.ships) {
      state_.move_log->push_back(
          {ReshuffleOp::Kind::kShip, id, uids[t], state_.sizes[id]});
    }
  }
  state_.ResetSchemaWithUids(std::move(fresh_live), std::move(uids));
  return delta.ToChurn();
}

UpdateResult OnlineAssigner::Reject(std::string why) {
  ++totals_.rejected;
  if (pub_.rejected != nullptr) pub_.rejected->Inc();
  UpdateResult result;
  result.error = std::move(why);
  return result;
}

void OnlineAssigner::PublishChurn(const ChurnStats& churn) {
  pub_.inputs_moved->Inc(churn.inputs_moved);
  pub_.inputs_dropped->Inc(churn.inputs_dropped);
  pub_.reducers_created->Inc(churn.reducers_created);
  pub_.reducers_destroyed->Inc(churn.reducers_destroyed);
}

void OnlineAssigner::MaybeReplan(UpdateResult* result) {
  if (pub_.policy_consults != nullptr) pub_.policy_consults->Inc();
  PolicySignals signals;
  signals.num_inputs = state_.num_alive();
  signals.live_reducers = state_.reducers.size();
  for (InputSize load : state_.loads) signals.live_communication += load;
  signals.updates_since_replan = updates_since_replan_;
  signals.last_fresh_reducers = last_fresh_reducers_;
  signals.matching_gap_bytes = last_matching_gap_bytes_;
  // The dense rebuild and lower bounds are the expensive part of the
  // signals; compute them only for policies that read them, and keep
  // the view for the Plan call below.
  std::optional<DenseView> dense;
  if (policy_->needs_bounds()) {
    obs::Span consult("online.consult");
    dense.emplace(BuildDense());
    const QualitySnapshot quality = QualityFrom(*dense);
    signals.lb_reducers = quality.lb_reducers;
    signals.lb_communication = quality.lb_communication;
  }
  if (!policy_->ShouldReplan(signals)) return;
  obs::Span span("online.replan");

  if (!dense.has_value()) dense.emplace(BuildDense());
  if (!dense->usable()) return;
  planner::PlanResult plan =
      dense->a2a.has_value()
          ? planner_->Plan(*dense->a2a, config_.plan_options)
          : planner_->Plan(*dense->x2y, config_.plan_options);
  if (!plan.schema.has_value()) return;  // cannot happen on feasible state
  if (pub_.plans_computed != nullptr) pub_.plans_computed->Inc();

  // The planner was consulted: the drift clock restarts whether or not
  // the fresh plan is deployed, and the fresh plan's quality is
  // remembered so the hysteresis policy can tell structural gaps from
  // repair decay.
  updates_since_replan_ = 0;
  last_fresh_reducers_ = plan.schema->num_reducers();
  if (!config_.full_reassign_on_replan) {
    // Deploy only a strictly better plan. When repair already matches
    // what a fresh construction achieves, the drift is structural (the
    // solver's own approximation gap) and swapping schemas would be
    // pure churn. The baselines (full reassign) keep their
    // replan-every-update semantics and always deploy.
    const uint64_t fresh_reducers = plan.schema->num_reducers();
    const bool better =
        fresh_reducers < signals.live_reducers ||
        (fresh_reducers == signals.live_reducers &&
         plan.stats.communication_cost < signals.live_communication);
    if (!better) return;
  }

  // The plan is over dense ids; rewrite it to live ids in place. The
  // dense→live map ascends within each side, so a sorted reducer
  // usually stays sorted; re-sort only the ones the remap disordered.
  MappingSchema& fresh = *plan.schema;
  for (Reducer& reducer : fresh.reducers) {
    for (InputId& id : reducer) id = dense->live_of_dense[id];
    if (!std::is_sorted(reducer.begin(), reducer.end())) {
      std::sort(reducer.begin(), reducer.end());
    }
  }
  DeployReplanned(std::move(fresh), result);
  if (span.active()) {
    span.Arg("deployed", result->replanned);
    span.Arg("fresh_reducers", last_fresh_reducers_);
    span.Arg("churn_bytes", result->churn.bytes_moved);
  }
}

void OnlineAssigner::DeployReplanned(MappingSchema fresh_live,
                                     UpdateResult* result) {
  ChurnStats replan_churn;
  if (config_.full_reassign_on_replan) {
    for (std::size_t r = 0; r < state_.reducers.size(); ++r) {
      replan_churn.inputs_dropped += state_.reducers[r].size();
      if (state_.move_log != nullptr) {
        for (InputId id : state_.reducers[r]) {
          state_.move_log->push_back({ReshuffleOp::Kind::kDrop, id,
                                      state_.reducer_uids[r],
                                      state_.sizes[id]});
        }
      }
    }
    replan_churn.reducers_destroyed += state_.reducers.size();
    CountFullDeploy(state_.sizes, fresh_live, &replan_churn);
    // Every fresh reducer is a new deployment: assign uids up front so
    // the ship log can name them.
    std::vector<uint64_t> uids(fresh_live.num_reducers());
    for (uint64_t& uid : uids) uid = state_.next_reducer_uid++;
    if (state_.move_log != nullptr) {
      for (std::size_t t = 0; t < fresh_live.reducers.size(); ++t) {
        for (InputId id : fresh_live.reducers[t]) {
          state_.move_log->push_back(
              {ReshuffleOp::Kind::kShip, id, uids[t], state_.sizes[id]});
        }
      }
    }
    state_.ResetSchemaWithUids(std::move(fresh_live), std::move(uids));
  } else {
    replan_churn = DeployMinMove(std::move(fresh_live));
  }
  result->churn += replan_churn;
  result->replanned = true;
}

OnlineAssigner::DenseView OnlineAssigner::BuildDense() const {
  DenseView view;
  std::vector<InputSize> x_sizes;
  std::vector<InputSize> y_sizes;
  std::vector<InputId> x_live;
  std::vector<InputId> y_live;
  // Ascending id order keeps the dense projection (and with it every
  // downstream plan) identical regardless of the removal history that
  // shaped the unordered alive index.
  std::vector<InputId> ordered = state_.alive_ids;
  std::sort(ordered.begin(), ordered.end());
  for (InputId id : ordered) {
    if (config_.x2y && state_.sides[id] == Side::kY) {
      y_sizes.push_back(state_.sizes[id]);
      y_live.push_back(id);
    } else {
      x_sizes.push_back(state_.sizes[id]);
      x_live.push_back(id);
    }
  }
  if (!config_.x2y) {
    view.a2a = A2AInstance::Create(std::move(x_sizes), state_.capacity);
    view.live_of_dense = std::move(x_live);
    return view;
  }
  view.x2y = X2YInstance::Create(std::move(x_sizes), std::move(y_sizes),
                                 state_.capacity);
  view.live_of_dense = std::move(x_live);
  view.live_of_dense.insert(view.live_of_dense.end(), y_live.begin(),
                            y_live.end());
  return view;
}

bool OnlineAssigner::ValidateNow(std::string* error) const {
  const DenseView dense = BuildDense();
  if (!dense.usable()) {
    if (error != nullptr) *error = "live instance failed to build";
    return false;
  }
  std::vector<InputId> dense_of(state_.sizes.size(), ~InputId{0});
  for (InputId d = 0; d < dense.live_of_dense.size(); ++d) {
    dense_of[dense.live_of_dense[d]] = d;
  }
  MappingSchema dense_schema;
  dense_schema.reducers.reserve(state_.reducers.size());
  for (const Reducer& reducer : state_.reducers) {
    Reducer mapped;
    mapped.reserve(reducer.size());
    for (InputId id : reducer) {
      if (dense_of[id] == ~InputId{0}) {
        if (error != nullptr) *error = "schema references a dead input";
        return false;
      }
      mapped.push_back(dense_of[id]);
    }
    dense_schema.reducers.push_back(std::move(mapped));
  }
  const ValidationResult result =
      dense.a2a.has_value() ? ValidateA2A(*dense.a2a, dense_schema)
                            : ValidateX2Y(*dense.x2y, dense_schema);
  if (!result.ok && error != nullptr) *error = result.error;
  return result.ok;
}

QualitySnapshot OnlineAssigner::Quality() const {
  return QualityFrom(BuildDense());
}

QualitySnapshot OnlineAssigner::QualityFrom(const DenseView& dense) const {
  QualitySnapshot snapshot;
  snapshot.live_reducers = state_.reducers.size();
  for (InputSize load : state_.loads) snapshot.live_communication += load;
  if (dense.a2a.has_value() && dense.a2a->num_inputs() >= 2) {
    const A2ALowerBounds lb = A2ALowerBounds::Compute(*dense.a2a);
    snapshot.bounds_available = true;
    snapshot.lb_reducers = lb.reducers;
    snapshot.lb_communication = lb.communication;
  } else if (dense.x2y.has_value() && dense.x2y->num_x() >= 1 &&
             dense.x2y->num_y() >= 1) {
    const X2YLowerBounds lb = X2YLowerBounds::Compute(*dense.x2y);
    snapshot.bounds_available = true;
    snapshot.lb_reducers = lb.reducers;
    snapshot.lb_communication = lb.communication;
  }
  return snapshot;
}

}  // namespace msp::online
