#include "sim/simulator.h"

#include <algorithm>
#include <optional>
#include <string>
#include <utility>

#include "obs/alloc.h"
#include "obs/span.h"

namespace msp::sim {

namespace {

using online::ChurnStats;
using online::Update;
using online::UpdateKind;
using online::UpdateResult;

const char* KindName(UpdateKind kind) {
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

// The assigner inherits the simulator's metrics sink unless the caller
// wired its own — so one registry snapshot holds online.* churn next
// to the engine's mr.* series.
online::OnlineConfig SimOnlineConfig(const SimConfig& config) {
  online::OnlineConfig oc = config.online;
  if (oc.metrics == nullptr) oc.metrics = config.metrics;
  return oc;
}

}  // namespace

ClusterSimulator::ClusterSimulator(const SimConfig& config)
    : config_(config),
      assigner_(SimOnlineConfig(config)),
      cluster_(SimulatedCluster::Config{
          .workers = config.shards == 0 ? 1 : config.shards,
          .metrics = config.metrics}) {
  assigner_.SetMoveLog(&plan_);
  if (obs::Registry* reg = config_.metrics) {
    alloc_bytes_ = reg->counter("sim.alloc_bytes_total");
    allocs_ = reg->counter("sim.allocs_total");
  }
}

ClusterSimulator::~ClusterSimulator() { assigner_.SetMoveLog(nullptr); }

StepRecord ClusterSimulator::Step(const Update& update) {
  obs::Span span("sim.step");
  obs::AllocScope alloc_scope(alloc_bytes_, allocs_);
  StepRecord record;
  record.step = ++steps_seen_;
  record.kind = update.kind;
  span.Arg("kind", KindName(update.kind));

  plan_.clear();
  UpdateResult result;
  if (config_.batch <= 1) {
    result = assigner_.Apply(update);
  } else {
    result = assigner_.ApplyDeferred(update);
    if (result.applied &&
        assigner_.pending_decision_updates() >= config_.batch) {
      const UpdateResult decision = assigner_.PolicyCheckpoint();
      result.replanned = decision.replanned;
      result.churn += decision.churn;
    }
  }
  record.applied = result.applied;
  record.replanned = result.replanned;
  if (!result.applied) {
    ++report_.rejected;
    // A rejected update must leave the live schema untouched — an
    // empty plan reconciles trivially, and the placement check below
    // still runs.
  } else {
    ++applied_steps_;
  }
  ExecuteAndReconcile(result.churn, &record);
  span.Arg("applied", record.applied);
  span.Arg("executed_bytes", record.executed_shipped_bytes);

  if (record.applied && config_.oracle_every != 0 &&
      applied_steps_ % config_.oracle_every == 0) {
    ++report_.oracle_checks;
    std::string oracle_error;
    if (!cluster_.OracleCheck(assigner_.live_state(), &oracle_error)) {
      ++report_.oracle_failures;
      if (report_.first_error.empty()) {
        report_.first_error = "step " + std::to_string(record.step) +
                              " engine oracle: " + oracle_error;
      }
    }
  }
  report_.steps.push_back(record);
  return record;
}

void ClusterSimulator::ExecuteAndReconcile(const ChurnStats& churn,
                                           StepRecord* record) {
  record->predicted_moved_inputs = churn.inputs_moved;
  record->predicted_moved_bytes = churn.bytes_moved;
  record->predicted_dropped_inputs = churn.inputs_dropped;

  const bool ran_job = std::any_of(
      plan_.begin(), plan_.end(), [](const online::ReshuffleOp& op) {
        return op.kind == online::ReshuffleOp::Kind::kShip;
      });
  const SimulatedCluster::Outcome outcome = cluster_.Execute(plan_);
  plan_.clear();
  if (ran_job && outcome.ok) ++report_.reshuffle_jobs;
  record->executed_shipped_records = outcome.shipped_records;
  record->executed_shipped_bytes = outcome.shipped_bytes;
  record->executed_dropped_records = outcome.dropped_records;

  const online::LiveState& state = assigner_.live_state();
  record->live_reducers = state.reducers.size();
  record->max_reducer_load =
      state.loads.empty()
          ? 0
          : *std::max_element(state.loads.begin(), state.loads.end());

  record->reconciled =
      outcome.ok &&
      outcome.shipped_bytes == record->predicted_moved_bytes &&
      outcome.shipped_records == record->predicted_moved_inputs &&
      outcome.dropped_records == record->predicted_dropped_inputs;
  std::string placement_error;
  record->placement_ok = cluster_.MatchesLiveState(state, &placement_error);

  report_.predicted_bytes += record->predicted_moved_bytes;
  report_.executed_bytes += record->executed_shipped_bytes;
  report_.predicted_inputs += record->predicted_moved_inputs;
  report_.executed_records += record->executed_shipped_records;
  report_.predicted_drops += record->predicted_dropped_inputs;
  report_.executed_drops += record->executed_dropped_records;
  if (!record->reconciled) {
    ++report_.mismatched_steps;
    if (report_.first_error.empty()) {
      // Name the pair that actually disagreed (bytes, then records,
      // then drops; an engine/plan inconsistency may leave all equal).
      std::string gap;
      if (outcome.shipped_bytes != record->predicted_moved_bytes) {
        gap = "executed " + std::to_string(outcome.shipped_bytes) +
              " bytes != predicted " +
              std::to_string(record->predicted_moved_bytes);
      } else if (outcome.shipped_records !=
                 record->predicted_moved_inputs) {
        gap = "shipped " + std::to_string(outcome.shipped_records) +
              " records != predicted " +
              std::to_string(record->predicted_moved_inputs);
      } else if (outcome.dropped_records !=
                 record->predicted_dropped_inputs) {
        gap = "dropped " + std::to_string(outcome.dropped_records) +
              " copies != predicted " +
              std::to_string(record->predicted_dropped_inputs);
      } else {
        gap = "plan execution failed";
      }
      report_.first_error =
          "step " + std::to_string(record->step) + " (" +
          KindName(record->kind) + "): " + gap +
          (outcome.error.empty() ? "" : " (" + outcome.error + ")");
    }
  }
  if (!record->placement_ok) {
    ++report_.placement_failures;
    if (report_.first_error.empty()) {
      report_.first_error = "step " + std::to_string(record->step) +
                            " placement: " + placement_error;
    }
  }
}

bool ClusterSimulator::ReplayTrace(const online::UpdateTrace& trace) {
  std::vector<std::optional<InputId>> live_of_trace;
  online::TraceIdTranslator translator(&live_of_trace);
  for (const Update& raw : trace.updates) {
    Update update = raw;
    if (!translator.Translate(&update)) {
      StepRecord record;
      record.step = ++steps_seen_;
      record.kind = update.kind;
      record.skipped = true;
      // Nothing ran: the step reconciles and the placement is
      // whatever the previous step verified.
      record.reconciled = true;
      record.placement_ok = true;
      ++report_.skipped;
      report_.steps.push_back(record);
      continue;
    }
    const StepRecord record = Step(update);
    if (update.kind == UpdateKind::kAddInput) {
      translator.RecordAdd(record.applied
                               ? std::optional<InputId>(
                                     assigner_.next_id() - 1)
                               : std::nullopt);
    }
  }
  // Trailing partial batch window: one final policy decision, its
  // churn executed and reconciled like any step (mirrors the CLI
  // replay driver's final checkpoint).
  if (config_.batch > 1 && assigner_.pending_decision_updates() > 0) {
    plan_.clear();
    const UpdateResult decision = assigner_.PolicyCheckpoint();
    StepRecord record;
    record.step = ++steps_seen_;
    record.checkpoint = true;
    record.applied = true;
    record.replanned = decision.replanned;
    ExecuteAndReconcile(decision.churn, &record);
    report_.steps.push_back(record);
  }
  return report_.ok();
}

std::vector<std::string> ClusterSimulator::CsvHeader() {
  return {"step",           "kind",
          "applied",        "replanned",
          "predicted_bytes", "executed_bytes",
          "predicted_moves", "executed_records",
          "predicted_drops", "executed_drops",
          "reducers",       "max_load",
          "reconciled",     "placement_ok"};
}

std::vector<std::string> ClusterSimulator::CsvRow(const StepRecord& r) {
  return {std::to_string(r.step),
          r.checkpoint ? "checkpoint" : KindName(r.kind),
          r.skipped ? "skipped" : (r.applied ? "1" : "0"),
          r.replanned ? "1" : "0",
          std::to_string(r.predicted_moved_bytes),
          std::to_string(r.executed_shipped_bytes),
          std::to_string(r.predicted_moved_inputs),
          std::to_string(r.executed_shipped_records),
          std::to_string(r.predicted_dropped_inputs),
          std::to_string(r.executed_dropped_records),
          std::to_string(r.live_reducers),
          std::to_string(r.max_reducer_load),
          r.reconciled ? "1" : "0",
          r.placement_ok ? "1" : "0"};
}

}  // namespace msp::sim
