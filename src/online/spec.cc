#include "online/spec.h"

#include <cmath>

namespace msp::online {

namespace {

// Longest policy name the codec accepts ("every-n" is the longest
// real one); bounds the allocation a corrupt length can provoke.
constexpr uint64_t kMaxPolicyName = 64;

}  // namespace

std::string InstanceSpec::Validate() const {
  if (capacity == 0) return "capacity must be positive";
  if (capacity > kMaxCapacity) {
    return "capacity above 10^18 would let feasibility sums wrap uint64";
  }
  // Comparisons are written so NaN fails them.
  if (policy.name == "drift") {
    if (!(policy.reducer_drift >= 1.0)) {
      return "drift policy needs reducer_drift >= 1";
    }
    if (!(policy.comm_drift >= 1.0)) {
      return "drift policy needs comm_drift >= 1";
    }
    if (policy.max_updates == 0) return "drift policy needs max_updates > 0";
  } else if (policy.name == "every-n") {
    if (policy.every_n == 0) return "every-n policy needs every_n > 0";
  } else if (policy.name != "never" && policy.name != "always") {
    return "unknown policy '" + policy.name +
           "' (drift|never|always|every-n)";
  }
  if (matching != DeltaMatching::kGreedy &&
      matching != DeltaMatching::kHungarian) {
    return "matching out of range";
  }
  if (!(budget_ms >= 0.0) || std::isinf(budget_ms)) {
    return "budget_ms must be finite and >= 0";
  }
  if (budget.bytes_per_window > 0 && budget.window_updates == 0) {
    return "churn budget needs window_updates > 0";
  }
  return {};
}

OnlineConfig InstanceSpec::ToOnlineConfig() const {
  OnlineConfig config;
  config.x2y = x2y;
  config.capacity = capacity;
  config.policy_spec = policy;
  config.delta_matching = matching;
  config.measure_matching_gap = measure_matching_gap;
  config.plan_options.use_portfolio = use_portfolio;
  config.plan_options.budget_ms = budget_ms;
  config.full_reassign_on_replan = full_reassign_on_replan;
  return config;
}

InstanceSpec InstanceSpec::Of(const OnlineConfig& config,
                              const BudgetConfig& budget) {
  InstanceSpec spec;
  spec.x2y = config.x2y;
  spec.capacity = config.capacity;
  spec.policy = config.policy_spec;
  spec.matching = config.delta_matching;
  spec.measure_matching_gap = config.measure_matching_gap;
  spec.budget = budget;
  spec.use_portfolio = config.plan_options.use_portfolio;
  spec.budget_ms = config.plan_options.budget_ms;
  spec.full_reassign_on_replan = config.full_reassign_on_replan;
  return spec;
}

// Layout: x2y u8 | capacity u64 | policy name str | reducer_drift f64
// | comm_drift f64 | max_updates u64 | every_n u64 | cooldown u64
// | matching u8 | measure_matching_gap u8 | window_updates u64
// | bytes_per_window u64 | use_portfolio u8 | budget_ms f64
// | full_reassign_on_replan u8.
void PutSpec(std::string* out, const InstanceSpec& spec) {
  PutU8(out, spec.x2y ? 1 : 0);
  PutU64(out, spec.capacity);
  PutString(out, spec.policy.name);
  PutF64(out, spec.policy.reducer_drift);
  PutF64(out, spec.policy.comm_drift);
  PutU64(out, spec.policy.max_updates);
  PutU64(out, spec.policy.every_n);
  PutU64(out, spec.policy.cooldown);
  PutU8(out, static_cast<uint8_t>(spec.matching));
  PutU8(out, spec.measure_matching_gap ? 1 : 0);
  PutU64(out, spec.budget.window_updates);
  PutU64(out, spec.budget.bytes_per_window);
  PutU8(out, spec.use_portfolio ? 1 : 0);
  PutF64(out, spec.budget_ms);
  PutU8(out, spec.full_reassign_on_replan ? 1 : 0);
}

bool GetSpec(BinaryReader* in, InstanceSpec* spec, std::string* error) {
  uint8_t x2y = 0;
  uint8_t matching = 0;
  uint8_t measure_gap = 0;
  uint8_t portfolio = 0;
  uint8_t full_reassign = 0;
  if (!in->GetU8(&x2y) || !in->GetU64(&spec->capacity) ||
      !in->GetString(&spec->policy.name, kMaxPolicyName) ||
      !in->GetF64(&spec->policy.reducer_drift) ||
      !in->GetF64(&spec->policy.comm_drift) ||
      !in->GetU64(&spec->policy.max_updates) ||
      !in->GetU64(&spec->policy.every_n) ||
      !in->GetU64(&spec->policy.cooldown) || !in->GetU8(&matching) ||
      !in->GetU8(&measure_gap) ||
      !in->GetU64(&spec->budget.window_updates) ||
      !in->GetU64(&spec->budget.bytes_per_window) ||
      !in->GetU8(&portfolio) || !in->GetF64(&spec->budget_ms) ||
      !in->GetU8(&full_reassign)) {
    *error = "instance spec truncated";
    return false;
  }
  if (x2y > 1 || measure_gap > 1 || portfolio > 1 || full_reassign > 1 ||
      matching > static_cast<uint8_t>(DeltaMatching::kHungarian)) {
    *error = "instance spec flag out of range";
    return false;
  }
  spec->x2y = x2y != 0;
  spec->matching = static_cast<DeltaMatching>(matching);
  spec->measure_matching_gap = measure_gap != 0;
  spec->use_portfolio = portfolio != 0;
  spec->full_reassign_on_replan = full_reassign != 0;
  const std::string why = spec->Validate();
  if (!why.empty()) {
    *error = "invalid instance spec: " + why;
    return false;
  }
  return true;
}

void PutUpdate(std::string* out, const Update& update) {
  PutU8(out, static_cast<uint8_t>(update.kind));
  PutU8(out, static_cast<uint8_t>(update.side));
  PutU32(out, update.id);
  PutU64(out, update.value);
}

bool GetUpdate(BinaryReader* in, Update* update, std::string* error) {
  uint8_t kind = 0;
  uint8_t side = 0;
  if (!in->GetU8(&kind) || !in->GetU8(&side) || !in->GetU32(&update->id) ||
      !in->GetU64(&update->value)) {
    *error = "update truncated";
    return false;
  }
  if (kind > static_cast<uint8_t>(UpdateKind::kSetCapacity) || side > 1) {
    *error = "update kind/side out of range";
    return false;
  }
  update->kind = static_cast<UpdateKind>(kind);
  update->side = static_cast<Side>(side);
  return true;
}

}  // namespace msp::online
