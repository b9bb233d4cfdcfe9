// InstanceSpec — the one definition of a serving instance.
//
// A paper instance is A2A or X2Y plus the reducer capacity q every
// required pair must fit under (arXiv 1501.06758). The online layer
// adds how the live schema evolves: the re-plan policy, the min-move
// matching, the planner options, the deployment mode and an optional
// churn budget. Every user-settable field that changes behaviour lives
// here, once, and every boundary carries exactly this struct:
//
//  * the CLI builds it from one flag parser (cli/commands.cc);
//  * the RPC kCreateInstance request carries it (rpc::InstanceSpec is
//    an alias);
//  * the changelog's kCreate record and the snapshot's config block
//    encode it through the one codec below.
//
// Validate() checks every precondition the constructors (policy,
// assigner, budget wrapper) would otherwise enforce by aborting, so a
// hostile or mistyped spec is refused with a message before anything
// is built. GetSpec validates, so no decoded spec is ever invalid.
//
// The update codec shared by the changelog and the RPC protocol lives
// here too, next to the spec codec.

#ifndef MSP_ONLINE_SPEC_H_
#define MSP_ONLINE_SPEC_H_

#include <cstdint>
#include <string>

#include "online/assigner.h"
#include "online/budget.h"
#include "online/delta.h"
#include "online/policy.h"
#include "online/trace.h"
#include "util/binary_io.h"

namespace msp::online {

struct InstanceSpec {
  /// Problem shape: false = A2A (every pair), true = X2Y (cross pairs).
  bool x2y = false;
  /// Initial reducer capacity q, in (0, kMaxCapacity].
  uint64_t capacity = 0;
  /// Repair-vs-replan escalation policy.
  PolicySpec policy;
  /// Matching backend of min-move re-plan deploys (delta.h).
  DeltaMatching matching = DeltaMatching::kGreedy;
  /// Measure the greedy-vs-Hungarian deploy gap for the drift policy.
  bool measure_matching_gap = false;
  /// Per-instance churn budget (budget.h); bytes 0 = unbudgeted.
  BudgetConfig budget;
  /// Plan re-plans with the algorithm portfolio (planner/service.h).
  bool use_portfolio = false;
  /// Soft planner budget in ms; 0 = unlimited.
  double budget_ms = 0.0;
  /// Charge every re-plan as a full reassignment (churn baselines).
  bool full_reassign_on_replan = false;

  /// Empty when the spec is buildable; otherwise why it is not.
  std::string Validate() const;

  /// The assigner configuration this spec describes (the budget, which
  /// wraps the assigner, is not part of it).
  OnlineConfig ToOnlineConfig() const;
  /// The spec of `config` plus `budget`. A live `config.policy` object
  /// is not representable; the spec carries `config.policy_spec`.
  static InstanceSpec Of(const OnlineConfig& config,
                         const BudgetConfig& budget = {});

  bool operator==(const InstanceSpec&) const = default;
};

/// Wire/disk codec of a spec (little-endian, see spec.cc for the
/// layout). GetSpec refuses truncation, out-of-range enum and flag
/// bytes, and any spec that fails Validate.
void PutSpec(std::string* out, const InstanceSpec& spec);
bool GetSpec(BinaryReader* in, InstanceSpec* spec, std::string* error);

/// Codec of one update event: kind u8 | side u8 | id u32 | value u64.
void PutUpdate(std::string* out, const Update& update);
bool GetUpdate(BinaryReader* in, Update* update, std::string* error);

}  // namespace msp::online

#endif  // MSP_ONLINE_SPEC_H_
