// Instance canonicalization for the planning service.
//
// Two instances that differ only by a permutation of their inputs or by
// a common scale factor of all sizes *and* the capacity have exactly the
// same mapping schemas (up to renaming the inputs), so they should share
// one plan-cache entry. Canonicalization maps an instance to the
// representative of its equivalence class:
//
//  * sizes sorted descending (ties broken by original id, so the
//    canonical order is deterministic);
//  * sizes and capacity divided by g = gcd(w_1, .., w_m, q). Including
//    q in the gcd keeps the scaling exact — every capacity threshold
//    the solvers compute (q/2, q/k, residuals q - w) divides through,
//    so solving the canonical instance is isomorphic to solving the
//    original;
//  * for X2Y, the two sides are additionally ordered so that the
//    lexicographically larger canonical size vector is the X side
//    (the problem is symmetric in X and Y).
//
// Each canonicalization records the id permutation it applied, and
// Decanonicalize rewrites a schema for the canonical instance back into
// a schema for the original instance.

#ifndef MSP_PLANNER_CANONICAL_H_
#define MSP_PLANNER_CANONICAL_H_

#include <cstdint>
#include <vector>

#include "core/instance.h"
#include "core/schema.h"

namespace msp::planner {

/// Cache key of a canonical instance. Two instances are plan-equivalent
/// iff their keys compare equal.
struct PlanKey {
  enum Kind : uint8_t { kA2A = 0, kX2Y = 1 };

  Kind kind = kA2A;
  /// Number of X-side inputs (X2Y only; 0 for A2A). The canonical
  /// `sizes` vector lists the X side first, then the Y side.
  uint32_t num_x = 0;
  InputSize capacity = 0;
  std::vector<InputSize> sizes;

  bool operator==(const PlanKey&) const = default;
};

/// 64-bit FNV-1a over the key's fields. Deterministic across runs.
uint64_t HashPlanKey(const PlanKey& key);

/// Canonical form of an A2A instance plus the map back to original ids.
struct CanonicalA2A {
  A2AInstance instance;
  /// original_ids[c] = original id of canonical input c.
  std::vector<InputId> original_ids;
  /// The gcd divided out of sizes and capacity.
  InputSize scale = 1;
};

/// Canonical form of an X2Y instance. `original_ids` maps canonical
/// *global* ids (canonical X first, then canonical Y) to original
/// global ids; when `swapped`, the original Y side became canonical X.
struct CanonicalX2Y {
  X2YInstance instance;
  std::vector<InputId> original_ids;
  InputSize scale = 1;
  bool swapped = false;
};

CanonicalA2A Canonicalize(const A2AInstance& in);
CanonicalX2Y Canonicalize(const X2YInstance& in);

/// Cache key of a canonical instance (pass `canonical.instance`).
PlanKey MakeKey(const A2AInstance& canonical);
PlanKey MakeKey(const X2YInstance& canonical);

/// Rewrites a schema over canonical ids into one over original ids
/// (reducers keep their structure; members are remapped and re-sorted).
/// Works in place on `schema`: pass an rvalue to skip the copy.
MappingSchema Decanonicalize(const std::vector<InputId>& original_ids,
                             MappingSchema schema);

}  // namespace msp::planner

#endif  // MSP_PLANNER_CANONICAL_H_
