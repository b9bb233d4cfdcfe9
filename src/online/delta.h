// Minimum-move deltas between two mapping schemas.
//
// When the repair-vs-replan policy escalates to a full re-plan, naively
// deploying the fresh schema would reassign every input copy — the
// exact churn the online layer exists to avoid. MinMoveDelta instead
// matches the new schema's reducers onto the old schema's reducers so
// that as many already-placed copies as possible stay put: reducers are
// greedily paired by shared input bytes (largest overlap first), and
// only the symmetric difference of each matched pair, plus wholly new
// or wholly retired reducers, counts as churn.
//
// The matching is a deterministic greedy maximum-overlap pairing by
// default. It visits the overlapping (old, new) reducer pairs in the
// order overlap bytes descending, then old index ascending, then new
// index ascending, and pairs each one whose reducers are both still
// free; tests/online_delta_test.cc pins this order against a
// sort-based reference.
//
// Cost model, with C the copies of both schemas and P the co-occurring
// (old, new) reducer pairs (the candidates). Reducers already sorted,
// as every live and every remapped planned schema is, are read in
// place; only an unsorted one is copied. Overlaps come from a flat
// inverted input index built by one stable radix sort of all copies by
// input id, one O(C) pass per 8-bit digit of the largest id, so the
// index is sized by the copy count, never by the range of the ids.
// Summing the overlaps is linear in the co-occurrences, and the
// candidate array is sized once from their count. The candidates are
// not sorted: a linear scan puts each new reducer's best candidate at
// the front of its group, and a heap of group heads yields the next
// pair. A group is heapified (O(size)) only when its head is first
// found stale, so only the candidates the greedy inspects after that
// pay a log factor. An exact Hungarian assignment backend (O(n^3) in
// the reducer count) is kept as the optimal baseline: it maximizes
// total retained overlap, hence provably minimizes shipped bytes, and
// the greedy matcher's gap is measured against it in the differential
// tests and bench_o1_online.

#ifndef MSP_ONLINE_DELTA_H_
#define MSP_ONLINE_DELTA_H_

#include <cstdint>
#include <span>
#include <vector>

#include "core/instance.h"
#include "core/schema.h"
#include "online/repair.h"

namespace msp::online {

/// Matching backend of the min-move delta. Greedy pairs reducers by
/// descending shared bytes (near-optimal, linear in co-occurrences);
/// Hungarian solves the assignment problem exactly (max total overlap
/// = min shipped bytes) and serves as the honest optimal baseline the
/// greedy matcher is measured against. Both are deterministic, and
/// both migrate to the *same* final schema — only which copies ship
/// (and so the churn charged) differs.
enum class DeltaMatching : uint8_t { kGreedy = 0, kHungarian = 1 };

/// Churn implied by migrating the live assignment `from` to `to`.
struct DeltaStats {
  uint64_t inputs_moved = 0;    // copies in `to` not retained from `from`
  uint64_t inputs_dropped = 0;  // copies in `from` with no place in `to`
  uint64_t bytes_moved = 0;     // sum of sizes over moved copies
  uint64_t reducers_created = 0;
  uint64_t reducers_destroyed = 0;
  uint64_t reducers_matched = 0;
  /// Work, not churn: (old, new) reducer pairs sharing an input, the
  /// candidates the matching chose from.
  uint64_t overlapping_pairs = 0;

  ChurnStats ToChurn() const {
    ChurnStats churn;
    churn.inputs_moved = inputs_moved;
    churn.inputs_dropped = inputs_dropped;
    churn.bytes_moved = bytes_moved;
    churn.reducers_created = reducers_created;
    churn.reducers_destroyed = reducers_destroyed;
    return churn;
  }

  bool operator==(const DeltaStats&) const = default;
};

/// Itemization of a min-move delta: the per-copy re-shuffle plan the
/// stats summarize. `matched_from[t]` is the `from` reducer the t-th
/// `to` reducer was matched onto (kUnmatched = freshly created — every
/// member ships). Ships/drops partition exactly the copies the stats
/// count: sum of ship bytes == bytes_moved, ship count == inputs_moved,
/// drop count == inputs_dropped.
struct DeltaDetail {
  static constexpr uint32_t kUnmatched = ~uint32_t{0};

  std::vector<uint32_t> matched_from;  // indexed by `to` reducer
  std::vector<std::pair<uint32_t, InputId>> ships;  // (to index, input)
  std::vector<std::pair<uint32_t, InputId>> drops;  // (from index, input)
};

/// Computes the migration churn from the reducers `from` to the
/// reducers `to`. `sizes` must be indexed by every input id appearing
/// in either. Identical reducer sets (up to order) yield an all-zero
/// delta. When `detail` is non-null it receives the matching and the
/// per-copy ship/drop plan consistent with the returned stats.
DeltaStats MinMoveDelta(const std::vector<InputSize>& sizes,
                        std::span<const Reducer> from,
                        std::span<const Reducer> to,
                        DeltaDetail* detail = nullptr,
                        DeltaMatching matching = DeltaMatching::kGreedy);

/// MinMoveDelta between two schemas' reducers.
inline DeltaStats MinMoveDelta(
    const std::vector<InputSize>& sizes, const MappingSchema& from,
    const MappingSchema& to, DeltaDetail* detail = nullptr,
    DeltaMatching matching = DeltaMatching::kGreedy) {
  return MinMoveDelta(sizes, std::span<const Reducer>(from.reducers),
                      std::span<const Reducer>(to.reducers), detail,
                      matching);
}

}  // namespace msp::online

#endif  // MSP_ONLINE_DELTA_H_
