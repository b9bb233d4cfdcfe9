// Local repair of live mapping schemas under single-input updates.
//
// Instead of re-solving the whole instance after every change (the
// paper's algorithms are built for a fixed size vector and q), each
// update is absorbed by a *local* repair that touches as few reducers
// as possible:
//
//  * AddInput    — place the new input into existing reducers with
//                  residual capacity that contain still-unmet partners,
//                  then spawn minimal new reducers seeded with the new
//                  input for the partners that remain (first-fit-
//                  decreasing bins of capacity q - w, the same
//                  reduction to bin packing the paper's constructions
//                  use).
//  * RemoveInput — strip the departed input everywhere, prune reducers
//                  that no longer cover any required pair, and fold
//                  shrunken reducers into partners when their union
//                  still fits (the local form of MergeReducers).
//  * ResizeInput — shrink is free; growth evicts the input from
//                  now-overflowing reducers and re-covers its lost
//                  pairs with the AddInput machinery.
//  * SetCapacity — growth is free; shrink evicts members from
//                  overflowing reducers (cheapest-to-lose first) and
//                  re-covers every pair that lost its last reducer.
//
// All repairs maintain the LiveState invariant (every required pair of
// alive inputs covered, every reducer load <= capacity) and account
// churn exactly: every (input, reducer) placement created or destroyed
// is counted the moment it happens.

#ifndef MSP_ONLINE_REPAIR_H_
#define MSP_ONLINE_REPAIR_H_

#include <cstdint>
#include <utility>
#include <vector>

#include "core/instance.h"
#include "core/schema.h"
#include "online/coverage.h"
#include "online/moves.h"
#include "online/trace.h"

namespace msp::online {

/// Scratch state of the repair operations. One instance lives on the
/// LiveState and is cleared (never freed) between repairs, so a
/// steady-state repair performs zero heap allocations (buffers only
/// grow at new high-water marks). Fields are disjoint across the call
/// tree of a single repair: the top-level lists (affected/evicted/lost)
/// never overlap the CoverStar internals (partner_bits/order/rest/bins)
/// or the AbsorbShrunken copy.
struct RepairScratch {
  std::vector<uint8_t> partner_bits;  // PartnerSet bitmap, by alive rank
  std::vector<InputId> rest;          // partners left after the fill phase
  std::vector<std::pair<std::size_t, std::size_t>> order;  // (count, idx)
  std::vector<std::size_t> bins;      // CoverStar spawn bins
  std::vector<std::size_t> affected;  // reducers touched by the update
  std::vector<std::size_t> evicted;   // reducers the input overflowed
  std::vector<std::pair<InputId, InputId>> lost;  // pairs to re-cover
  Reducer members;                    // AbsorbShrunken working copy
};

/// Exact churn ledger. `inputs_moved`/`bytes_moved` count copies newly
/// placed into a reducer (data that must be shipped to it);
/// `inputs_dropped` counts copies deleted (no data movement, but lost
/// locality). Replans and repairs both feed this ledger.
struct ChurnStats {
  uint64_t inputs_moved = 0;
  uint64_t inputs_dropped = 0;
  uint64_t bytes_moved = 0;
  uint64_t reducers_created = 0;
  uint64_t reducers_destroyed = 0;

  ChurnStats& operator+=(const ChurnStats& other) {
    inputs_moved += other.inputs_moved;
    inputs_dropped += other.inputs_dropped;
    bytes_moved += other.bytes_moved;
    reducers_created += other.reducers_created;
    reducers_destroyed += other.reducers_destroyed;
    return *this;
  }

  bool operator==(const ChurnStats&) const = default;
};

/// Mutable live assignment the repair operations act on. Input ids are
/// stable and never reused; dead ids keep their last size (harmless,
/// they appear in no reducer). Between repair calls the state upholds
/// the schema-validity invariant (checked against the validate.h
/// oracle by the differential tests).
struct LiveState {
  static constexpr uint32_t kNoPos = ~uint32_t{0};

  bool x2y = false;
  InputSize capacity = 0;
  std::vector<InputSize> sizes;  // indexed by InputId
  std::vector<Side> sides;       // parallel to sizes (A2A: all kX)
  std::vector<bool> alive;       // parallel to sizes
  /// Unordered index of the alive ids, so partner scans cost O(alive)
  /// instead of O(every id ever issued) — ids are never reused, so a
  /// long-lived stream's id space far outgrows its alive set.
  std::vector<InputId> alive_ids;
  std::vector<uint32_t> alive_pos;  // parallel to sizes; kNoPos = dead
  std::vector<Reducer> reducers;  // member lists, sorted ascending
  std::vector<InputSize> loads;   // parallel to reducers
  /// Stable reducer identities, parallel to `reducers`. Assigned at
  /// creation and never reused; compaction moves them in lockstep, and
  /// a re-plan deployed via the min-move delta carries matched
  /// reducers' uids across (unmatched fresh reducers get new uids).
  /// This is what makes consecutive schemas diffable: vector indices
  /// shift, uids do not.
  std::vector<uint64_t> reducer_uids;
  uint64_t next_reducer_uid = 0;
  /// Retired reducer membership buffers (emptied, capacity retained),
  /// recycled by CreateReducer. Compact harvests the buffers of
  /// destroyed reducers here instead of freeing them.
  std::vector<Reducer> reducer_pool;
  /// Persistent repair scratch. Cleared between repairs, never freed.
  RepairScratch scratch;
  /// Optional re-shuffle recorder (not owned, may be null). When set,
  /// every copy placed or deleted is appended as a ReshuffleOp the
  /// moment the churn ledger counts it, so the plan is the ledger's
  /// exact itemization. The cluster simulator attaches one per step.
  ReshufflePlan* move_log = nullptr;
  /// Pair-coverage counts: (a, b) -> number of reducers where a and b
  /// currently meet. Dense triangular array over alive ranks; see
  /// coverage.h for the layout.
  PairCoverage cover;

  /// True when (a, b) is a required output: distinct inputs, and for
  /// X2Y on opposite sides.
  bool IsPartner(InputId a, InputId b) const {
    return a != b && (!x2y || sides[a] != sides[b]);
  }

  uint32_t CoverCount(InputId a, InputId b) const {
    return cover.Count(alive_pos[a], alive_pos[b]);
  }

  void IncrementCover(InputId a, InputId b) {
    cover.Increment(alive_pos[a], alive_pos[b]);
  }

  void DecrementCover(InputId a, InputId b) {
    cover.Decrement(alive_pos[a], alive_pos[b]);
  }

  std::size_t num_alive() const { return alive_ids.size(); }

  /// Adds the just-appended id (alive[id] already true) to the index
  /// and grows the coverage triangle by one zeroed row.
  void RegisterAlive(InputId id) {
    alive_pos.resize(sizes.size(), kNoPos);
    alive_pos[id] = static_cast<uint32_t>(alive_ids.size());
    alive_ids.push_back(id);
    cover.PushRank();
  }

  /// Swap-pop removal of `id` from the alive index. Every pair count
  /// of `id` must already be zero (strip its copies first), so the
  /// coverage triangle can mirror the swap-pop.
  void UnregisterAlive(InputId id) {
    const uint32_t pos = alive_pos[id];
    cover.SwapPopRank(pos);
    const InputId last = alive_ids.back();
    alive_ids[pos] = last;
    alive_pos[last] = pos;
    alive_ids.pop_back();
    alive_pos[id] = kNoPos;
  }

  /// Copies the live reducers into a MappingSchema (live, sparse ids).
  MappingSchema ToSchema() const {
    MappingSchema schema;
    schema.reducers = reducers;
    return schema;
  }

  /// Rebuilds reducers/loads/cover from `schema` (used after a full
  /// re-plan). Unsorted members are sorted; loads and coverage
  /// recomputed.
  /// Every reducer gets a fresh uid (full redeploy semantics).
  void ResetSchema(const MappingSchema& schema);

  /// As ResetSchema, but with caller-chosen uids (parallel to
  /// `schema.reducers`): the min-move deploy path keeps matched
  /// reducers' identities, and `schema`'s reducers are installed
  /// without allocating (moved in, or written into a live buffer that
  /// fits). `next_reducer_uid` must already be past every supplied
  /// uid.
  void ResetSchemaWithUids(MappingSchema schema, std::vector<uint64_t> uids);

  /// Recomputes loads and pair coverage from the current reducers
  /// (snapshot restore path; ResetSchema = assign + rebuild). When the
  /// uid vector does not match the reducer count (restore writes
  /// reducers directly), every reducer is assigned a fresh uid.
  void RebuildDerived();
};

/// Registers a new alive slot for `id` (sizes/sides/alive must already
/// hold it) and covers all pairs (id, alive partner). The caller
/// guarantees per-pair feasibility (size + any partner size <= q).
void RepairAdd(LiveState* state, InputId id, ChurnStats* churn);

/// Removes `id` from every reducer, prunes reducers left covering
/// nothing, and folds shrunken reducers into partners where the union
/// still fits.
void RepairRemove(LiveState* state, InputId id, ChurnStats* churn);

/// Changes the size of `id` to `new_size`, evicting it from reducers
/// that overflow and re-covering the pairs that lost their last
/// reducer. The caller guarantees the new size keeps every required
/// pair feasible.
void RepairResize(LiveState* state, InputId id, InputSize new_size,
                  ChurnStats* churn);

/// Changes the capacity. Shrinking evicts members from overflowing
/// reducers and re-covers uncovered pairs. The caller guarantees every
/// alive size and required pair still fits in `new_capacity`.
void RepairCapacity(LiveState* state, InputSize new_capacity,
                    ChurnStats* churn);

}  // namespace msp::online

#endif  // MSP_ONLINE_REPAIR_H_
