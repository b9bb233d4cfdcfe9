#include "online/repair.h"

#include <algorithm>
#include <utility>

#include "util/check.h"

namespace msp::online {

namespace {

bool Contains(const Reducer& reducer, InputId id) {
  return std::binary_search(reducer.begin(), reducer.end(), id);
}

// True when the reducer covers at least one required pair.
bool CoversAnything(const LiveState& s, const Reducer& reducer) {
  if (!s.x2y) return reducer.size() >= 2;
  bool has_x = false;
  bool has_y = false;
  for (InputId id : reducer) {
    (s.sides[id] == Side::kX ? has_x : has_y) = true;
  }
  return has_x && has_y;
}

// Places a copy of `id` into reducer `r` (must not already be there),
// updating load, pair coverage, the churn ledger, and the move log.
void AddCopy(LiveState* s, std::size_t r, InputId id, ChurnStats* churn) {
  Reducer& reducer = s->reducers[r];
  const auto pos = std::lower_bound(reducer.begin(), reducer.end(), id);
  MSP_DCHECK(pos == reducer.end() || *pos != id);
  for (InputId member : reducer) {
    if (s->IsPartner(id, member)) s->IncrementCover(id, member);
  }
  reducer.insert(pos, id);
  s->loads[r] += s->sizes[id];
  ++churn->inputs_moved;
  churn->bytes_moved += s->sizes[id];
  if (s->move_log != nullptr) {
    s->move_log->push_back({ReshuffleOp::Kind::kShip, id,
                            s->reducer_uids[r], s->sizes[id]});
  }
}

// Deletes the copy of `id` from reducer `r` if present. Returns true
// when a copy was removed.
bool RemoveCopy(LiveState* s, std::size_t r, InputId id, ChurnStats* churn) {
  Reducer& reducer = s->reducers[r];
  const auto pos = std::lower_bound(reducer.begin(), reducer.end(), id);
  if (pos == reducer.end() || *pos != id) return false;
  reducer.erase(pos);
  s->loads[r] -= s->sizes[id];
  for (InputId member : reducer) {
    if (s->IsPartner(id, member)) s->DecrementCover(id, member);
  }
  ++churn->inputs_dropped;
  if (s->move_log != nullptr) {
    s->move_log->push_back({ReshuffleOp::Kind::kDrop, id,
                            s->reducer_uids[r], s->sizes[id]});
  }
  return true;
}

// Appends a fresh, empty reducer slot with a new stable uid, recycling
// a retired membership buffer (capacity retained) when one is
// available.
std::size_t CreateReducer(LiveState* s, ChurnStats* churn) {
  if (!s->reducer_pool.empty()) {
    s->reducers.push_back(std::move(s->reducer_pool.back()));
    s->reducer_pool.pop_back();
  } else {
    s->reducers.emplace_back();
  }
  s->loads.push_back(0);
  s->reducer_uids.push_back(s->next_reducer_uid++);
  ++churn->reducers_created;
  return s->reducers.size() - 1;
}

// Drops every copy of reducer `r` and marks it destroyed. The empty
// slot is reclaimed by Compact at the end of the repair operation.
void DestroyReducer(LiveState* s, std::size_t r, ChurnStats* churn) {
  while (!s->reducers[r].empty()) {
    RemoveCopy(s, r, s->reducers[r].back(), churn);
  }
  ++churn->reducers_destroyed;
}

// Erases the empty reducer slots left behind by DestroyReducer. The
// emptied slots' membership buffers are harvested into the free list
// *before* the move-compaction would overwrite (and free) them; by the
// trailing resize every dying slot is buffer-less, so nothing is
// returned to the allocator.
void Compact(LiveState* s) {
  std::size_t out = 0;
  for (std::size_t r = 0; r < s->reducers.size(); ++r) {
    if (s->reducers[r].empty()) {
      if (s->reducers[r].capacity() > 0) {
        s->reducer_pool.push_back(std::move(s->reducers[r]));
        s->reducers[r].clear();
      }
      continue;
    }
    if (out != r) {
      s->reducers[out] = std::move(s->reducers[r]);
      s->loads[out] = s->loads[r];
      s->reducer_uids[out] = s->reducer_uids[r];
    }
    ++out;
  }
  s->reducers.resize(out);
  s->loads.resize(out);
  s->reducer_uids.resize(out);
}

// Destroys every reducer in `candidates` that covers no required pair.
void PruneUseless(LiveState* s, const std::vector<std::size_t>& candidates,
                  ChurnStats* churn) {
  for (std::size_t r : candidates) {
    if (s->reducers[r].empty()) {
      // Already drained (e.g. a stray singleton); still one fewer
      // reducer in the live schema.
      ++churn->reducers_destroyed;
      continue;
    }
    if (!CoversAnything(*s, s->reducers[r])) DestroyReducer(s, r, churn);
  }
}

// Union load and shared bytes of two sorted reducers.
void UnionAndOverlap(const LiveState& s, const Reducer& a, const Reducer& b,
                     InputSize* union_load, InputSize* overlap) {
  *union_load = 0;
  *overlap = 0;
  std::size_t i = 0;
  std::size_t j = 0;
  while (i < a.size() || j < b.size()) {
    if (j == b.size() || (i < a.size() && a[i] < b[j])) {
      *union_load += s.sizes[a[i++]];
    } else if (i == a.size() || b[j] < a[i]) {
      *union_load += s.sizes[b[j++]];
    } else {
      *union_load += s.sizes[a[i]];
      *overlap += s.sizes[a[i]];
      ++i;
      ++j;
    }
  }
}

// Local MergeReducers: folds each light candidate reducer into the
// partner sharing the most bytes whose union still fits. Moving the
// shared members costs nothing (they are already at the host), so
// maximizing overlap minimizes churn. Only reducers at most half full
// are folded — heavier merges buy one reducer for a lot of movement.
void AbsorbShrunken(LiveState* s, const std::vector<std::size_t>& candidates,
                    RepairScratch* sc, ChurnStats* churn) {
  for (std::size_t r : candidates) {
    const Reducer& reducer = s->reducers[r];
    if (reducer.empty() || !CoversAnything(*s, reducer)) continue;
    if (s->loads[r] * 2 > s->capacity) continue;
    std::size_t best = s->reducers.size();
    InputSize best_overlap = 0;
    InputSize best_union = 0;
    for (std::size_t j = 0; j < s->reducers.size(); ++j) {
      if (j == r || s->reducers[j].empty()) continue;
      InputSize union_load = 0;
      InputSize overlap = 0;
      UnionAndOverlap(*s, reducer, s->reducers[j], &union_load, &overlap);
      if (union_load > s->capacity) continue;
      // Prefer max shared bytes (min churn), then the tightest union
      // (leaves the most room elsewhere), then the lowest index.
      if (best == s->reducers.size() || overlap > best_overlap ||
          (overlap == best_overlap && union_load > best_union)) {
        best = j;
        best_overlap = overlap;
        best_union = union_load;
      }
    }
    if (best == s->reducers.size()) continue;
    // Working copy: AddCopy mutates the reducer being folded.
    Reducer& members = sc->members;
    members.assign(s->reducers[r].begin(), s->reducers[r].end());
    for (InputId member : members) {
      if (!Contains(s->reducers[best], member)) {
        AddCopy(s, best, member, churn);
      }
    }
    DestroyReducer(s, r, churn);
  }
}

// CoverStar's uncovered-partner set: a bitmap over alive ranks (one
// byte per alive input; the alive set does not mutate while a repair
// is covering, so ranks are stable). Membership is one array read, and
// the dominant loop (counting uncovered partners per candidate
// reducer) touches one byte per member.
class PartnerSet {
 public:
  /// The bitmap lives in the LiveState's persistent scratch.
  PartnerSet(const LiveState& s, RepairScratch* sc)
      : bits_(&sc->partner_bits) {
    bits_->assign(s.num_alive(), 0);
  }

  void Insert(const LiveState& s, InputId id) {
    uint8_t& bit = (*bits_)[s.alive_pos[id]];
    count_ += bit == 0 ? 1 : 0;
    bit = 1;
  }

  bool Contains(const LiveState& s, InputId id) const {
    return (*bits_)[s.alive_pos[id]] != 0;
  }

  void Erase(const LiveState& s, InputId id) {
    uint8_t& bit = (*bits_)[s.alive_pos[id]];
    count_ -= bit != 0 ? 1 : 0;
    bit = 0;
  }

  bool empty() const { return count_ == 0; }

  /// Moves the remaining members into `rest` in alive-rank order
  /// (callers impose their own total order before acting on them).
  void Drain(const LiveState& s, std::vector<InputId>* rest) {
    rest->clear();
    rest->reserve(count_);
    for (std::size_t rank = 0; rank < bits_->size(); ++rank) {
      if ((*bits_)[rank] != 0) rest->push_back(s.alive_ids[rank]);
    }
    bits_->assign(bits_->size(), 0);
    count_ = 0;
  }

 private:
  std::size_t count_ = 0;
  std::vector<uint8_t>* bits_;  // by alive rank; not owned
};

// Covers every pair (id, p), p in `uncovered`, with the AddInput
// strategy: first place `id` into existing reducers with room that
// contain uncovered partners, then spawn new reducers seeded with `id`
// plus first-fit-decreasing bins of the remaining partners.
void CoverStar(LiveState* s, InputId id, PartnerSet* uncovered,
               RepairScratch* sc, ChurnStats* churn) {
  if (uncovered->empty()) return;
  const InputSize w = s->sizes[id];

  // Phase 1 — fill: visit reducers in decreasing order of how many
  // uncovered partners they hold (counts go stale as we place copies,
  // so each visit re-checks before committing).
  std::vector<std::pair<std::size_t, std::size_t>>& order = sc->order;
  order.clear();
  for (std::size_t r = 0; r < s->reducers.size(); ++r) {
    if (s->loads[r] + w > s->capacity) continue;
    if (Contains(s->reducers[r], id)) continue;
    std::size_t count = 0;
    for (InputId member : s->reducers[r]) {
      count += uncovered->Contains(*s, member) ? 1 : 0;
    }
    if (count > 0) order.emplace_back(count, r);
  }
  std::sort(order.begin(), order.end(), [](const auto& a, const auto& b) {
    return a.first != b.first ? a.first > b.first : a.second < b.second;
  });
  for (const auto& [stale_count, r] : order) {
    (void)stale_count;
    if (uncovered->empty()) break;
    bool any = false;
    for (InputId member : s->reducers[r]) {
      if (uncovered->Contains(*s, member)) {
        any = true;
        break;
      }
    }
    if (!any) continue;
    AddCopy(s, r, id, churn);
    for (InputId member : s->reducers[r]) uncovered->Erase(*s, member);
  }

  // Phase 2 — spawn: pack the partners that remain into bins of
  // residual capacity q - w (FFD), one new reducer per bin, each
  // seeded with `id`.
  std::vector<InputId>& rest = sc->rest;
  uncovered->Drain(*s, &rest);
  std::sort(rest.begin(), rest.end(), [&](InputId a, InputId b) {
    return s->sizes[a] != s->sizes[b] ? s->sizes[a] > s->sizes[b] : a < b;
  });
  std::vector<std::size_t>& bins = sc->bins;
  bins.clear();
  for (InputId p : rest) {
    std::size_t target = s->reducers.size();
    for (std::size_t bin : bins) {
      if (s->loads[bin] + s->sizes[p] <= s->capacity) {
        target = bin;
        break;
      }
    }
    if (target == s->reducers.size()) {
      target = CreateReducer(s, churn);
      AddCopy(s, target, id, churn);
      MSP_CHECK_LE(s->loads[target] + s->sizes[p], s->capacity)
          << "infeasible pair reached the repair engine";
      bins.push_back(target);
    }
    AddCopy(s, target, p, churn);
  }
}

// First-fit covering of arbitrary uncovered pairs: extend a reducer
// that already holds one endpoint, else open a fresh two-input
// reducer. Used by the capacity-shrink repair, where lost pairs are
// spread across many inputs.
void CoverPairs(LiveState* s, std::vector<std::pair<InputId, InputId>>* pairs,
                ChurnStats* churn) {
  std::sort(pairs->begin(), pairs->end());
  for (const auto& [a, b] : *pairs) {
    if (!s->alive[a] || !s->alive[b]) continue;
    if (s->CoverCount(a, b) > 0) continue;
    bool placed = false;
    for (std::size_t r = 0; r < s->reducers.size() && !placed; ++r) {
      const Reducer& reducer = s->reducers[r];
      if (reducer.empty()) continue;
      const bool has_a = Contains(reducer, a);
      const bool has_b = Contains(reducer, b);
      if (has_a && !has_b && s->loads[r] + s->sizes[b] <= s->capacity) {
        AddCopy(s, r, b, churn);
        placed = true;
      } else if (has_b && !has_a &&
                 s->loads[r] + s->sizes[a] <= s->capacity) {
        AddCopy(s, r, a, churn);
        placed = true;
      }
    }
    if (placed) continue;
    const std::size_t fresh = CreateReducer(s, churn);
    AddCopy(s, fresh, a, churn);
    MSP_CHECK_LE(s->loads[fresh] + s->sizes[b], s->capacity)
        << "infeasible pair reached the repair engine";
    AddCopy(s, fresh, b, churn);
  }
  pairs->clear();
}

}  // namespace

void LiveState::ResetSchema(const MappingSchema& schema) {
  reducers = schema.reducers;
  reducer_uids.clear();  // RebuildDerived assigns fresh uids
  RebuildDerived();
}

void LiveState::ResetSchemaWithUids(MappingSchema schema,
                                    std::vector<uint64_t> uids) {
  MSP_CHECK(uids.size() == schema.reducers.size());
  // No member list is copied into a fresh allocation: one that fits the
  // live buffer at its index is written there (keeping the slack later
  // repairs grow into), any other is moved in.
  reducers.resize(schema.reducers.size());
  for (std::size_t r = 0; r < reducers.size(); ++r) {
    Reducer& fresh = schema.reducers[r];
    if (reducers[r].capacity() >= fresh.size()) {
      reducers[r].assign(fresh.begin(), fresh.end());
    } else {
      reducers[r] = std::move(fresh);
    }
  }
  reducer_uids = std::move(uids);
  RebuildDerived();
}

void LiveState::RebuildDerived() {
  if (reducer_uids.size() != reducers.size()) {
    reducer_uids.resize(reducers.size());
    for (uint64_t& uid : reducer_uids) uid = next_reducer_uid++;
  }
  loads.assign(reducers.size(), 0);
  cover.Reset(alive_ids.size());
  for (std::size_t r = 0; r < reducers.size(); ++r) {
    Reducer& reducer = reducers[r];
    if (!std::is_sorted(reducer.begin(), reducer.end())) {
      std::sort(reducer.begin(), reducer.end());
    }
    for (std::size_t a = 0; a < reducer.size(); ++a) {
      loads[r] += sizes[reducer[a]];
      for (std::size_t b = a + 1; b < reducer.size(); ++b) {
        if (IsPartner(reducer[a], reducer[b])) {
          IncrementCover(reducer[a], reducer[b]);
        }
      }
    }
  }
}

void RepairAdd(LiveState* s, InputId id, ChurnStats* churn) {
  MSP_CHECK(s != nullptr && churn != nullptr);
  MSP_CHECK(s->alive[id]);
  RepairScratch* sc = &s->scratch;
  PartnerSet uncovered(*s, sc);
  for (InputId j : s->alive_ids) {
    if (j != id && s->IsPartner(id, j)) uncovered.Insert(*s, j);
  }
  CoverStar(s, id, &uncovered, sc, churn);
}

void RepairRemove(LiveState* s, InputId id, ChurnStats* churn) {
  MSP_CHECK(s != nullptr && churn != nullptr);
  MSP_CHECK(s->alive[id]);
  RepairScratch* sc = &s->scratch;
  s->alive[id] = false;
  // Strip the copies while `id` still holds an alive rank: the
  // coverage decrements key off it, and unregistering swap-pops the
  // rank's (by then all-zero) counter row.
  std::vector<std::size_t>& affected = sc->affected;
  affected.clear();
  for (std::size_t r = 0; r < s->reducers.size(); ++r) {
    if (RemoveCopy(s, r, id, churn)) affected.push_back(r);
  }
  s->UnregisterAlive(id);
  PruneUseless(s, affected, churn);
  AbsorbShrunken(s, affected, sc, churn);
  Compact(s);
}

void RepairResize(LiveState* s, InputId id, InputSize new_size,
                  ChurnStats* churn) {
  MSP_CHECK(s != nullptr && churn != nullptr);
  MSP_CHECK(s->alive[id]);
  const InputSize old_size = s->sizes[id];
  if (new_size == old_size) return;
  RepairScratch* sc = &s->scratch;
  s->sizes[id] = new_size;
  std::vector<std::size_t>& holding = sc->affected;
  holding.clear();
  for (std::size_t r = 0; r < s->reducers.size(); ++r) {
    if (!Contains(s->reducers[r], id)) continue;
    s->loads[r] = s->loads[r] - old_size + new_size;
    holding.push_back(r);
  }
  if (new_size < old_size) {
    // Loads only shrank; the schema stays valid. The lighter reducers
    // may now fold into partners.
    AbsorbShrunken(s, holding, sc, churn);
    Compact(s);
    return;
  }
  // Growth: evict the resized input from reducers it overflows, then
  // re-cover the pairs that lost their last meeting point.
  std::vector<std::size_t>& evicted_from = sc->evicted;
  evicted_from.clear();
  for (std::size_t r : holding) {
    if (s->loads[r] > s->capacity) {
      RemoveCopy(s, r, id, churn);
      evicted_from.push_back(r);
    }
  }
  PruneUseless(s, evicted_from, churn);
  PartnerSet uncovered(*s, sc);
  for (InputId j : s->alive_ids) {
    if (j != id && s->IsPartner(id, j) && s->CoverCount(id, j) == 0) {
      uncovered.Insert(*s, j);
    }
  }
  CoverStar(s, id, &uncovered, sc, churn);
  Compact(s);
}

void RepairCapacity(LiveState* s, InputSize new_capacity, ChurnStats* churn) {
  MSP_CHECK(s != nullptr && churn != nullptr);
  const bool shrink = new_capacity < s->capacity;
  s->capacity = new_capacity;
  if (!shrink) return;
  // Evict members from overflowing reducers: cheapest first, i.e. the
  // member whose pairs here are mostly covered elsewhere; ties prefer
  // the largest size (frees the most room per eviction).
  RepairScratch* sc = &s->scratch;
  std::vector<std::pair<InputId, InputId>>& lost = sc->lost;
  lost.clear();
  std::vector<std::size_t>& touched = sc->affected;
  touched.clear();
  for (std::size_t r = 0; r < s->reducers.size(); ++r) {
    bool evicted_any = false;
    while (s->loads[r] > new_capacity) {
      const Reducer& reducer = s->reducers[r];
      MSP_CHECK(!reducer.empty());
      InputId victim = reducer.front();
      std::size_t victim_unique = ~std::size_t{0};
      for (InputId candidate : reducer) {
        // Branch-free count: whether a pair is covered only here is
        // data-dependent, so a branch on it mispredicts.
        std::size_t unique = 0;
        for (InputId other : reducer) {
          if (s->IsPartner(candidate, other)) {
            unique += s->CoverCount(candidate, other) == 1 ? 1 : 0;
          }
        }
        if (unique < victim_unique ||
            (unique == victim_unique &&
             (s->sizes[candidate] > s->sizes[victim] ||
              (s->sizes[candidate] == s->sizes[victim] &&
               candidate < victim)))) {
          victim = candidate;
          victim_unique = unique;
        }
      }
      for (InputId other : reducer) {
        if (s->IsPartner(victim, other) &&
            s->CoverCount(victim, other) == 1) {
          lost.emplace_back(victim, other);
        }
      }
      RemoveCopy(s, r, victim, churn);
      evicted_any = true;
    }
    if (evicted_any) touched.push_back(r);
  }
  PruneUseless(s, touched, churn);
  CoverPairs(s, &lost, churn);
  Compact(s);
}

}  // namespace msp::online
