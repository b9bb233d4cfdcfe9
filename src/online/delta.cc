#include "online/delta.h"

#include <algorithm>
#include <limits>

#include "util/check.h"

namespace msp::online {

namespace {

struct Candidate {
  InputSize overlap = 0;
  uint32_t from = 0;
  uint32_t to = 0;
};

// The greedy's visiting order is overlap descending, then `from`
// ascending, then `to` ascending: a strict total order, as each
// (from, to) pair is one candidate. As a std heap comparator ("a ranks
// below b") it makes a range a max-heap whose front is visited first.
struct RanksBelow {
  bool operator()(const Candidate& a, const Candidate& b) const {
    if (a.overlap != b.overlap) return a.overlap < b.overlap;
    if (a.from != b.from) return a.from > b.from;
    return a.to > b.to;
  }
};

constexpr uint32_t kNoMatch = ~uint32_t{0};

// Greedy maximum-overlap matching: visits the candidates in RanksBelow
// order and pairs each one whose reducers are both still free. Returns
// match_of_new: `to` reducer index -> matched `from` index (kNoMatch
// when the reducer shares bytes with no available partner).
//
// `candidates` holds group t (the candidates of `to` reducer t) in
// [group_begin[t], group_begin[t + 1]). Instead of sorting them all,
// each group becomes a lazy max-heap and a heap of group heads yields
// the next candidate. A group leaves the heads once its reducer is
// matched, and a head whose `from` reducer is taken is popped and its
// group's next best re-offered. Taken reducers stay taken, so this
// visits the accepted candidates in exactly the sorted order, while
// only the candidates inspected pay a log factor.
std::vector<uint32_t> GreedyMatch(std::size_t num_old,
                                  const std::vector<std::size_t>& group_begin,
                                  std::vector<Candidate> candidates) {
  const std::size_t num_new = group_begin.size() - 1;
  std::vector<uint32_t> match_of_new(num_new, kNoMatch);
  std::vector<bool> old_taken(num_old, false);
  std::vector<std::size_t> group_end(group_begin.begin() + 1,
                                     group_begin.end());
  std::vector<Candidate> heads;
  heads.reserve(num_new);
  for (std::size_t t = 0; t < num_new; ++t) {
    if (group_begin[t] == group_end[t]) continue;
    std::make_heap(candidates.begin() + group_begin[t],
                   candidates.begin() + group_end[t], RanksBelow{});
    heads.push_back(candidates[group_begin[t]]);
  }
  std::make_heap(heads.begin(), heads.end(), RanksBelow{});
  std::size_t matched = 0;
  while (!heads.empty() && matched < num_old) {
    std::pop_heap(heads.begin(), heads.end(), RanksBelow{});
    const Candidate head = heads.back();
    heads.pop_back();
    if (!old_taken[head.from]) {
      old_taken[head.from] = true;
      match_of_new[head.to] = head.from;
      ++matched;
      continue;
    }
    const auto first = candidates.begin() + group_begin[head.to];
    auto last = candidates.begin() + group_end[head.to];
    do {
      std::pop_heap(first, last, RanksBelow{});
      --last;
    } while (last != first && old_taken[first->from]);
    group_end[head.to] = last - candidates.begin();
    if (last != first) {
      heads.push_back(*first);
      std::push_heap(heads.begin(), heads.end(), RanksBelow{});
    }
  }
  return match_of_new;
}

// Exact maximum-overlap matching: the Hungarian algorithm (shortest
// augmenting paths with potentials, O(N^3) for N = max(|old|, |new|))
// over the dense overlap matrix, padded square with zeros so every
// reducer may also stay unmatched at zero gain. Maximizing the total
// retained overlap bytes minimizes the shipped bytes exactly — the
// optimal baseline for the greedy matcher. Matches retaining zero
// bytes are reported as unmatched (identical semantics to greedy,
// which never pairs non-overlapping reducers).
std::vector<uint32_t> HungarianMatch(std::size_t num_old,
                                     std::size_t num_new,
                                     const std::vector<Candidate>& candidates) {
  const std::size_t n = std::max(num_old, num_new);
  std::vector<uint32_t> match_of_new(num_new, kNoMatch);
  if (n == 0) return match_of_new;
  // weight[t * n + f] = overlap bytes of (`to` t, `from` f); zero on
  // non-overlapping and padded slots.
  std::vector<int64_t> weight(n * n, 0);
  for (const Candidate& c : candidates) {
    weight[static_cast<std::size_t>(c.to) * n + c.from] =
        static_cast<int64_t>(c.overlap);
  }
  // Minimize cost = -overlap with row/column potentials (1-indexed;
  // column 0 is the virtual start of each augmenting path).
  const int64_t kInf = std::numeric_limits<int64_t>::max() / 4;
  std::vector<int64_t> u(n + 1, 0);
  std::vector<int64_t> v(n + 1, 0);
  std::vector<std::size_t> row_of_col(n + 1, 0);
  std::vector<std::size_t> prev_col(n + 1, 0);
  std::vector<int64_t> min_reduced;
  std::vector<char> used;
  for (std::size_t i = 1; i <= n; ++i) {
    row_of_col[0] = i;
    std::size_t j0 = 0;
    min_reduced.assign(n + 1, kInf);
    used.assign(n + 1, 0);
    do {
      used[j0] = 1;
      const std::size_t i0 = row_of_col[j0];
      int64_t delta = kInf;
      std::size_t j1 = 0;
      for (std::size_t j = 1; j <= n; ++j) {
        if (used[j]) continue;
        const int64_t cur =
            -weight[(i0 - 1) * n + (j - 1)] - u[i0] - v[j];
        if (cur < min_reduced[j]) {
          min_reduced[j] = cur;
          prev_col[j] = j0;
        }
        if (min_reduced[j] < delta) {
          delta = min_reduced[j];
          j1 = j;
        }
      }
      for (std::size_t j = 0; j <= n; ++j) {
        if (used[j] != 0) {
          u[row_of_col[j]] += delta;
          v[j] -= delta;
        } else {
          min_reduced[j] -= delta;
        }
      }
      j0 = j1;
    } while (row_of_col[j0] != 0);
    do {
      const std::size_t j1 = prev_col[j0];
      row_of_col[j0] = row_of_col[j1];
      j0 = j1;
    } while (j0 != 0);
  }
  for (std::size_t j = 1; j <= n; ++j) {
    const std::size_t t = row_of_col[j] - 1;  // row: `to` reducer
    const std::size_t f = j - 1;              // column: `from` reducer
    if (t < num_new && f < num_old && weight[t * n + f] > 0) {
      match_of_new[t] = static_cast<uint32_t>(f);
    }
  }
  return match_of_new;
}

std::vector<Reducer> SortedReducers(const MappingSchema& schema) {
  std::vector<Reducer> reducers = schema.reducers;
  for (Reducer& r : reducers) std::sort(r.begin(), r.end());
  return reducers;
}

// Copies in `a` missing from `b` (both sorted): count and total bytes,
// plus (when `items` is non-null) the ids themselves.
void Difference(const std::vector<InputSize>& sizes, const Reducer& a,
                const Reducer& b, uint64_t* count, uint64_t* bytes,
                std::vector<InputId>* items = nullptr) {
  std::size_t i = 0;
  std::size_t j = 0;
  while (i < a.size()) {
    if (j == b.size() || a[i] < b[j]) {
      ++*count;
      *bytes += sizes[a[i]];
      if (items != nullptr) items->push_back(a[i]);
      ++i;
    } else if (b[j] < a[i]) {
      ++j;
    } else {
      ++i;
      ++j;
    }
  }
}

// Overlap bytes for every (old, new) reducer pair sharing an input,
// grouped by `to` reducer as GreedyMatch expects. The inverted index
// (input -> old reducers holding a copy) is flat CSR over the copies of
// `old_reducers`: each copy as (input, reducer), sorted, so input
// held[i]'s holders are holders[offsets[i], offsets[i + 1]). Its size is
// the copy count, whatever the range of the ids. Members of a new
// reducer ascend, so their lookups in `held` only move forward. A dense
// scratch accumulator (reset via the touched list) keeps the overlap
// sums linear in the number of co-occurrences.
void CollectCandidates(const std::vector<InputSize>& sizes,
                       const std::vector<Reducer>& old_reducers,
                       const std::vector<Reducer>& new_reducers,
                       std::vector<Candidate>* candidates,
                       std::vector<std::size_t>* group_begin) {
  std::vector<uint64_t> copies;
  for (uint32_t r = 0; r < old_reducers.size(); ++r) {
    for (InputId id : old_reducers[r]) {
      copies.push_back(uint64_t{id} << 32 | r);
    }
  }
  std::sort(copies.begin(), copies.end());
  std::vector<InputId> held;
  std::vector<uint32_t> offsets;
  std::vector<uint32_t> holders(copies.size());
  for (uint32_t k = 0; k < copies.size(); ++k) {
    const auto id = static_cast<InputId>(copies[k] >> 32);
    if (held.empty() || held.back() != id) {
      held.push_back(id);
      offsets.push_back(k);
    }
    holders[k] = static_cast<uint32_t>(copies[k]);
  }
  offsets.push_back(static_cast<uint32_t>(copies.size()));

  std::vector<InputSize> overlap_with(old_reducers.size(), 0);
  std::vector<uint32_t> touched;
  group_begin->assign(1, 0);
  for (uint32_t t = 0; t < new_reducers.size(); ++t) {
    auto lo = held.begin();
    for (InputId id : new_reducers[t]) {
      lo = std::lower_bound(lo, held.end(), id);
      if (lo == held.end()) break;
      if (*lo != id) continue;
      const std::size_t i = lo - held.begin();
      for (uint32_t k = offsets[i]; k < offsets[i + 1]; ++k) {
        const uint32_t f = holders[k];
        if (overlap_with[f] == 0) touched.push_back(f);
        overlap_with[f] += sizes[id];
      }
    }
    for (uint32_t f : touched) {
      candidates->push_back({overlap_with[f], f, t});
      overlap_with[f] = 0;
    }
    touched.clear();
    group_begin->push_back(candidates->size());
  }
}

}  // namespace

DeltaStats MinMoveDelta(const std::vector<InputSize>& sizes,
                        const MappingSchema& from, const MappingSchema& to,
                        DeltaDetail* detail, DeltaMatching matching) {
  const std::vector<Reducer> old_reducers = SortedReducers(from);
  const std::vector<Reducer> new_reducers = SortedReducers(to);
  DeltaStats delta;
  if (detail != nullptr) {
    detail->matched_from.assign(new_reducers.size(), DeltaDetail::kUnmatched);
    detail->ships.clear();
    detail->drops.clear();
  }

  std::vector<Candidate> candidates;
  std::vector<std::size_t> group_begin;
  CollectCandidates(sizes, old_reducers, new_reducers, &candidates,
                    &group_begin);
  delta.overlapping_pairs = candidates.size();

  const std::vector<uint32_t> match_of_new =
      matching == DeltaMatching::kHungarian
          ? HungarianMatch(old_reducers.size(), new_reducers.size(),
                           candidates)
          : GreedyMatch(old_reducers.size(), group_begin,
                        std::move(candidates));
  std::vector<bool> old_taken(old_reducers.size(), false);
  for (const uint32_t f : match_of_new) {
    if (f == kNoMatch) continue;
    MSP_DCHECK(!old_taken[f]);
    old_taken[f] = true;
    ++delta.reducers_matched;
  }

  std::vector<InputId> items;
  for (uint32_t t = 0; t < new_reducers.size(); ++t) {
    if (match_of_new[t] == ~uint32_t{0}) {
      ++delta.reducers_created;
      for (InputId id : new_reducers[t]) {
        ++delta.inputs_moved;
        delta.bytes_moved += sizes[id];
        if (detail != nullptr) detail->ships.emplace_back(t, id);
      }
      continue;
    }
    if (detail != nullptr) detail->matched_from[t] = match_of_new[t];
    const Reducer& old_r = old_reducers[match_of_new[t]];
    items.clear();
    Difference(sizes, new_reducers[t], old_r, &delta.inputs_moved,
               &delta.bytes_moved, detail != nullptr ? &items : nullptr);
    if (detail != nullptr) {
      for (InputId id : items) detail->ships.emplace_back(t, id);
    }
    uint64_t dropped_bytes = 0;  // bytes of dropped copies are not churn
    items.clear();
    Difference(sizes, old_r, new_reducers[t], &delta.inputs_dropped,
               &dropped_bytes, detail != nullptr ? &items : nullptr);
    if (detail != nullptr) {
      for (InputId id : items) {
        detail->drops.emplace_back(match_of_new[t], id);
      }
    }
  }
  for (uint32_t f = 0; f < old_reducers.size(); ++f) {
    if (old_taken[f]) continue;
    ++delta.reducers_destroyed;
    delta.inputs_dropped += old_reducers[f].size();
    if (detail != nullptr) {
      for (InputId id : old_reducers[f]) detail->drops.emplace_back(f, id);
    }
  }
  return delta;
}

}  // namespace msp::online
