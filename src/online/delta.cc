#include "online/delta.h"

#include <algorithm>
#include <array>
#include <bit>
#include <cstddef>
#include <limits>
#include <span>

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
// (from, to) pair is one candidate. Rank() packs it into one 128-bit
// integer, larger = visited first, so a comparison is two word compares
// without a data-dependent branch (overlaps tie often). As a std heap
// comparator ("a ranks below b") it makes a range a max-heap whose
// front is visited first.
unsigned __int128 Rank(const Candidate& c) {
  return static_cast<unsigned __int128>(c.overlap) << 64 |
         uint64_t{~c.from} << 32 | ~c.to;
}

struct RanksBelow {
  bool operator()(const Candidate& a, const Candidate& b) const {
    return Rank(a) < Rank(b);
  }
};

constexpr uint32_t kNoMatch = ~uint32_t{0};

// Greedy maximum-overlap matching: visits the candidates in RanksBelow
// order and pairs each one whose reducers are both still free. Returns
// match_of_new: `to` reducer index -> matched `from` index (kNoMatch
// when the reducer shares bytes with no available partner).
//
// `candidates` holds group t (the candidates of `to` reducer t) in
// [group_begin[t], group_begin[t + 1]), its best candidate first (see
// CollectCandidates). Instead of sorting them all, a heap of group
// heads yields the next candidate. A group leaves the heads once its
// reducer is matched. A head whose `from` reducer is taken is discarded
// and its group's next best re-offered; only then does the rest of the
// group become a max-heap, so a group whose first head is accepted is
// never heapified (on replan-large, about 20 groups of 150 ever are).
// Taken reducers stay taken, so this visits the accepted candidates in
// exactly the sorted order, while only the candidates inspected after a
// stale head pay a log factor.
std::vector<uint32_t> GreedyMatch(std::size_t num_old,
                                  const std::vector<std::size_t>& group_begin,
                                  std::vector<Candidate> candidates) {
  const std::size_t num_new = group_begin.size() - 1;
  std::vector<uint32_t> match_of_new(num_new, kNoMatch);
  std::vector<bool> old_taken(num_old, false);
  // Group t's live candidates are [first[t], last[t]); past its first
  // stale head (heaped[t]) they form a heap.
  std::vector<std::size_t> first(group_begin.begin(), group_begin.end() - 1);
  std::vector<std::size_t> last(group_begin.begin() + 1, group_begin.end());
  std::vector<bool> heaped(num_new, false);
  const auto at = [&candidates](std::size_t k) {
    return candidates.begin() + static_cast<std::ptrdiff_t>(k);
  };
  std::vector<Candidate> heads;
  heads.reserve(num_new);
  for (std::size_t t = 0; t < num_new; ++t) {
    if (first[t] == last[t]) continue;
    heads.push_back(*at(first[t]));
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
    const std::size_t t = head.to;
    auto lo = at(first[t]);
    auto hi = at(last[t]);
    if (!heaped[t]) {  // drop the scanned head, heapify the rest
      heaped[t] = true;
      std::make_heap(++lo, hi, RanksBelow{});
    } else {
      std::pop_heap(lo, hi--, RanksBelow{});
    }
    while (lo != hi && old_taken[lo->from]) {
      std::pop_heap(lo, hi--, RanksBelow{});
    }
    first[t] = lo - candidates.begin();
    last[t] = hi - candidates.begin();
    if (lo != hi) {
      heads.push_back(*lo);
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

// Each reducer's members as an ascending span. A sorted reducer (every
// reducer of a live schema and of a remapped plan) is read in place;
// only an unsorted one is copied and sorted.
class SortedReducers {
 public:
  explicit SortedReducers(std::span<const Reducer> reducers) {
    std::size_t unsorted = 0;
    for (const Reducer& r : reducers) {
      unsorted += std::is_sorted(r.begin(), r.end()) ? 0 : 1;
      copies_ += r.size();
    }
    sorted_.reserve(unsorted);  // members_ points into it: no regrowth
    members_.reserve(reducers.size());
    for (const Reducer& r : reducers) {
      if (unsorted == 0 || std::is_sorted(r.begin(), r.end())) {
        members_.emplace_back(r);
        continue;
      }
      Reducer& copy = sorted_.emplace_back(r);
      std::sort(copy.begin(), copy.end());
      members_.emplace_back(copy);
    }
  }

  std::size_t size() const { return members_.size(); }
  std::size_t copies() const { return copies_; }
  std::span<const InputId> operator[](std::size_t r) const {
    return members_[r];
  }

 private:
  std::size_t copies_ = 0;
  std::vector<Reducer> sorted_;
  std::vector<std::span<const InputId>> members_;
};

// Stable LSD radix sort of `keys` by their high 32 bits, an input id no
// larger than `max_id`: one pass per 8-bit digit the largest id needs,
// each O(keys + 256). Nothing is sized by the id range.
void SortByInputId(std::vector<uint64_t>* keys, InputId max_id) {
  std::vector<uint64_t> out(keys->size());
  const int bits = static_cast<int>(std::bit_width(max_id));
  for (int shift = 32; shift < 32 + bits; shift += 8) {
    std::array<uint32_t, 257> next{};
    for (const uint64_t key : *keys) ++next[((key >> shift) & 0xff) + 1];
    for (std::size_t d = 1; d < next.size(); ++d) next[d] += next[d - 1];
    for (const uint64_t key : *keys) out[next[(key >> shift) & 0xff]++] = key;
    keys->swap(out);
  }
}

// Flat inverted index of the old reducers' copies, and where each new
// copy lands in it. Input group g's holders (old reducers holding a
// copy, ascending) are holders[offsets[g], offsets[g + 1]); group 0 is
// empty. The new copy at flat position p (new reducers in order, each
// one's members ascending) belongs to group slot[p], which is 0 when no
// old reducer holds its input. Every array is sized by the copy counts,
// whatever the range of the ids.
struct CopyIndex {
  std::vector<uint32_t> offsets{0, 0};
  std::vector<uint32_t> holders;
  std::vector<uint32_t> slot;
};

// Builds the index from one radix sort of all copies, old and new, keyed
// by input id. Old copies are listed first and the sort is stable, so
// each id's old holders come first, ascending, then its new copies.
CopyIndex IndexCopies(const SortedReducers& old_reducers,
                      const SortedReducers& new_reducers) {
  constexpr uint64_t kNewCopy = uint64_t{1} << 31;
  MSP_CHECK_LT(old_reducers.size(), kNewCopy);
  MSP_CHECK_LT(new_reducers.copies(), kNewCopy);
  std::vector<uint64_t> keys;
  keys.reserve(old_reducers.copies() + new_reducers.copies());
  InputId max_id = 0;
  for (uint32_t f = 0; f < old_reducers.size(); ++f) {
    for (const InputId id : old_reducers[f]) {
      keys.push_back(uint64_t{id} << 32 | f);
    }
    if (!old_reducers[f].empty()) {
      max_id = std::max(max_id, old_reducers[f].back());
    }
  }
  uint32_t p = 0;
  for (uint32_t t = 0; t < new_reducers.size(); ++t) {
    for (const InputId id : new_reducers[t]) {
      keys.push_back(uint64_t{id} << 32 | kNewCopy | p++);
    }
    if (!new_reducers[t].empty()) {
      max_id = std::max(max_id, new_reducers[t].back());
    }
  }
  SortByInputId(&keys, max_id);

  CopyIndex index;
  index.offsets.reserve(old_reducers.copies() + 2);
  index.holders.reserve(old_reducers.copies());
  index.slot.resize(new_reducers.copies());
  uint32_t group = 0;
  for (std::size_t k = 0; k < keys.size();) {
    const uint64_t id = keys[k] >> 32;
    if ((keys[k] & kNewCopy) == 0) {
      for (; k < keys.size() && keys[k] >> 32 == id &&
             (keys[k] & kNewCopy) == 0;
           ++k) {
        index.holders.push_back(static_cast<uint32_t>(keys[k]));
      }
      index.offsets.push_back(static_cast<uint32_t>(index.holders.size()));
      group = static_cast<uint32_t>(index.offsets.size() - 2);
    } else {
      group = 0;
    }
    for (; k < keys.size() && keys[k] >> 32 == id; ++k) {
      index.slot[static_cast<uint32_t>(keys[k]) & (kNewCopy - 1)] = group;
    }
  }
  return index;
}

// Overlap bytes for every (old, new) reducer pair sharing an input,
// grouped by `to` reducer as GreedyMatch expects: a linear max scan,
// run as each group is emitted, puts the group's best candidate (in
// RanksBelow order) at its front. A first pass counts each new
// reducer's co-occurrences, which bound its candidates, so `candidates`
// is allocated once. A dense scratch accumulator sums the overlaps,
// linear in the number of co-occurrences. The touched list advances
// without a branch, by whether the old reducer's sum was still zero; a
// repeat (only possible after a zero-sized input) is harmless, as its
// sum reads zero by then and is skipped.
void CollectCandidates(const std::vector<InputSize>& sizes,
                       const SortedReducers& old_reducers,
                       const SortedReducers& new_reducers,
                       std::vector<Candidate>* candidates,
                       std::vector<std::size_t>* group_begin) {
  const CopyIndex index = IndexCopies(old_reducers, new_reducers);
  const auto holders_of = [&index](uint32_t group) {
    return std::span<const uint32_t>(index.holders)
        .subspan(index.offsets[group],
                 index.offsets[group + 1] - index.offsets[group]);
  };
  const std::size_t num_old = old_reducers.size();
  std::size_t bound = 0;
  std::size_t most_cooccurrences = 0;
  for (uint32_t t = 0, p = 0; t < new_reducers.size(); ++t) {
    std::size_t cooccurrences = 0;
    for (std::size_t end = p + new_reducers[t].size(); p < end; ++p) {
      cooccurrences += holders_of(index.slot[p]).size();
    }
    bound += std::min(cooccurrences, num_old);
    most_cooccurrences = std::max(most_cooccurrences, cooccurrences);
  }
  candidates->reserve(bound);

  std::vector<InputSize> overlap_with(num_old, 0);
  // A group advances the touched list at most once per co-occurrence,
  // and every co-occurrence writes the slot just past the last advance.
  std::vector<uint32_t> touched(most_cooccurrences + 1);
  group_begin->reserve(new_reducers.size() + 1);
  group_begin->push_back(0);
  for (uint32_t t = 0, p = 0; t < new_reducers.size(); ++t) {
    std::size_t num_touched = 0;
    for (const InputId id : new_reducers[t]) {
      const InputSize w = sizes[id];
      for (const uint32_t f : holders_of(index.slot[p++])) {
        touched[num_touched] = f;
        num_touched += overlap_with[f] == 0 ? 1 : 0;
        overlap_with[f] += w;
      }
    }
    const std::size_t front = candidates->size();
    std::size_t best = front;
    unsigned __int128 best_rank = 0;
    for (std::size_t k = 0; k < num_touched; ++k) {
      const uint32_t f = touched[k];
      if (overlap_with[f] != 0) {
        const Candidate c{overlap_with[f], f, t};
        const unsigned __int128 rank = Rank(c);
        best = rank > best_rank ? candidates->size() : best;
        best_rank = std::max(best_rank, rank);
        candidates->push_back(c);
      }
      overlap_with[f] = 0;
    }
    if (candidates->size() > front) {
      std::swap((*candidates)[front], (*candidates)[best]);
    }
    group_begin->push_back(candidates->size());
  }
}

// Walks a matched pair once, both ascending: members only in `to_r`
// ship to `to` reducer t, members only in `from_r` drop from `from`
// reducer f.
void DiffMatched(const std::vector<InputSize>& sizes, uint32_t t,
                 std::span<const InputId> to_r, uint32_t f,
                 std::span<const InputId> from_r, DeltaStats* delta,
                 DeltaDetail* detail) {
  const auto ship = [&](InputId id) {
    ++delta->inputs_moved;
    delta->bytes_moved += sizes[id];
    if (detail != nullptr) detail->ships.emplace_back(t, id);
  };
  const auto drop = [&](InputId id) {
    ++delta->inputs_dropped;
    if (detail != nullptr) detail->drops.emplace_back(f, id);
  };
  std::size_t i = 0;
  std::size_t j = 0;
  while (i < to_r.size() && j < from_r.size()) {
    if (to_r[i] < from_r[j]) {
      ship(to_r[i++]);
    } else if (from_r[j] < to_r[i]) {
      drop(from_r[j++]);
    } else {
      ++i;
      ++j;
    }
  }
  for (; i < to_r.size(); ++i) ship(to_r[i]);
  for (; j < from_r.size(); ++j) drop(from_r[j]);
}

}  // namespace

DeltaStats MinMoveDelta(const std::vector<InputSize>& sizes,
                        std::span<const Reducer> from,
                        std::span<const Reducer> to, DeltaDetail* detail,
                        DeltaMatching matching) {
  const SortedReducers old_reducers(from);
  const SortedReducers new_reducers(to);
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

  for (uint32_t t = 0; t < new_reducers.size(); ++t) {
    const uint32_t f = match_of_new[t];
    if (f != kNoMatch) {
      if (detail != nullptr) detail->matched_from[t] = f;
      DiffMatched(sizes, t, new_reducers[t], f, old_reducers[f], &delta,
                  detail);
      continue;
    }
    ++delta.reducers_created;
    for (const InputId id : new_reducers[t]) {
      ++delta.inputs_moved;
      delta.bytes_moved += sizes[id];
      if (detail != nullptr) detail->ships.emplace_back(t, id);
    }
  }
  for (uint32_t f = 0; f < old_reducers.size(); ++f) {
    if (old_taken[f]) continue;
    ++delta.reducers_destroyed;
    delta.inputs_dropped += old_reducers[f].size();
    if (detail != nullptr) {
      for (const InputId id : old_reducers[f]) {
        detail->drops.emplace_back(f, id);
      }
    }
  }
  return delta;
}

}  // namespace msp::online
