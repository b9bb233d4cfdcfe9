// Tests for MinMoveDelta: zero-delta identities, exact aggregate
// conservation, overlap-maximizing matching behavior, and a
// differential check against a straightforward reference.

#include <algorithm>
#include <cstdint>
#include <iterator>
#include <limits>
#include <memory>
#include <optional>
#include <unordered_map>
#include <utility>
#include <vector>

#include "core/schema.h"
#include "gtest/gtest.h"
#include "online/assigner.h"
#include "online/delta.h"
#include "online/trace.h"
#include "planner/service.h"
#include "util/rng.h"
#include "workload/updates.h"

namespace msp::online {
namespace {

MappingSchema Make(std::vector<Reducer> reducers) {
  MappingSchema schema;
  schema.reducers = std::move(reducers);
  return schema;
}

// ---------------------------------------------------------------------
// Reference MinMoveDelta: the straightforward implementation, the
// oracle for the library's lazy-heap greedy and flat index. It indexes
// inputs with a hash map, sorts every overlapping (old, new) pair by
// (overlap desc, from asc, to asc) and walks the sorted list. Its
// Hungarian matcher is the library's O(n^3) one, written without
// reusing scratch across rows. The differential test below requires
// the library to agree with it on every stat and every item of the
// detail.

struct RefCandidate {
  InputSize overlap = 0;
  uint32_t from = 0;
  uint32_t to = 0;
};

constexpr uint32_t kRefNoMatch = ~uint32_t{0};

std::vector<uint32_t> RefGreedyMatch(std::size_t num_old, std::size_t num_new,
                                     std::vector<RefCandidate> candidates) {
  std::sort(candidates.begin(), candidates.end(),
            [](const RefCandidate& a, const RefCandidate& b) {
              if (a.overlap != b.overlap) return a.overlap > b.overlap;
              if (a.from != b.from) return a.from < b.from;
              return a.to < b.to;
            });
  std::vector<uint32_t> match_of_new(num_new, kRefNoMatch);
  std::vector<bool> old_taken(num_old, false);
  for (const RefCandidate& c : candidates) {
    if (old_taken[c.from] || match_of_new[c.to] != kRefNoMatch) continue;
    old_taken[c.from] = true;
    match_of_new[c.to] = c.from;
  }
  return match_of_new;
}

std::vector<uint32_t> RefHungarianMatch(
    std::size_t num_old, std::size_t num_new,
    const std::vector<RefCandidate>& candidates) {
  const std::size_t n = std::max(num_old, num_new);
  std::vector<uint32_t> match_of_new(num_new, kRefNoMatch);
  if (n == 0) return match_of_new;
  std::vector<int64_t> weight(n * n, 0);
  for (const RefCandidate& c : candidates) {
    weight[static_cast<std::size_t>(c.to) * n + c.from] =
        static_cast<int64_t>(c.overlap);
  }
  const int64_t kInf = std::numeric_limits<int64_t>::max() / 4;
  std::vector<int64_t> u(n + 1, 0);
  std::vector<int64_t> v(n + 1, 0);
  std::vector<std::size_t> row_of_col(n + 1, 0);
  std::vector<std::size_t> prev_col(n + 1, 0);
  for (std::size_t i = 1; i <= n; ++i) {
    row_of_col[0] = i;
    std::size_t j0 = 0;
    std::vector<int64_t> min_reduced(n + 1, kInf);
    std::vector<char> used(n + 1, 0);
    do {
      used[j0] = 1;
      const std::size_t i0 = row_of_col[j0];
      int64_t delta = kInf;
      std::size_t j1 = 0;
      for (std::size_t j = 1; j <= n; ++j) {
        if (used[j]) continue;
        const int64_t cur = -weight[(i0 - 1) * n + (j - 1)] - u[i0] - v[j];
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
    const std::size_t t = row_of_col[j] - 1;
    const std::size_t f = j - 1;
    if (t < num_new && f < num_old && weight[t * n + f] > 0) {
      match_of_new[t] = static_cast<uint32_t>(f);
    }
  }
  return match_of_new;
}

// Copies of sorted `a` missing from sorted `b`, in order.
std::vector<InputId> RefDifference(const Reducer& a, const Reducer& b) {
  std::vector<InputId> out;
  std::set_difference(a.begin(), a.end(), b.begin(), b.end(),
                      std::back_inserter(out));
  return out;
}

DeltaStats RefMinMoveDelta(const std::vector<InputSize>& sizes,
                           const MappingSchema& from, const MappingSchema& to,
                           DeltaDetail* detail, DeltaMatching matching) {
  std::vector<Reducer> old_reducers = from.reducers;
  std::vector<Reducer> new_reducers = to.reducers;
  for (Reducer& r : old_reducers) std::sort(r.begin(), r.end());
  for (Reducer& r : new_reducers) std::sort(r.begin(), r.end());

  std::unordered_map<InputId, std::vector<uint32_t>> held_by;
  for (uint32_t r = 0; r < old_reducers.size(); ++r) {
    for (InputId id : old_reducers[r]) held_by[id].push_back(r);
  }
  std::vector<RefCandidate> candidates;
  for (uint32_t t = 0; t < new_reducers.size(); ++t) {
    std::vector<InputSize> overlap_with(old_reducers.size(), 0);
    for (InputId id : new_reducers[t]) {
      const auto it = held_by.find(id);
      if (it == held_by.end()) continue;
      for (uint32_t f : it->second) overlap_with[f] += sizes[id];
    }
    for (uint32_t f = 0; f < old_reducers.size(); ++f) {
      if (overlap_with[f] > 0) candidates.push_back({overlap_with[f], f, t});
    }
  }

  DeltaStats delta;
  delta.overlapping_pairs = candidates.size();
  const std::vector<uint32_t> match_of_new =
      matching == DeltaMatching::kHungarian
          ? RefHungarianMatch(old_reducers.size(), new_reducers.size(),
                              candidates)
          : RefGreedyMatch(old_reducers.size(), new_reducers.size(),
                           candidates);
  detail->matched_from.assign(new_reducers.size(), DeltaDetail::kUnmatched);
  detail->ships.clear();
  detail->drops.clear();
  std::vector<bool> old_taken(old_reducers.size(), false);
  for (uint32_t t = 0; t < new_reducers.size(); ++t) {
    const uint32_t f = match_of_new[t];
    std::vector<InputId> shipped = new_reducers[t];
    if (f != kRefNoMatch) {
      old_taken[f] = true;
      ++delta.reducers_matched;
      detail->matched_from[t] = f;
      shipped = RefDifference(new_reducers[t], old_reducers[f]);
      for (InputId id : RefDifference(old_reducers[f], new_reducers[t])) {
        ++delta.inputs_dropped;
        detail->drops.emplace_back(f, id);
      }
    } else {
      ++delta.reducers_created;
    }
    for (InputId id : shipped) {
      ++delta.inputs_moved;
      delta.bytes_moved += sizes[id];
      detail->ships.emplace_back(t, id);
    }
  }
  for (uint32_t f = 0; f < old_reducers.size(); ++f) {
    if (old_taken[f]) continue;
    ++delta.reducers_destroyed;
    for (InputId id : old_reducers[f]) {
      ++delta.inputs_dropped;
      detail->drops.emplace_back(f, id);
    }
  }
  return delta;
}

TEST(MinMoveDeltaTest, IdenticalSchemasAreFree) {
  const std::vector<InputSize> sizes{5, 7, 9, 11};
  const MappingSchema schema = Make({{0, 1}, {1, 2, 3}, {0, 3}});
  const DeltaStats delta = MinMoveDelta(sizes, schema, schema);
  EXPECT_EQ(delta.inputs_moved, 0u);
  EXPECT_EQ(delta.inputs_dropped, 0u);
  EXPECT_EQ(delta.bytes_moved, 0u);
  EXPECT_EQ(delta.reducers_created, 0u);
  EXPECT_EQ(delta.reducers_destroyed, 0u);
  EXPECT_EQ(delta.reducers_matched, 3u);
}

TEST(MinMoveDeltaTest, ReducerOrderDoesNotMatter) {
  const std::vector<InputSize> sizes{5, 7, 9, 11};
  const MappingSchema from = Make({{0, 1}, {1, 2, 3}, {0, 3}});
  const MappingSchema to = Make({{0, 3}, {0, 1}, {1, 2, 3}});
  const DeltaStats delta = MinMoveDelta(sizes, from, to);
  EXPECT_EQ(delta.inputs_moved, 0u);
  EXPECT_EQ(delta.inputs_dropped, 0u);
  EXPECT_EQ(delta.reducers_matched, 3u);
}

TEST(MinMoveDeltaTest, SingleMovedCopyCostsItsBytes) {
  const std::vector<InputSize> sizes{5, 7, 9, 11};
  const MappingSchema from = Make({{0, 1}, {2, 3}});
  const MappingSchema to = Make({{0, 1, 2}, {2, 3}});
  const DeltaStats delta = MinMoveDelta(sizes, from, to);
  EXPECT_EQ(delta.inputs_moved, 1u);  // input 2 copied into reducer 0
  EXPECT_EQ(delta.inputs_dropped, 0u);
  EXPECT_EQ(delta.bytes_moved, 9u);
  EXPECT_EQ(delta.reducers_matched, 2u);
}

TEST(MinMoveDeltaTest, DisjointSchemasPayFully) {
  const std::vector<InputSize> sizes{5, 7, 9, 11};
  const MappingSchema from = Make({{0, 1}});
  const MappingSchema to = Make({{2, 3}, {2}});
  const DeltaStats delta = MinMoveDelta(sizes, from, to);
  // Nothing overlaps: the old reducer is retired, both new ones built.
  EXPECT_EQ(delta.reducers_matched, 0u);
  EXPECT_EQ(delta.reducers_destroyed, 1u);
  EXPECT_EQ(delta.reducers_created, 2u);
  EXPECT_EQ(delta.inputs_moved, 3u);
  EXPECT_EQ(delta.inputs_dropped, 2u);
  EXPECT_EQ(delta.bytes_moved, 9u + 11u + 9u);
}

TEST(MinMoveDeltaTest, MatchingPrefersLargestOverlap) {
  const std::vector<InputSize> sizes{10, 10, 10, 10};
  const MappingSchema from = Make({{0, 1, 2}, {3}});
  // Both new reducers overlap the big old one; it must pair with the
  // one sharing the most bytes so only one copy moves.
  const MappingSchema to = Make({{0, 3}, {0, 1, 2}});
  const DeltaStats delta = MinMoveDelta(sizes, from, to);
  EXPECT_EQ(delta.reducers_matched, 2u);
  EXPECT_EQ(delta.inputs_moved, 1u);  // input 0 into the {0, 3} reducer
  EXPECT_EQ(delta.bytes_moved, 10u);
}

TEST(MinMoveDeltaTest, AggregateConservationOnRandomSchemas) {
  Rng rng(77);
  for (int round = 0; round < 50; ++round) {
    const std::size_t m = 5 + rng.UniformInt(20);
    std::vector<InputSize> sizes(m);
    for (auto& w : sizes) w = 1 + rng.UniformInt(50);
    auto random_schema = [&]() {
      MappingSchema schema;
      const std::size_t z = 1 + rng.UniformInt(8);
      for (std::size_t r = 0; r < z; ++r) {
        Reducer reducer;
        for (InputId id = 0; id < m; ++id) {
          if (rng.Bernoulli(0.3)) reducer.push_back(id);
        }
        if (!reducer.empty()) schema.reducers.push_back(std::move(reducer));
      }
      return schema;
    };
    const MappingSchema from = random_schema();
    const MappingSchema to = random_schema();
    const DeltaStats delta = MinMoveDelta(sizes, from, to);

    auto copies = [](const MappingSchema& schema) {
      uint64_t n = 0;
      for (const Reducer& r : schema.reducers) n += r.size();
      return n;
    };
    EXPECT_EQ(static_cast<int64_t>(delta.inputs_moved) -
                  static_cast<int64_t>(delta.inputs_dropped),
              static_cast<int64_t>(copies(to)) -
                  static_cast<int64_t>(copies(from)));
    EXPECT_EQ(delta.reducers_matched + delta.reducers_created,
              to.num_reducers());
    EXPECT_EQ(delta.reducers_matched + delta.reducers_destroyed,
              from.num_reducers());
    // A full rebuild is the worst case the matching can return.
    EXPECT_LE(delta.inputs_moved, copies(to));
  }
}

TEST(MinMoveDeltaTest, DetailMatchedReducersKeepRetainedCopies) {
  const std::vector<InputSize> sizes{5, 7, 9, 11};
  const MappingSchema from = Make({{0, 1}, {2, 3}});
  const MappingSchema to = Make({{0, 1, 2}, {3}});
  DeltaDetail detail;
  const DeltaStats delta = MinMoveDelta(sizes, from, to, &detail);
  EXPECT_EQ(delta.inputs_moved, 1u);
  EXPECT_EQ(delta.bytes_moved, 9u);
  EXPECT_EQ(delta.inputs_dropped, 1u);
  ASSERT_EQ(detail.matched_from.size(), 2u);
  EXPECT_EQ(detail.matched_from[0], 0u);
  EXPECT_EQ(detail.matched_from[1], 1u);
  // Only the copy of input 2 moves (into to-reducer 0, out of from-
  // reducer 1); the retained copies appear in neither list.
  ASSERT_EQ(detail.ships.size(), 1u);
  EXPECT_EQ(detail.ships[0], (std::pair<uint32_t, InputId>{0, 2}));
  ASSERT_EQ(detail.drops.size(), 1u);
  EXPECT_EQ(detail.drops[0], (std::pair<uint32_t, InputId>{1, 2}));
}

// The detail is the stats' exact itemization on randomized schema
// pairs: ships sum to bytes_moved/inputs_moved, drops to
// inputs_dropped, and the matching is injective.
TEST(MinMoveDeltaTest, DetailItemizesExactlyTheStats) {
  Rng rng(77);
  for (int round = 0; round < 30; ++round) {
    std::vector<InputSize> sizes;
    for (int i = 0; i < 12; ++i) {
      sizes.push_back(1 + rng.UniformInt(40));
    }
    const auto random_schema = [&]() {
      MappingSchema schema;
      const std::size_t reducers = 1 + rng.UniformInt(6);
      for (std::size_t r = 0; r < reducers; ++r) {
        Reducer reducer;
        for (InputId id = 0; id < sizes.size(); ++id) {
          if (rng.Bernoulli(0.3)) reducer.push_back(id);
        }
        if (!reducer.empty()) schema.reducers.push_back(std::move(reducer));
      }
      return schema;
    };
    const MappingSchema from = random_schema();
    const MappingSchema to = random_schema();
    DeltaDetail detail;
    const DeltaStats delta = MinMoveDelta(sizes, from, to, &detail);

    EXPECT_EQ(detail.ships.size(), delta.inputs_moved);
    EXPECT_EQ(detail.drops.size(), delta.inputs_dropped);
    uint64_t ship_bytes = 0;
    for (const auto& [t, id] : detail.ships) {
      ASSERT_LT(t, to.num_reducers());
      ship_bytes += sizes[id];
    }
    EXPECT_EQ(ship_bytes, delta.bytes_moved);
    std::vector<bool> taken(from.num_reducers(), false);
    uint64_t matched = 0;
    for (uint32_t f : detail.matched_from) {
      if (f == DeltaDetail::kUnmatched) continue;
      ASSERT_LT(f, from.num_reducers());
      EXPECT_FALSE(taken[f]) << "matching must be injective";
      taken[f] = true;
      ++matched;
    }
    EXPECT_EQ(matched, delta.reducers_matched);
  }
}

// Hand-built instance where greedy matching is provably suboptimal.
// With unit sizes and overlap matrix
//          N0   N1
//   O0     10    9
//   O1      9    0
// greedy grabs the single largest overlap (O0, N0) = 10 and strands
// both leftovers (O1/N1 share nothing), retaining 10 bytes; the
// optimal assignment takes the two 9s and retains 18.
TEST(MinMoveDeltaTest, HungarianFindsOptimumGreedyMisses) {
  const std::vector<InputSize> sizes(29, 1);
  Reducer a, b, c;
  for (InputId id = 0; id < 10; ++id) a.push_back(id);
  for (InputId id = 10; id < 19; ++id) b.push_back(id);
  for (InputId id = 19; id < 28; ++id) c.push_back(id);
  Reducer o0 = a, o1 = c, n0 = a, n1 = b;
  o0.insert(o0.end(), b.begin(), b.end());  // O0 = A ∪ B
  o1.push_back(28);                         // O1 = C ∪ {28}
  n0.insert(n0.end(), c.begin(), c.end());  // N0 = A ∪ C
  std::sort(o0.begin(), o0.end());
  std::sort(n0.begin(), n0.end());
  const MappingSchema from = Make({o0, o1});
  const MappingSchema to = Make({n0, n1});  // 28 target copies

  const DeltaStats greedy = MinMoveDelta(sizes, from, to, nullptr,
                                         DeltaMatching::kGreedy);
  const DeltaStats exact = MinMoveDelta(sizes, from, to, nullptr,
                                        DeltaMatching::kHungarian);
  EXPECT_EQ(greedy.reducers_matched, 1u);
  EXPECT_EQ(greedy.bytes_moved, 28u - 10u);
  EXPECT_EQ(exact.reducers_matched, 2u);
  EXPECT_EQ(exact.bytes_moved, 28u - 18u);
  // Both matchings describe the same migration target: copy-count and
  // reducer-count deltas agree even though the pairing differs.
  EXPECT_EQ(exact.inputs_moved - exact.inputs_dropped,
            greedy.inputs_moved - greedy.inputs_dropped);
}

TEST(MinMoveDeltaTest, HungarianIsExactOnIdenticalSchemas) {
  const std::vector<InputSize> sizes{5, 7, 9, 11};
  const MappingSchema schema = Make({{0, 1}, {1, 2, 3}, {0, 3}});
  const DeltaStats delta = MinMoveDelta(sizes, schema, schema, nullptr,
                                        DeltaMatching::kHungarian);
  EXPECT_EQ(delta.bytes_moved, 0u);
  EXPECT_EQ(delta.inputs_moved, 0u);
  EXPECT_EQ(delta.reducers_matched, 3u);
}

// The exact matcher can never ship more bytes than the greedy one, and
// both must obey the aggregate conservation laws on the same pair.
TEST(MinMoveDeltaTest, HungarianNeverWorseOnRandomSchemas) {
  Rng rng(99);
  uint64_t strictly_better = 0;
  for (int round = 0; round < 60; ++round) {
    const std::size_t m = 5 + rng.UniformInt(15);
    std::vector<InputSize> sizes(m);
    for (auto& w : sizes) w = 1 + rng.UniformInt(50);
    const auto random_schema = [&]() {
      MappingSchema schema;
      const std::size_t z = 1 + rng.UniformInt(8);
      for (std::size_t r = 0; r < z; ++r) {
        Reducer reducer;
        for (InputId id = 0; id < m; ++id) {
          if (rng.Bernoulli(0.3)) reducer.push_back(id);
        }
        if (!reducer.empty()) schema.reducers.push_back(std::move(reducer));
      }
      return schema;
    };
    const MappingSchema from = random_schema();
    const MappingSchema to = random_schema();
    const DeltaStats greedy = MinMoveDelta(sizes, from, to, nullptr,
                                           DeltaMatching::kGreedy);
    const DeltaStats exact = MinMoveDelta(sizes, from, to, nullptr,
                                          DeltaMatching::kHungarian);
    // The optimum is in *bytes*: retaining more bytes can mean
    // retaining fewer (larger) copies, so only the byte bound holds.
    ASSERT_LE(exact.bytes_moved, greedy.bytes_moved);
    EXPECT_EQ(exact.inputs_moved - exact.inputs_dropped,
              greedy.inputs_moved - greedy.inputs_dropped);
    if (exact.bytes_moved < greedy.bytes_moved) ++strictly_better;
  }
  // Random dense-overlap schema pairs must include cases where the
  // greedy pairing is beatable, or the baseline is not honest.
  EXPECT_GT(strictly_better, 0u);
}

// A random delta input. Shapes: 0 general,
// 1 tie-heavy (sizes 1..3, dense reducers, so overlaps collide),
// 2 one or both schemas empty, 3 disjoint inputs, 4 `to` a perturbed
// and reordered copy of `from` (the shape a re-plan deploys), 5 larger
// schemas. Reducers may be empty and members arrive unsorted.
struct DeltaCase {
  std::vector<InputSize> sizes;
  MappingSchema from;
  MappingSchema to;
};

DeltaCase RandomDeltaCase(Rng& rng, int shape) {
  DeltaCase c;
  const std::size_t m = 1 + rng.UniformInt(shape == 5 ? 150 : 40);
  const InputSize max_size = shape == 1 ? 3 : 1 + rng.UniformInt(60);
  for (std::size_t i = 0; i < m; ++i) {
    c.sizes.push_back(1 + rng.UniformInt(max_size));
  }
  const auto random_schema = [&](InputId lo, InputId hi) {
    MappingSchema schema;
    const std::size_t z = rng.UniformInt(shape == 5 ? 60 : 12);
    const double p = shape == 1 ? 0.4 + 0.4 * rng.UniformDouble()
                                : 0.05 + 0.5 * rng.UniformDouble();
    for (std::size_t r = 0; r < z; ++r) {
      Reducer reducer;
      for (InputId id = lo; id < hi; ++id) {
        if (rng.Bernoulli(p)) reducer.push_back(id);
      }
      rng.Shuffle(&reducer);
      schema.reducers.push_back(std::move(reducer));
    }
    return schema;
  };
  const InputId all = static_cast<InputId>(m);
  if (shape == 3) {
    c.from = random_schema(0, all / 2);
    c.to = random_schema(all / 2, all);
  } else {
    c.from = random_schema(0, all);
    c.to = random_schema(0, all);
  }
  if (shape == 2) {
    const uint64_t which = rng.UniformInt(3);
    if (which != 1) c.from.reducers.clear();
    if (which != 0) c.to.reducers.clear();
  }
  if (shape == 4) {
    c.to = c.from;
    for (Reducer& reducer : c.to.reducers) {
      std::erase_if(reducer, [&](InputId) { return rng.Bernoulli(0.2); });
      for (InputId id = 0; id < all; ++id) {
        if (rng.Bernoulli(0.05) &&
            std::find(reducer.begin(), reducer.end(), id) == reducer.end()) {
          reducer.push_back(id);
        }
      }
      rng.Shuffle(&reducer);
    }
    rng.Shuffle(&c.to.reducers);
  }

  return c;
}

// The library (flat index, lazy-heap greedy) returns exactly the
// reference's stats and detail, greedy and Hungarian.
TEST(MinMoveDeltaTest, MatchesSortedReferenceOnRandomSchemas) {
  Rng rng(2015);
  uint64_t cases = 0;
  uint64_t mismatches = 0;
  uint64_t matched_somewhere = 0;
  for (int shape = 0; shape <= 5; ++shape) {
    const int rounds = shape == 5 ? 250 : 850;
    for (int round = 0; round < rounds; ++round) {
      const DeltaCase c = RandomDeltaCase(rng, shape);
      for (const DeltaMatching matching :
           {DeltaMatching::kGreedy, DeltaMatching::kHungarian}) {
        DeltaDetail want;
        const DeltaStats ref =
            RefMinMoveDelta(c.sizes, c.from, c.to, &want, matching);
        ++cases;
        DeltaDetail got;
        const DeltaStats lib = MinMoveDelta(c.sizes, c.from, c.to, &got,
                                            matching);
        const bool same = lib == ref &&
                          got.matched_from == want.matched_from &&
                          got.ships == want.ships && got.drops == want.drops;
        if (!same && ++mismatches <= 5) {
          ADD_FAILURE() << "shape " << shape << " round " << round
                        << " matching " << static_cast<int>(matching);
        }
        matched_somewhere += ref.reducers_matched;
      }
    }
  }
  EXPECT_EQ(mismatches, 0u) << "of " << cases << " cases";
  EXPECT_GT(matched_somewhere, 0u);
}

// The pair a deployed re-plan diffs: a live schema repaired over a
// generated trace, against a fresh PlannerService plan of its alive set
// remapped to live ids. Variants add what live pairs rarely show: an old
// reducer and a strict superset of it that tie on overlap with the same
// new reducer (in both index orders), and unsorted members on both
// sides, which the library must sort through copies.
TEST(MinMoveDeltaTest, MatchesSortedReferenceOnReplanShapedSchemas) {
  uint64_t cases = 0;
  uint64_t mismatches = 0;
  uint64_t matched_somewhere = 0;
  for (const bool x2y : {false, true}) {
    for (const std::size_t m0 : {40, 100, 200}) {
      wl::TraceConfig trace_config;
      trace_config.x2y = x2y;
      trace_config.initial_inputs = m0;
      trace_config.steps = 60;
      trace_config.seed = 700 + m0 + (x2y ? 1 : 0);
      const UpdateTrace trace = wl::GenerateTrace(trace_config);
      OnlineConfig config;
      config.x2y = x2y;
      config.capacity = trace.initial_capacity;
      config.policy_spec.name = "never";
      OnlineAssigner assigner(config);
      std::vector<Side> side_of;
      for (const Update& update : trace.updates) {
        const UpdateResult result = assigner.Apply(update);
        ASSERT_TRUE(result.applied) << result.error;
        if (result.new_id.has_value()) {
          side_of.resize(*result.new_id + 1);
          side_of[*result.new_id] = update.side;
        }
      }

      std::vector<InputSize> sizes(side_of.size(), 1);
      std::vector<InputSize> x_sizes;
      std::vector<InputSize> y_sizes;
      std::vector<InputId> x_live;
      std::vector<InputId> y_live;
      for (InputId id = 0; id < side_of.size(); ++id) {
        if (!assigner.is_alive(id)) continue;
        sizes[id] = assigner.size_of(id);
        const bool y = x2y && side_of[id] == Side::kY;
        (y ? y_sizes : x_sizes).push_back(sizes[id]);
        (y ? y_live : x_live).push_back(id);
      }
      std::vector<InputId> live_of_dense = x_live;
      live_of_dense.insert(live_of_dense.end(), y_live.begin(), y_live.end());
      const InputSize q = assigner.capacity();
      planner::PlannerService planner;
      const planner::PlanResult plan =
          x2y ? planner.Plan(*X2YInstance::Create(x_sizes, y_sizes, q))
              : planner.Plan(*A2AInstance::Create(x_sizes, q));
      ASSERT_TRUE(plan.schema.has_value());
      MappingSchema fresh;
      for (const Reducer& reducer : plan.schema->reducers) {
        Reducer live;
        for (const InputId dense : reducer) {
          live.push_back(live_of_dense[dense]);
        }
        std::sort(live.begin(), live.end());
        fresh.reducers.push_back(std::move(live));
      }
      const MappingSchema repaired = assigner.Schema();

      Rng rng(m0 * 2 + (x2y ? 1 : 0));
      std::vector<std::pair<MappingSchema, MappingSchema>> pairs;
      pairs.emplace_back(repaired, fresh);
      for (const bool superset_first : {true, false}) {
        // Two old reducers tie on overlap with fresh reducer 0: its
        // exact copy and a superset of it (one extra member).
        MappingSchema from = repaired;
        Reducer superset = fresh.reducers[0];
        for (InputId id = 0; id < sizes.size(); ++id) {
          if (assigner.is_alive(id) &&
              !std::binary_search(superset.begin(), superset.end(), id)) {
            superset.push_back(id);
            break;
          }
        }
        std::sort(superset.begin(), superset.end());
        const std::size_t at = rng.UniformInt(from.reducers.size() + 1);
        from.reducers.insert(from.reducers.begin() + at,
                             superset_first ? superset : fresh.reducers[0]);
        from.reducers.insert(from.reducers.begin() + at + 1,
                             superset_first ? fresh.reducers[0] : superset);
        pairs.emplace_back(std::move(from), fresh);
      }
      {
        MappingSchema from = repaired;
        MappingSchema to = fresh;
        for (MappingSchema* schema : {&from, &to}) {
          for (Reducer& reducer : schema->reducers) {
            if (rng.Bernoulli(0.3)) rng.Shuffle(&reducer);
          }
        }
        pairs.emplace_back(std::move(from), std::move(to));
      }

      for (const auto& [from, to] : pairs) {
        for (const bool reversed : {false, true}) {
          const MappingSchema& a = reversed ? to : from;
          const MappingSchema& b = reversed ? from : to;
          DeltaDetail want;
          const DeltaStats ref =
              RefMinMoveDelta(sizes, a, b, &want, DeltaMatching::kGreedy);
          DeltaDetail got;
          const DeltaStats lib = MinMoveDelta(sizes, a, b, &got);
          ++cases;
          const bool same = lib == ref &&
                            got.matched_from == want.matched_from &&
                            got.ships == want.ships &&
                            got.drops == want.drops;
          if (!same && ++mismatches <= 5) {
            ADD_FAILURE() << (x2y ? "x2y" : "a2a") << " m0=" << m0
                          << " reversed=" << reversed;
          }
          matched_somewhere += ref.reducers_matched;
        }
      }
    }
  }
  EXPECT_EQ(mismatches, 0u) << "of " << cases << " cases";
  EXPECT_EQ(cases, 2u * 3u * 4u * 2u);
  EXPECT_GT(matched_somewhere, 0u);
}

// Ties everywhere: every overlap is one unit byte, so the order among
// equal overlaps decides the whole matching.
TEST(MinMoveDeltaTest, EqualOverlapsBreakTiesByFromThenTo) {
  const std::vector<InputSize> sizes(6, 1);
  const MappingSchema from = Make({{4, 0}, {1, 2}, {3, 5}});
  const MappingSchema to = Make({{2, 5}, {0, 3}, {1, 4}});
  // Overlaps are all 1: (from 0, to 1), (0, 2), (1, 0), (1, 2),
  // (2, 0), (2, 1). The visiting order takes (0, 1), then (1, 0), and
  // (2, 2) shares nothing, so from-reducer 2 retires and to-reducer 2
  // is built fresh.
  DeltaDetail detail;
  const DeltaStats delta = MinMoveDelta(sizes, from, to, &detail);
  EXPECT_EQ(detail.matched_from,
            (std::vector<uint32_t>{1, 0, DeltaDetail::kUnmatched}));
  EXPECT_EQ(delta.overlapping_pairs, 6u);
  EXPECT_EQ(delta.reducers_matched, 2u);
  EXPECT_EQ(delta.reducers_destroyed, 1u);
}

// Replays the six generated trace shapes under a periodic re-plan
// policy with both matching backends. The matching only changes how a
// re-plan's churn is accounted and which reducer uids carry over — the
// deployed schema is the planner's either way — so the two replays
// stay in lockstep and the Hungarian one never ships more bytes.
TEST(MinMoveDeltaTest, ReplayLockstepHungarianNeverShipsMore) {
  uint64_t gap_somewhere = 0;
  uint64_t seed = 31;
  for (const wl::TraceShape shape :
       {wl::TraceShape::kMixed, wl::TraceShape::kFlashCrowd,
        wl::TraceShape::kCapacityOscillation}) {
    for (const bool x2y : {false, true}) {
      wl::TraceConfig trace_config;
      trace_config.shape = shape;
      trace_config.x2y = x2y;
      trace_config.initial_inputs = 24;
      trace_config.steps = 120;
      trace_config.capacity = 100;
      trace_config.lo = 2;
      trace_config.hi = 40;
      trace_config.seed = seed++;
      const UpdateTrace trace = wl::GenerateTrace(trace_config);

      const auto replay = [&](DeltaMatching matching) {
        OnlineConfig config;
        config.x2y = trace.x2y;
        config.capacity = trace.initial_capacity;
        config.policy_spec.name = "every-n";
        config.policy_spec.every_n = 16;
        config.delta_matching = matching;
        auto assigner = std::make_unique<OnlineAssigner>(config);
        std::vector<std::optional<InputId>> live_of_trace;
        TraceIdTranslator translator(&live_of_trace);
        for (const Update& update : trace.updates) {
          Update live = update;
          if (!translator.Translate(&live)) continue;
          const UpdateResult result = assigner->Apply(live);
          if (live.kind == UpdateKind::kAddInput) {
            translator.RecordAdd(result.applied ? result.new_id
                                                : std::nullopt);
          }
        }
        return assigner;
      };
      const auto greedy = replay(DeltaMatching::kGreedy);
      const auto exact = replay(DeltaMatching::kHungarian);
      ASSERT_GT(greedy->totals().replans, 0u);
      EXPECT_EQ(greedy->totals().replans, exact->totals().replans);
      EXPECT_EQ(greedy->Schema().reducers, exact->Schema().reducers)
          << "replays diverged, seed " << trace_config.seed;
      ASSERT_LE(exact->totals().churn.bytes_moved,
                greedy->totals().churn.bytes_moved);
      gap_somewhere += greedy->totals().churn.bytes_moved -
                       exact->totals().churn.bytes_moved;
    }
  }
  // Across six shapes and ~45 re-plans the greedy matcher should leave
  // at least some bytes on the table; a zero gap everywhere would mean
  // the optimal baseline adds no information.
  EXPECT_GT(gap_somewhere, 0u);
}

}  // namespace
}  // namespace msp::online
