// Pair-coverage counters for the live mapping schema.
//
// LiveState must answer "in how many reducers do inputs a and b
// currently meet?" on every copy placed or deleted — the hottest loop
// of the repair engine. The counters are a dense lower-triangular
// array indexed by the *alive ranks* of the pair (the positions in
// LiveState's swap-pop alive-id index). Every required pair of an
// alive A2A instance is covered, so the count structure is inherently
// dense: the triangle stores exactly one uint32 per alive pair, and
// increment/decrement/lookup are two array reads of arithmetic-
// computed offsets — no hashing, no pointer chasing, no per-entry
// allocation. Registering the n-th alive input appends one zeroed
// row; swap-pop removal moves the last rank's row into the freed
// slot, mirroring the alive-id index exactly. LiveState owns the
// id -> rank translation; tests check the counts against a brute-force
// recount of the reducers.

#ifndef MSP_ONLINE_COVERAGE_H_
#define MSP_ONLINE_COVERAGE_H_

#include <cstdint>
#include <vector>

#include "util/check.h"

namespace msp::online {

/// See the file comment. Not thread-safe (owned by one LiveState).
class PairCoverage {
 public:
  /// Drops every count; `num_ranks` pre-sizes the triangle for a known
  /// alive count (snapshot restore, bulk seed).
  void Reset(std::size_t num_ranks) {
    num_ranks_ = num_ranks;
    tri_.assign(TriSize(num_ranks), 0);
  }

  std::size_t num_ranks() const { return num_ranks_; }

  /// Registers one more alive rank (the new highest). The triangle
  /// grows by exactly one zeroed row, appended in place.
  void PushRank() {
    ++num_ranks_;
    tri_.resize(TriSize(num_ranks_), 0);
  }

  /// Swap-pop removal of rank `pos`, mirroring LiveState's alive-id
  /// index: the last rank's counters move into row `pos`, then the last
  /// row is dropped. Every count involving the departing rank must
  /// already be zero (its copies were stripped first).
  void SwapPopRank(uint32_t pos) {
    MSP_DCHECK(num_ranks_ > 0 && pos < num_ranks_);
    const uint32_t last = static_cast<uint32_t>(num_ranks_ - 1);
    if (pos != last) {
      for (uint32_t r = 0; r < last; ++r) {
        if (r == pos) continue;
        MSP_DCHECK(tri_[TriIndex(pos, r)] == 0)
            << "unregistering a rank with live pair coverage";
        tri_[TriIndex(pos, r)] = tri_[TriIndex(last, r)];
      }
    }
    tri_.resize(TriSize(last));
    num_ranks_ = last;
  }

  uint32_t Count(uint32_t rank_a, uint32_t rank_b) const {
    return tri_[TriIndex(rank_a, rank_b)];
  }

  void Increment(uint32_t rank_a, uint32_t rank_b) {
    ++tri_[TriIndex(rank_a, rank_b)];
  }

  void Decrement(uint32_t rank_a, uint32_t rank_b) {
    MSP_DCHECK(tri_[TriIndex(rank_a, rank_b)] > 0);
    --tri_[TriIndex(rank_a, rank_b)];
  }

  /// Heap bytes held by the counters (reported by the serving stats).
  uint64_t footprint_bytes() const {
    return tri_.capacity() * sizeof(uint32_t);
  }

 private:
  /// Entries of a lower triangle over `n` ranks: one per unordered
  /// pair of distinct ranks.
  static std::size_t TriSize(std::size_t n) { return n * (n - 1) / 2; }

  /// Row-major offset of the unordered rank pair: row hi (the larger
  /// rank) starts at TriSize(hi) and holds columns 0..hi-1.
  static std::size_t TriIndex(uint32_t rank_a, uint32_t rank_b) {
    MSP_DCHECK(rank_a != rank_b);
    const uint64_t lo = rank_a < rank_b ? rank_a : rank_b;
    const uint64_t hi = rank_a < rank_b ? rank_b : rank_a;
    return static_cast<std::size_t>(hi * (hi - 1) / 2 + lo);
  }

  std::size_t num_ranks_ = 0;
  std::vector<uint32_t> tri_;
};

}  // namespace msp::online

#endif  // MSP_ONLINE_COVERAGE_H_
