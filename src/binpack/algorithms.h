// Classic online and offline bin-packing heuristics.
//
// All algorithms run in O(n log n): FirstFit uses a segment tree over
// bin residual capacities, BestFit/WorstFit use an ordered multiset.
// FirstFitDecreasing (the default throughout the mapping-schema
// algorithms) sorts by decreasing size and then runs FirstFit; its
// classic guarantee FFD(I) <= (11/9) OPT(I) + 6/9 carries into the
// schema-size bounds.

#ifndef MSP_BINPACK_ALGORITHMS_H_
#define MSP_BINPACK_ALGORITHMS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "binpack/packing.h"

namespace msp::bp {

/// Which packing heuristic to run.
enum class Algorithm {
  kNextFit,             // keep one open bin
  kFirstFit,            // leftmost bin that fits
  kBestFit,             // tightest bin that fits
  kWorstFit,            // emptiest bin that fits
  kFirstFitDecreasing,  // sort desc, then first fit
  kBestFitDecreasing,   // sort desc, then best fit
};

/// All algorithms, in a stable order (for sweeps/ablations).
inline constexpr Algorithm kAllAlgorithms[] = {
    Algorithm::kNextFit,          Algorithm::kFirstFit,
    Algorithm::kBestFit,          Algorithm::kWorstFit,
    Algorithm::kFirstFitDecreasing, Algorithm::kBestFitDecreasing,
};

/// Human-readable name ("FFD", "BF", ...).
std::string AlgorithmName(Algorithm algorithm);

/// Reusable first-fit placer: a lazy segment tree over bin residual
/// capacities answering "leftmost bin with residual >= w" in O(log n)
/// per item. Slots open lazily left-to-right, so the leftmost fitting
/// slot is exactly FirstFit's target bin. The descent is branchless
/// (node = 2*node + (left < w)), so adversarial size streams cannot
/// make it mispredict. Reset re-arms for a fresh packing while
/// retaining the tree buffer — batches of packings pay no per-pack
/// allocation once the high-water mark is reached.
class FirstFitPacker {
 public:
  FirstFitPacker() = default;
  FirstFitPacker(std::size_t max_items, uint64_t capacity) {
    Reset(max_items, capacity);
  }

  /// Re-arms for a fresh packing of up to `max_items` items into bins
  /// of `capacity` (> 0, checked).
  void Reset(std::size_t max_items, uint64_t capacity);

  /// Places one item of size `w` (<= capacity, checked) into the
  /// leftmost bin with room and returns that bin's index.
  std::size_t Place(uint64_t w);

  /// Bins opened so far (the packing's bin count).
  std::size_t bins_used() const { return bins_used_; }
  uint64_t capacity() const { return capacity_; }

 private:
  std::size_t n_ = 0;  // leaf count (power of two); 0 = not armed
  uint64_t capacity_ = 0;
  std::size_t bins_used_ = 0;
  std::vector<uint64_t> tree_;  // 1-indexed max-residual segment tree
};

/// Packs `sizes` into bins of `capacity` with the chosen heuristic.
/// Requires every size to satisfy 0 < size <= capacity (checked).
Packing Pack(const std::vector<uint64_t>& sizes, uint64_t capacity,
             Algorithm algorithm);

}  // namespace msp::bp

#endif  // MSP_BINPACK_ALGORITHMS_H_
