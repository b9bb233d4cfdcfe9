#include "binpack/algorithms.h"

#include <algorithm>
#include <numeric>
#include <set>
#include <utility>

#include "util/check.h"

namespace msp::bp {

namespace {

Packing PackNextFit(const std::vector<uint64_t>& sizes, uint64_t capacity,
                    const std::vector<ItemIndex>& order) {
  Packing packing;
  packing.capacity = capacity;
  uint64_t residual = 0;
  for (ItemIndex i : order) {
    if (packing.bins.empty() || sizes[i] > residual) {
      packing.bins.emplace_back();
      residual = capacity;
    }
    packing.bins.back().push_back(i);
    residual -= sizes[i];
  }
  return packing;
}

Packing PackFirstFit(const std::vector<uint64_t>& sizes, uint64_t capacity,
                     const std::vector<ItemIndex>& order) {
  Packing packing;
  packing.capacity = capacity;
  FirstFitPacker packer(std::max<std::size_t>(order.size(), 1), capacity);
  for (ItemIndex i : order) {
    const std::size_t bin = packer.Place(sizes[i]);
    if (bin >= packing.bins.size()) packing.bins.resize(bin + 1);
    packing.bins[bin].push_back(i);
  }
  return packing;
}

// BestFit (tightest bin) and WorstFit (emptiest bin) share a multiset
// of (residual, bin index).
Packing PackByResidual(const std::vector<uint64_t>& sizes, uint64_t capacity,
                       const std::vector<ItemIndex>& order, bool best_fit) {
  Packing packing;
  packing.capacity = capacity;
  std::multiset<std::pair<uint64_t, std::size_t>> residuals;
  for (ItemIndex i : order) {
    const uint64_t w = sizes[i];
    std::multiset<std::pair<uint64_t, std::size_t>>::iterator it;
    bool found = false;
    if (best_fit) {
      it = residuals.lower_bound({w, 0});
      found = it != residuals.end();
    } else {
      // Worst fit: the emptiest bin, if it fits.
      if (!residuals.empty()) {
        it = std::prev(residuals.end());
        found = it->first >= w;
      }
    }
    if (!found) {
      packing.bins.emplace_back();
      packing.bins.back().push_back(i);
      residuals.insert({capacity - w, packing.bins.size() - 1});
      continue;
    }
    const auto [residual, bin] = *it;
    residuals.erase(it);
    packing.bins[bin].push_back(i);
    residuals.insert({residual - w, bin});
  }
  return packing;
}

std::vector<ItemIndex> IdentityOrder(std::size_t n) {
  std::vector<ItemIndex> order(n);
  std::iota(order.begin(), order.end(), 0);
  return order;
}

std::vector<ItemIndex> DecreasingOrder(const std::vector<uint64_t>& sizes) {
  std::vector<ItemIndex> order = IdentityOrder(sizes.size());
  std::stable_sort(order.begin(), order.end(), [&](ItemIndex a, ItemIndex b) {
    return sizes[a] > sizes[b];
  });
  return order;
}

}  // namespace

void FirstFitPacker::Reset(std::size_t max_items, uint64_t capacity) {
  MSP_CHECK_GT(capacity, 0u);
  n_ = 1;
  while (n_ < std::max<std::size_t>(max_items, 1)) n_ *= 2;
  capacity_ = capacity;
  bins_used_ = 0;
  // Every slot starts with full residual capacity; bins_used_ tracks
  // how many slots have actually been opened.
  tree_.assign(2 * n_, capacity);
}

std::size_t FirstFitPacker::Place(uint64_t w) {
  // Feasibility is checked once here, off the descent loop.
  MSP_CHECK_GT(n_, 0u) << "FirstFitPacker used before Reset";
  MSP_CHECK_LE(w, capacity_);
  MSP_CHECK_GE(tree_[1], w) << "first-fit tree out of slots";
  // Probe: pure arithmetic descent — step right exactly when the left
  // child cannot fit `w`. The comparison feeds an index computation,
  // not a conditional jump, so adversarial size streams cannot make
  // the probe mispredict.
  std::size_t node = 1;
  while (node < n_) {
    node = 2 * node + static_cast<std::size_t>(tree_[2 * node] < w);
  }
  const std::size_t bin = node - n_;
  tree_[node] -= w;
  // Pull: unconditional bottom-up max refresh, no per-level early-out.
  for (node >>= 1; node != 0; node >>= 1) {
    tree_[node] = std::max(tree_[2 * node], tree_[2 * node + 1]);
  }
  bins_used_ = std::max(bins_used_, bin + 1);
  return bin;
}

std::string AlgorithmName(Algorithm algorithm) {
  switch (algorithm) {
    case Algorithm::kNextFit:
      return "NF";
    case Algorithm::kFirstFit:
      return "FF";
    case Algorithm::kBestFit:
      return "BF";
    case Algorithm::kWorstFit:
      return "WF";
    case Algorithm::kFirstFitDecreasing:
      return "FFD";
    case Algorithm::kBestFitDecreasing:
      return "BFD";
  }
  return "unknown";
}

Packing Pack(const std::vector<uint64_t>& sizes, uint64_t capacity,
             Algorithm algorithm) {
  MSP_CHECK_GT(capacity, 0u);
  for (uint64_t w : sizes) {
    MSP_CHECK_GT(w, 0u) << "zero-sized item";
    MSP_CHECK_LE(w, capacity) << "item larger than bin capacity";
  }
  switch (algorithm) {
    case Algorithm::kNextFit:
      return PackNextFit(sizes, capacity, IdentityOrder(sizes.size()));
    case Algorithm::kFirstFit:
      return PackFirstFit(sizes, capacity, IdentityOrder(sizes.size()));
    case Algorithm::kBestFit:
      return PackByResidual(sizes, capacity, IdentityOrder(sizes.size()),
                            /*best_fit=*/true);
    case Algorithm::kWorstFit:
      return PackByResidual(sizes, capacity, IdentityOrder(sizes.size()),
                            /*best_fit=*/false);
    case Algorithm::kFirstFitDecreasing:
      return PackFirstFit(sizes, capacity, DecreasingOrder(sizes));
    case Algorithm::kBestFitDecreasing:
      return PackByResidual(sizes, capacity, DecreasingOrder(sizes),
                            /*best_fit=*/true);
  }
  MSP_CHECK(false) << "unreachable";
  return Packing{};
}

}  // namespace msp::bp
