#include "planner/canonical.h"

#include <algorithm>
#include <numeric>

#include "util/check.h"

namespace msp::planner {

namespace {

// gcd of every size and the capacity. Always >= 1 (capacity > 0).
InputSize CommonScale(const std::vector<InputSize>& sizes,
                      InputSize capacity) {
  InputSize g = capacity;
  for (InputSize w : sizes) {
    g = std::gcd(g, w);
    if (g == 1) break;
  }
  return g;
}

// Indices of `sizes` ordered by (size descending, index ascending).
std::vector<InputId> DescendingOrder(const std::vector<InputSize>& sizes) {
  std::vector<InputId> order(sizes.size());
  std::iota(order.begin(), order.end(), InputId{0});
  std::stable_sort(order.begin(), order.end(), [&](InputId a, InputId b) {
    return sizes[a] > sizes[b];
  });
  return order;
}

std::vector<InputSize> Gather(const std::vector<InputSize>& sizes,
                              const std::vector<InputId>& order,
                              InputSize scale) {
  std::vector<InputSize> out;
  out.reserve(order.size());
  for (InputId id : order) out.push_back(sizes[id] / scale);
  return out;
}

void AppendHash(uint64_t value, uint64_t* hash) {
  // FNV-1a, one byte at a time.
  for (int shift = 0; shift < 64; shift += 8) {
    *hash ^= (value >> shift) & 0xff;
    *hash *= 1099511628211ull;
  }
}

}  // namespace

uint64_t HashPlanKey(const PlanKey& key) {
  uint64_t hash = 14695981039346656037ull;
  AppendHash(static_cast<uint64_t>(key.kind), &hash);
  AppendHash(key.num_x, &hash);
  AppendHash(key.capacity, &hash);
  AppendHash(key.sizes.size(), &hash);
  for (InputSize w : key.sizes) AppendHash(w, &hash);
  return hash;
}

CanonicalA2A Canonicalize(const A2AInstance& in) {
  const InputSize scale = CommonScale(in.sizes(), in.capacity());
  std::vector<InputId> order = DescendingOrder(in.sizes());
  auto canonical = A2AInstance::Create(Gather(in.sizes(), order, scale),
                                       in.capacity() / scale);
  // The original instance satisfies the Create invariants and exact
  // scaling preserves them (w/g <= q/g iff w <= q).
  MSP_CHECK(canonical.has_value());
  return CanonicalA2A{std::move(*canonical), std::move(order), scale};
}

CanonicalX2Y Canonicalize(const X2YInstance& in) {
  std::vector<InputSize> all = in.x_sizes();
  all.insert(all.end(), in.y_sizes().begin(), in.y_sizes().end());
  const InputSize scale = CommonScale(all, in.capacity());

  const std::vector<InputId> x_order = DescendingOrder(in.x_sizes());
  const std::vector<InputId> y_order = DescendingOrder(in.y_sizes());
  std::vector<InputSize> x_sorted = Gather(in.x_sizes(), x_order, scale);
  std::vector<InputSize> y_sorted = Gather(in.y_sizes(), y_order, scale);

  // The problem is symmetric in the sides; put the lexicographically
  // larger sorted size vector on the X side so mirrored instances
  // canonicalize identically.
  const bool swapped = x_sorted < y_sorted;
  if (swapped) x_sorted.swap(y_sorted);

  // Canonical global ids: canonical X occupies [0, cx), canonical Y
  // occupies [cx, cx + cy); map each back to the original global id.
  std::vector<InputId> original_ids;
  original_ids.reserve(in.num_inputs());
  const auto& first_order = swapped ? y_order : x_order;
  const auto& second_order = swapped ? x_order : y_order;
  const InputId first_base =
      swapped ? static_cast<InputId>(in.num_x()) : InputId{0};
  const InputId second_base =
      swapped ? InputId{0} : static_cast<InputId>(in.num_x());
  for (InputId id : first_order) original_ids.push_back(first_base + id);
  for (InputId id : second_order) original_ids.push_back(second_base + id);

  auto canonical = X2YInstance::Create(std::move(x_sorted),
                                       std::move(y_sorted),
                                       in.capacity() / scale);
  MSP_CHECK(canonical.has_value());
  return CanonicalX2Y{std::move(*canonical), std::move(original_ids), scale,
                      swapped};
}

PlanKey MakeKey(const A2AInstance& canonical) {
  PlanKey key;
  key.kind = PlanKey::kA2A;
  key.capacity = canonical.capacity();
  key.sizes = canonical.sizes();
  return key;
}

PlanKey MakeKey(const X2YInstance& canonical) {
  PlanKey key;
  key.kind = PlanKey::kX2Y;
  key.num_x = static_cast<uint32_t>(canonical.num_x());
  key.capacity = canonical.capacity();
  key.sizes = canonical.x_sizes();
  key.sizes.insert(key.sizes.end(), canonical.y_sizes().begin(),
                   canonical.y_sizes().end());
  return key;
}

MappingSchema Decanonicalize(const std::vector<InputId>& original_ids,
                             MappingSchema schema) {
  for (Reducer& reducer : schema.reducers) {
    for (InputId& id : reducer) {
      MSP_CHECK_LT(id, original_ids.size());
      id = original_ids[id];
    }
    std::sort(reducer.begin(), reducer.end());
  }
  return schema;
}

}  // namespace msp::planner
