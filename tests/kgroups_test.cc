// Tests for the generalized k-bins-per-reducer covering construction.

#include "core/a2a.h"
#include "core/bounds.h"
#include "core/instance.h"
#include "core/validate.h"
#include "gtest/gtest.h"
#include "util/rng.h"
#include "workload/sizes.h"

namespace msp {
namespace {

TEST(KGroupsTest, RejectsBadK) {
  auto in = A2AInstance::Create({1, 1}, 10);
  EXPECT_FALSE(SolveA2ABinPackKGroups(*in, 0).has_value());
  EXPECT_FALSE(SolveA2ABinPackKGroups(*in, 1).has_value());
}

TEST(KGroupsTest, RejectsOversizedInputs) {
  auto in = A2AInstance::Create({3, 2}, 10);  // 3 > 10/4
  EXPECT_FALSE(SolveA2ABinPackKGroups(*in, 4).has_value());
}

TEST(KGroupsTest, KTwoMatchesPairing) {
  const auto sizes = wl::UniformSizes(60, 1, 20, 5);
  auto in = A2AInstance::Create(sizes, 60);
  const auto pairing = SolveA2ABinPackPairing(*in);
  const auto k2 = SolveA2ABinPackKGroups(*in, 2);
  ASSERT_TRUE(pairing.has_value());
  ASSERT_TRUE(k2.has_value());
  EXPECT_EQ(k2->num_reducers(), pairing->num_reducers());
}

TEST(KGroupsTest, TriplesAliasEqualsKThree) {
  const auto sizes = wl::UniformSizes(60, 1, 10, 6);
  auto in = A2AInstance::Create(sizes, 60);
  const auto triples = SolveA2ABinPackTriples(*in);
  const auto k3 = SolveA2ABinPackKGroups(*in, 3);
  ASSERT_TRUE(triples.has_value());
  ASSERT_TRUE(k3.has_value());
  EXPECT_EQ(k3->num_reducers(), triples->num_reducers());
}

TEST(KGroupsTest, SingleReducerWhenFewBins) {
  auto in = A2AInstance::Create(std::vector<InputSize>(6, 1), 12);
  // part = 3, two bins of 3 -> both fit one reducer for k = 4.
  const auto schema = SolveA2ABinPackKGroups(*in, 4);
  ASSERT_TRUE(schema.has_value());
  EXPECT_EQ(schema->num_reducers(), 1u);
  EXPECT_TRUE(ValidateA2A(*in, *schema).ok);
}

// Both fields 64-bit so the struct has no padding: GoogleTest prints a
// parameter's raw bytes into the test name, and padding bytes are
// indeterminate, which would make the names differ from run to run.
struct KParam {
  uint64_t k;
  uint64_t seed;
};

class KGroupsPropertyTest : public ::testing::TestWithParam<KParam> {};

TEST_P(KGroupsPropertyTest, ValidAndCapacityBounded) {
  const KParam param = GetParam();
  Rng rng(param.seed);
  for (int round = 0; round < 6; ++round) {
    const uint64_t q = 120 + rng.UniformInt(200);
    const std::size_t m = 10 + rng.UniformInt(100);
    const auto sizes = wl::UniformSizes(
        m, 1, std::max<uint64_t>(1, q / param.k), rng.Next());
    auto in = A2AInstance::Create(sizes, q);
    ASSERT_TRUE(in.has_value());
    const auto schema =
        SolveA2ABinPackKGroups(*in, static_cast<int>(param.k));
    ASSERT_TRUE(schema.has_value()) << "k=" << param.k;
    const ValidationResult v = ValidateA2A(*in, *schema);
    ASSERT_TRUE(v.ok) << v.error;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Ks, KGroupsPropertyTest,
    ::testing::Values(KParam{2, 21}, KParam{3, 22}, KParam{4, 23},
                      KParam{5, 24}, KParam{8, 25}),
    [](const ::testing::TestParamInfo<KParam>& info) {
      std::string name = "k";
      name += std::to_string(info.param.k);
      return name;
    });

TEST(KGroupsTest, LargerKReducesReducersOnSmallInputs) {
  // Inputs tiny relative to q: k = 4 should beat k = 2 clearly.
  const auto sizes = wl::UniformSizes(400, 1, 5, 77);
  auto in = A2AInstance::Create(sizes, 200);
  const auto k2 = SolveA2ABinPackKGroups(*in, 2);
  const auto k4 = SolveA2ABinPackKGroups(*in, 4);
  ASSERT_TRUE(k2.has_value());
  ASSERT_TRUE(k4.has_value());
  EXPECT_LT(k4->num_reducers(), k2->num_reducers());
  EXPECT_TRUE(ValidateA2A(*in, *k4).ok);
  // And it approaches the lower bound from above.
  const A2ALowerBounds lb = A2ALowerBounds::Compute(*in);
  EXPECT_GE(k4->num_reducers(), lb.reducers);
}

}  // namespace
}  // namespace msp
