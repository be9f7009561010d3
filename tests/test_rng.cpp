#include "netbase/rng.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <unordered_set>
#include <vector>

#include "blocklist/catalogue.h"

namespace reuse::net {
namespace {

TEST(Rng, DeterministicForSameSeed) {
  Rng a(123);
  Rng b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a(), b());
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1);
  Rng b(2);
  int equal = 0;
  for (int i = 0; i < 100; ++i) equal += a() == b();
  EXPECT_LT(equal, 3);
}

TEST(Rng, ForkedStreamsAreIndependentAndDeterministic) {
  Rng parent1(7);
  Rng parent2(7);
  Rng child1 = parent1.fork(42);
  Rng child2 = parent2.fork(42);
  for (int i = 0; i < 50; ++i) EXPECT_EQ(child1(), child2());
  Rng other = parent1.fork(43);
  int equal = 0;
  for (int i = 0; i < 50; ++i) equal += child1() == other();
  EXPECT_LT(equal, 3);
}

TEST(Rng, UniformRespectsBound) {
  Rng rng(9);
  for (int i = 0; i < 10000; ++i) {
    EXPECT_LT(rng.uniform(17), 17u);
  }
  // All residues reachable.
  std::unordered_set<std::uint64_t> seen;
  for (int i = 0; i < 2000; ++i) seen.insert(rng.uniform(7));
  EXPECT_EQ(seen.size(), 7u);
}

TEST(Rng, UniformIntCoversInclusiveRange) {
  Rng rng(10);
  bool saw_low = false;
  bool saw_high = false;
  for (int i = 0; i < 5000; ++i) {
    const std::int64_t draw = rng.uniform_int(-3, 3);
    EXPECT_GE(draw, -3);
    EXPECT_LE(draw, 3);
    saw_low |= draw == -3;
    saw_high |= draw == 3;
  }
  EXPECT_TRUE(saw_low);
  EXPECT_TRUE(saw_high);
}

TEST(Rng, UniformRealInUnitInterval) {
  Rng rng(11);
  double sum = 0.0;
  for (int i = 0; i < 20000; ++i) {
    const double draw = rng.uniform_real();
    EXPECT_GE(draw, 0.0);
    EXPECT_LT(draw, 1.0);
    sum += draw;
  }
  EXPECT_NEAR(sum / 20000.0, 0.5, 0.01);
}

TEST(Rng, ExponentialHasRequestedMean) {
  Rng rng(12);
  double sum = 0.0;
  constexpr int kN = 50000;
  for (int i = 0; i < kN; ++i) sum += rng.exponential(5.0);
  EXPECT_NEAR(sum / kN, 5.0, 0.15);
}

TEST(Rng, NormalMatchesMoments) {
  Rng rng(13);
  double sum = 0.0;
  double sum_sq = 0.0;
  constexpr int kN = 50000;
  for (int i = 0; i < kN; ++i) {
    const double draw = rng.normal(10.0, 2.0);
    sum += draw;
    sum_sq += draw * draw;
  }
  const double mean = sum / kN;
  const double variance = sum_sq / kN - mean * mean;
  EXPECT_NEAR(mean, 10.0, 0.1);
  EXPECT_NEAR(std::sqrt(variance), 2.0, 0.1);
}

TEST(Rng, ParetoRespectsMinimum) {
  Rng rng(14);
  for (int i = 0; i < 10000; ++i) {
    EXPECT_GE(rng.pareto(2.0, 1.5), 2.0);
  }
}

TEST(Rng, GeometricMeanMatches) {
  Rng rng(15);
  double sum = 0.0;
  constexpr int kN = 50000;
  const double p = 0.4;
  for (int i = 0; i < kN; ++i) {
    sum += static_cast<double>(rng.geometric(p));
  }
  EXPECT_NEAR(sum / kN, (1 - p) / p, 0.05);
  EXPECT_EQ(Rng(1).geometric(1.0), 0u);
}

TEST(Rng, PoissonMeanMatchesSmallAndLarge) {
  Rng rng(16);
  for (const double mean : {0.5, 5.0, 80.0}) {
    double sum = 0.0;
    constexpr int kN = 20000;
    for (int i = 0; i < kN; ++i) sum += static_cast<double>(rng.poisson(mean));
    EXPECT_NEAR(sum / kN, mean, mean * 0.05 + 0.05) << "mean " << mean;
  }
  EXPECT_EQ(rng.poisson(0.0), 0u);
}

TEST(Rng, ZipfStaysInRangeAndFavorsLowRanks) {
  Rng rng(17);
  std::uint64_t ones = 0;
  std::uint64_t top_half = 0;
  constexpr int kN = 20000;
  for (int i = 0; i < kN; ++i) {
    const std::uint64_t draw = rng.zipf(100, 1.2);
    ASSERT_GE(draw, 1u);
    ASSERT_LE(draw, 100u);
    ones += draw == 1;
    top_half += draw > 50;
  }
  EXPECT_GT(ones, top_half);  // rank 1 alone beats the entire top half
  EXPECT_EQ(rng.zipf(1, 1.0), 1u);
}

TEST(Rng, WeightedIndexFollowsWeights) {
  Rng rng(18);
  const double weights[] = {1.0, 0.0, 3.0};
  int counts[3] = {0, 0, 0};
  constexpr int kN = 40000;
  for (int i = 0; i < kN; ++i) ++counts[rng.weighted_index(weights)];
  EXPECT_EQ(counts[1], 0);
  EXPECT_NEAR(static_cast<double>(counts[0]) / kN, 0.25, 0.02);
  EXPECT_NEAR(static_cast<double>(counts[2]) / kN, 0.75, 0.02);
  EXPECT_THROW((void)rng.weighted_index(std::vector<double>{0.0, 0.0}),
               std::invalid_argument);
}

TEST(Rng, SampleIndicesAreDistinctAndInRange) {
  Rng rng(19);
  for (const std::size_t n : {std::size_t{10}, std::size_t{100}, std::size_t{1000}}) {
    for (const std::size_t k : {std::size_t{0}, std::size_t{1}, n / 2, n}) {
      const auto sample = rng.sample_indices(n, k);
      EXPECT_EQ(sample.size(), k);
      std::unordered_set<std::size_t> seen(sample.begin(), sample.end());
      EXPECT_EQ(seen.size(), k);
      for (const std::size_t index : sample) EXPECT_LT(index, n);
    }
  }
  EXPECT_THROW((void)rng.sample_indices(3, 4), std::invalid_argument);
}

TEST(Rng, ShuffleIsAPermutation) {
  Rng rng(20);
  std::vector<int> items{1, 2, 3, 4, 5, 6, 7, 8};
  auto shuffled = items;
  rng.shuffle(shuffled);
  auto sorted = shuffled;
  std::sort(sorted.begin(), sorted.end());
  EXPECT_EQ(sorted, items);
}

TEST(Rng, BernoulliThresholdDrawIsBitEqualToBernoulli) {
  std::vector<double> probabilities = {
      0.0, 0x1.0p-60, 0x1.0p-53, 0.05, 0.5, 1.0 - 0x1.0p-53, 1.0, 1.5, -0.1,
      std::numeric_limits<double>::quiet_NaN()};
  const std::size_t edge_cases = probabilities.size();
  for (std::uint64_t seed = 0; seed < 16; ++seed) {
    for (const auto& info : blocklist::build_catalogue(seed ^ 0xca7aULL)) {
      probabilities.push_back(info.pickup_rate);
    }
  }
  for (std::size_t k = 0; k < probabilities.size(); ++k) {
    const double p = probabilities[k];
    const std::uint64_t threshold = Rng::bernoulli_threshold(p);
    // The compare itself, at the draws around the threshold and at the ends
    // of the 53-bit range.
    for (const std::uint64_t u :
         {std::uint64_t{0}, std::uint64_t{1}, threshold - 1, threshold,
          threshold + 1, (std::uint64_t{1} << 53) - 1}) {
      if (u >= std::uint64_t{1} << 53) continue;
      EXPECT_EQ(static_cast<double>(u) * 0x1.0p-53 < p, u < threshold)
          << "p=" << p << " u=" << u;
    }
    // Twin generators: the same answers, and the same stream afterwards.
    Rng a(1000 + k);
    Rng b(1000 + k);
    const int draws = k < edge_cases ? 100000 : 2000;
    for (int i = 0; i < draws; ++i) {
      ASSERT_EQ(a.bernoulli(p), b.bernoulli_below(threshold)) << "p=" << p;
    }
    EXPECT_EQ(a.state(), b.state());
  }
}

}  // namespace
}  // namespace reuse::net
