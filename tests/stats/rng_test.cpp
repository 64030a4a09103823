#include "stats/rng.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <numeric>
#include <random>
#include <set>
#include <vector>

namespace hp::stats {
namespace {

TEST(Rng, SameSeedSameSequence) {
  Rng a(42);
  Rng b(42);
  for (int i = 0; i < 100; ++i) {
    EXPECT_DOUBLE_EQ(a.uniform(), b.uniform());
  }
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1);
  Rng b(2);
  int same = 0;
  for (int i = 0; i < 50; ++i) {
    if (a.uniform() == b.uniform()) ++same;
  }
  EXPECT_LT(same, 3);
}

TEST(Rng, UniformInUnitInterval) {
  Rng rng(3);
  for (int i = 0; i < 1000; ++i) {
    const double u = rng.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, UniformRangeRespected) {
  Rng rng(4);
  for (int i = 0; i < 1000; ++i) {
    const double u = rng.uniform(-2.0, 5.0);
    EXPECT_GE(u, -2.0);
    EXPECT_LT(u, 5.0);
  }
}

TEST(Rng, UniformDegenerateRangeReturnsLo) {
  Rng rng(5);
  EXPECT_EQ(rng.uniform(3.0, 3.0), 3.0);
}

TEST(Rng, UniformInvertedRangeThrows) {
  Rng rng(5);
  EXPECT_THROW((void)rng.uniform(2.0, 1.0), std::invalid_argument);
}

TEST(Rng, UniformIntInclusiveBounds) {
  Rng rng(6);
  std::set<std::int64_t> seen;
  for (int i = 0; i < 500; ++i) {
    const auto v = rng.uniform_int(1, 3);
    EXPECT_GE(v, 1);
    EXPECT_LE(v, 3);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 3u);  // hits all values
}

TEST(Rng, UniformIntInvertedThrows) {
  Rng rng(6);
  EXPECT_THROW((void)rng.uniform_int(3, 1), std::invalid_argument);
}

TEST(Rng, GaussianMomentsRoughlyCorrect) {
  Rng rng(7);
  double sum = 0.0, sum2 = 0.0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    const double g = rng.gaussian(0.0, 1.0);
    sum += g;
    sum2 += g * g;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.03);
  EXPECT_NEAR(sum2 / n, 1.0, 0.05);
}

TEST(Rng, GaussianScaledMeanSd) {
  Rng rng(8);
  double sum = 0.0;
  const int n = 10000;
  for (int i = 0; i < n; ++i) sum += rng.gaussian(10.0, 2.0);
  EXPECT_NEAR(sum / n, 10.0, 0.1);
}

TEST(Rng, GaussianZeroSdIsDeterministic) {
  Rng rng(9);
  EXPECT_EQ(rng.gaussian(5.0, 0.0), 5.0);
}

TEST(Rng, GaussianNegativeSdThrows) {
  Rng rng(9);
  EXPECT_THROW((void)rng.gaussian(0.0, -1.0), std::invalid_argument);
}

TEST(Rng, BernoulliEdgeCases) {
  Rng rng(10);
  for (int i = 0; i < 20; ++i) {
    EXPECT_FALSE(rng.bernoulli(0.0));
    EXPECT_TRUE(rng.bernoulli(1.0));
  }
  EXPECT_THROW((void)rng.bernoulli(1.5), std::invalid_argument);
}

TEST(Rng, BernoulliFrequency) {
  Rng rng(11);
  int hits = 0;
  const int n = 10000;
  for (int i = 0; i < n; ++i) hits += rng.bernoulli(0.3) ? 1 : 0;
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.02);
}

TEST(Rng, PermutationIsAPermutation) {
  Rng rng(13);
  const auto perm = rng.permutation(20);
  ASSERT_EQ(perm.size(), 20u);
  std::set<std::size_t> unique(perm.begin(), perm.end());
  EXPECT_EQ(unique.size(), 20u);
  EXPECT_EQ(*unique.begin(), 0u);
  EXPECT_EQ(*unique.rbegin(), 19u);
}

TEST(Rng, PermutationOfZeroAndOne) {
  Rng rng(14);
  EXPECT_TRUE(rng.permutation(0).empty());
  const auto one = rng.permutation(1);
  ASSERT_EQ(one.size(), 1u);
  EXPECT_EQ(one[0], 0u);
}

TEST(Rng, PermutationShuffles) {
  Rng rng(15);
  const auto a = rng.permutation(50);
  const auto b = rng.permutation(50);
  EXPECT_NE(a, b);
}

/// The Rng this one replaced, backed by std::mt19937_64 and the std
/// distributions: the reference every draw must match bit for bit.
class StdRng {
 public:
  explicit StdRng(std::uint64_t seed) : engine_(seed) {}
  double uniform() {
    return std::uniform_real_distribution<double>(0.0, 1.0)(engine_);
  }
  double uniform(double lo, double hi) {
    if (lo == hi) return lo;
    return std::uniform_real_distribution<double>(lo, hi)(engine_);
  }
  std::int64_t uniform_int(std::int64_t lo, std::int64_t hi) {
    return std::uniform_int_distribution<std::int64_t>(lo, hi)(engine_);
  }
  double gaussian(double mean, double sd) {
    if (sd == 0.0) return mean;
    return std::normal_distribution<double>(mean, sd)(engine_);
  }
  bool bernoulli(double p) { return std::bernoulli_distribution(p)(engine_); }
  std::vector<std::size_t> permutation(std::size_t n) {
    std::vector<std::size_t> idx(n);
    std::iota(idx.begin(), idx.end(), std::size_t{0});
    for (std::size_t i = n; i > 1; --i) {
      const auto j = static_cast<std::size_t>(
          uniform_int(0, static_cast<std::int64_t>(i) - 1));
      std::swap(idx[i - 1], idx[j]);
    }
    return idx;
  }

 private:
  std::mt19937_64 engine_;
};

TEST(Mt19937_64, MatchesStdEngineWordForWord) {
  for (const std::uint64_t seed :
       {std::uint64_t{0}, std::uint64_t{1}, std::uint64_t{42},
        std::uint64_t{5489}, ~std::uint64_t{0}}) {
    Mt19937_64 ours(seed);
    std::mt19937_64 theirs(seed);
    for (int i = 0; i < 1'000'000; ++i) {
      const std::uint64_t want = theirs();
      ASSERT_EQ(ours(), want) << "seed " << seed << ", word " << i;
    }
  }
}

TEST(Mt19937_64, StandardTenThousandthOutput) {
  // [rand.predef]: the 10000th consecutive invocation of a
  // default-constructed mt19937_64 produces 9981545732273789042.
  Mt19937_64 engine;
  std::uint64_t word = 0;
  for (int i = 0; i < 10000; ++i) word = engine();
  EXPECT_EQ(word, 9981545732273789042ULL);
}

TEST(Rng, UniformMatchesStdUniformRealDistribution) {
  Rng ours(2018);
  std::mt19937_64 engine(2018);
  std::uniform_real_distribution<double> theirs(0.0, 1.0);
  for (int i = 0; i < 1'000'000; ++i) {
    const double want = theirs(engine);
    ASSERT_EQ(ours.uniform(), want) << "draw " << i;
  }
}

/// A generator that returns one fixed word, to feed a chosen word to
/// std::generate_canonical.
struct FixedWord {
  using result_type = std::uint64_t;
  static constexpr result_type min() { return 0; }
  static constexpr result_type max() { return ~std::uint64_t{0}; }
  result_type operator()() const { return word; }
  std::uint64_t word;
};

TEST(Rng, UnitIntervalAtEdgeWords) {
  const std::uint64_t two53 = std::uint64_t{1} << 53;
  const std::vector<std::uint64_t> words = {
      0,         1,         two53 - 1,           two53,
      two53 + 1, two53 + 3, std::uint64_t{1} << 63,
      ~std::uint64_t{0} - 1024, ~std::uint64_t{0} - 1025,
      ~std::uint64_t{0}};
  for (const std::uint64_t word : words) {
    FixedWord engine{word};
    EXPECT_EQ(unit_interval(word),
              (std::generate_canonical<double, 53>(engine)))
        << "word " << word;
  }
  EXPECT_EQ(unit_interval(0), 0.0);
  EXPECT_EQ(unit_interval(1), 0x1p-64);
  EXPECT_EQ(unit_interval(std::uint64_t{1} << 63), 0.5);
  EXPECT_EQ(unit_interval(~std::uint64_t{0}), std::nextafter(1.0, 0.0));
}

TEST(Rng, MixedDrawSequenceMatchesStdReference) {
  Rng ours(77);
  StdRng theirs(77);
  for (int round = 0; round < 2000; ++round) {
    ASSERT_EQ(ours.uniform(), theirs.uniform());
    ASSERT_EQ(ours.uniform(-3.5, 11.25), theirs.uniform(-3.5, 11.25));
    ASSERT_EQ(ours.uniform(2.0, 2.0), theirs.uniform(2.0, 2.0));
    ASSERT_EQ(ours.uniform_int(-5, 1000), theirs.uniform_int(-5, 1000));
    ASSERT_EQ(ours.gaussian(0.0, 1.0), theirs.gaussian(0.0, 1.0));
    ASSERT_EQ(ours.gaussian(3.0, 0.5), theirs.gaussian(3.0, 0.5));
    ASSERT_EQ(ours.bernoulli(0.3), theirs.bernoulli(0.3));
    ASSERT_EQ(ours.permutation(13), theirs.permutation(13));
  }
}

TEST(Splitmix64, DeterministicAndMixing) {
  EXPECT_EQ(splitmix64(0), splitmix64(0));
  EXPECT_NE(splitmix64(0), splitmix64(1));
  // Adjacent inputs map far apart (avalanche sanity check).
  const std::uint64_t d = splitmix64(100) ^ splitmix64(101);
  int bits = 0;
  for (int i = 0; i < 64; ++i) bits += (d >> i) & 1u;
  EXPECT_GT(bits, 10);
}

}  // namespace
}  // namespace hp::stats
