#pragma once
// Deterministic random number generation. Every stochastic component in the
// library takes an explicit seed (or an Rng&) so experiments are exactly
// reproducible run-to-run; nothing reads global entropy.

#include <algorithm>
#include <array>
#include <cstdint>
#include <limits>
#include <vector>

namespace hp::stats {

/// MT19937-64 with the standard's seeding, tempering and state transition,
/// so its output equals std::mt19937_64's word for word. It is defined
/// here, rather than taken from <random>, so that Rng::uniform() inlines the
/// whole draw; the twist runs once per 312 words and has no data-dependent
/// branch. Models UniformRandomBitGenerator, so the std distributions
/// consume it exactly as they consume std::mt19937_64.
class Mt19937_64 {
 public:
  using result_type = std::uint64_t;
  static constexpr std::size_t kStateSize = 312;
  static constexpr std::uint64_t kDefaultSeed = 5489;

  explicit Mt19937_64(std::uint64_t seed = kDefaultSeed) noexcept;

  [[nodiscard]] static constexpr result_type min() noexcept { return 0; }
  [[nodiscard]] static constexpr result_type max() noexcept {
    return std::numeric_limits<result_type>::max();
  }

  /// Next tempered 64-bit word.
  result_type operator()() noexcept {
    if (index_ == kStateSize) twist();
    std::uint64_t z = state_[index_++];
    z ^= (z >> 29) & 0x5555555555555555ULL;
    z ^= (z << 17) & 0x71d67fffeda60000ULL;
    z ^= (z << 37) & 0xfff7eee000000000ULL;
    return z ^ (z >> 43);
  }

 private:
  /// Regenerates all kStateSize words of the state.
  void twist() noexcept;

  std::array<std::uint64_t, kStateSize> state_;
  std::size_t index_ = kStateSize;
};

/// Maps a 64-bit word to [0, 1) as libstdc++'s
/// generate_canonical<double, 53> does for a 64-bit engine: the word
/// rounded once to double, times 2^-64, and a result that rounds up to 1
/// replaced by the largest double below 1. The conversion adds the two
/// 32-bit halves, each exact in a double, so the single rounding happens
/// in one addition and no branch depends on the word's top bit.
[[nodiscard]] inline double unit_interval(std::uint64_t word) noexcept {
  const double hi = static_cast<double>(static_cast<std::uint32_t>(word >> 32));
  const double lo = static_cast<double>(static_cast<std::uint32_t>(word));
  const double u = (hi * 0x1p32 + lo) * 0x1p-64;
  return std::min(u, 0x1.fffffffffffffp-1);
}

/// Seeded pseudo-random generator wrapping an MT19937-64 engine with the
/// handful of draws the library needs. Pass by reference; copying an Rng
/// forks the stream (both copies then produce the same sequence), which is
/// almost never what you want — give each component its own Rng seeded
/// with stream_seed().
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : engine_(seed) {}

  /// Uniform double in [0, 1): the same value
  /// std::uniform_real_distribution<double>(0, 1) draws from
  /// std::mt19937_64 with this seed.
  [[nodiscard]] double uniform() noexcept { return unit_interval(engine_()); }
  /// Uniform double in [lo, hi). Requires lo <= hi.
  [[nodiscard]] double uniform(double lo, double hi);
  /// Uniform integer in [lo, hi] inclusive. Requires lo <= hi.
  [[nodiscard]] std::int64_t uniform_int(std::int64_t lo, std::int64_t hi);
  /// Normal draw with the given mean and standard deviation (sd >= 0).
  [[nodiscard]] double gaussian(double mean, double sd);
  /// Bernoulli draw with success probability p in [0, 1].
  [[nodiscard]] bool bernoulli(double p);

  /// Fisher-Yates shuffle of indices 0..n-1.
  [[nodiscard]] std::vector<std::size_t> permutation(std::size_t n);

 private:
  Mt19937_64 engine_;
};

/// SplitMix64 hash, used to derive stream seeds and to hash configuration
/// ids into deterministic per-configuration noise streams.
[[nodiscard]] std::uint64_t splitmix64(std::uint64_t x) noexcept;

/// Stateless seed split: derives the seed of stream @p stream of a run
/// seeded with @p seed. It consumes no generator state, so stream k is
/// the same value no matter how many other streams were derived before it
/// or on which thread — the property the parallel
/// evaluation engine needs to stay order-independent (stream = the global
/// sample index).
[[nodiscard]] std::uint64_t stream_seed(std::uint64_t seed,
                                        std::uint64_t stream) noexcept;

}  // namespace hp::stats
