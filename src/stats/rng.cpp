#include "stats/rng.hpp"

#include <numeric>
#include <random>
#include <stdexcept>

namespace hp::stats {

namespace {

constexpr std::size_t kShift = 156;  // the standard's m
constexpr std::uint64_t kMatrixA = 0xb5026f5aa96619e9ULL;
constexpr std::uint64_t kUpperMask = ~std::uint64_t{0} << 31;
constexpr std::uint64_t kLowerMask = ~kUpperMask;

/// One word of the state transition: the upper bits of @p upper joined to
/// the lower bits of @p lower, shifted, and xored with A when odd.
inline std::uint64_t twist_word(std::uint64_t far, std::uint64_t upper,
                                std::uint64_t lower) noexcept {
  const std::uint64_t y = (upper & kUpperMask) | (lower & kLowerMask);
  return far ^ (y >> 1) ^ ((std::uint64_t{0} - (y & 1U)) & kMatrixA);
}

}  // namespace

Mt19937_64::Mt19937_64(std::uint64_t seed) noexcept {
  state_[0] = seed;
  for (std::size_t i = 1; i < kStateSize; ++i) {
    const std::uint64_t prev = state_[i - 1];
    state_[i] = 6364136223846793005ULL * (prev ^ (prev >> 62)) + i;
  }
}

void Mt19937_64::twist() noexcept {
  std::size_t k = 0;
  for (; k < kStateSize - kShift; ++k) {
    state_[k] = twist_word(state_[k + kShift], state_[k], state_[k + 1]);
  }
  for (; k < kStateSize - 1; ++k) {
    state_[k] =
        twist_word(state_[k + kShift - kStateSize], state_[k], state_[k + 1]);
  }
  state_[kStateSize - 1] =
      twist_word(state_[kShift - 1], state_[kStateSize - 1], state_[0]);
  index_ = 0;
}

double Rng::uniform(double lo, double hi) {
  if (lo > hi) throw std::invalid_argument("Rng::uniform: lo > hi");
  if (lo == hi) return lo;
  // std::uniform_real_distribution<double>(lo, hi)'s formula.
  return uniform() * (hi - lo) + lo;
}

std::int64_t Rng::uniform_int(std::int64_t lo, std::int64_t hi) {
  if (lo > hi) throw std::invalid_argument("Rng::uniform_int: lo > hi");
  return std::uniform_int_distribution<std::int64_t>(lo, hi)(engine_);
}

double Rng::gaussian(double mean, double sd) {
  if (sd < 0.0) throw std::invalid_argument("Rng::gaussian: negative sd");
  if (sd == 0.0) return mean;
  return std::normal_distribution<double>(mean, sd)(engine_);
}

bool Rng::bernoulli(double p) {
  if (p < 0.0 || p > 1.0) {
    throw std::invalid_argument("Rng::bernoulli: p outside [0,1]");
  }
  return std::bernoulli_distribution(p)(engine_);
}

std::vector<std::size_t> Rng::permutation(std::size_t n) {
  std::vector<std::size_t> idx(n);
  std::iota(idx.begin(), idx.end(), std::size_t{0});
  for (std::size_t i = n; i > 1; --i) {
    const auto j = static_cast<std::size_t>(
        uniform_int(0, static_cast<std::int64_t>(i) - 1));
    std::swap(idx[i - 1], idx[j]);
  }
  return idx;
}

std::uint64_t stream_seed(std::uint64_t seed, std::uint64_t stream) noexcept {
  return splitmix64(splitmix64(seed) ^
                    splitmix64(stream + 0x9e3779b97f4a7c15ULL));
}

std::uint64_t splitmix64(std::uint64_t x) noexcept {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

}  // namespace hp::stats
