#pragma once
// A fixed amount of CPU-bound work: a splitmix64 chain the compiler cannot
// fold away. bench_micro_parallel spreads it over a thread pool;
// bench_micro_components times it alone as the normalization anchor of the
// cross-machine perf gate, since no change to the library speeds it up.

#include <cstddef>
#include <cstdint>

#include "stats/rng.hpp"

namespace hp::bench {

inline std::uint64_t spin(std::uint64_t seed, std::size_t iters) {
  std::uint64_t x = seed;
  for (std::size_t i = 0; i < iters; ++i) x = stats::splitmix64(x);
  return x;
}

}  // namespace hp::bench
