#include "core/clock.hpp"

#include <chrono>
#include <stdexcept>

namespace hp::core {

void VirtualClock::advance(double seconds) {
  if (!(seconds >= 0.0)) {  // also catches NaN
    throw std::invalid_argument(
        "VirtualClock::advance: negative or NaN duration");
  }
  now_ += seconds;
}

namespace {
double steady_seconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}
}  // namespace

WallClock::WallClock() : start_(steady_seconds()) {}

double WallClock::now_s() const { return steady_seconds() - start_; }

}  // namespace hp::core
