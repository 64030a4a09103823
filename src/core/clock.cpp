#include "core/clock.hpp"

#include <stdexcept>

namespace hp::core {

void Clock::advance(double seconds) {
  if (!(seconds >= 0.0)) {  // also catches NaN
    throw std::invalid_argument("Clock::advance: negative or NaN duration");
  }
  now_ += seconds;
}

}  // namespace hp::core
