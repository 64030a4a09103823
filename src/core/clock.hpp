#pragma once
// The run's virtual clock. The optimizers and stopping rules read time from
// it, and every objective charges it: the testbed its simulated GPU time
// ("5 hours of GPU time" simulated in milliseconds), the examples' real NN
// training its measured elapsed seconds.

namespace hp::core {

/// Monotonic seconds-since-start clock: starts at zero, advances only when
/// told to.
class Clock {
 public:
  /// Current time in seconds since the clock's epoch.
  [[nodiscard]] double now_s() const noexcept { return now_; }
  /// Advances the clock by @p seconds (>= 0, not NaN; throws
  /// std::invalid_argument otherwise).
  void advance(double seconds);
  /// Rewinds the clock to its epoch.
  void reset() noexcept { now_ = 0.0; }

 private:
  double now_ = 0.0;
};

}  // namespace hp::core
