#pragma once
// Clock abstraction. The optimizers and stopping rules read time through
// this interface, so the same code runs against a virtual clock (testbed:
// "5 hours of GPU time" simulated in milliseconds) or the real wall clock
// (actual NN training in the examples).

#include <memory>

namespace hp::core {

/// Monotonic seconds-since-start clock.
class Clock {
 public:
  virtual ~Clock() = default;
  /// Current time in seconds since the clock's epoch.
  [[nodiscard]] virtual double now_s() const = 0;
  /// Advances the clock by @p seconds (>= 0, not NaN). A wall clock
  /// implements this as an actual sleep-free no-op cost accounting or
  /// throws; the virtual clock simply adds.
  virtual void advance(double seconds) = 0;
};

/// Virtual clock: starts at zero, advances only when told to.
class VirtualClock final : public Clock {
 public:
  [[nodiscard]] double now_s() const override { return now_; }
  void advance(double seconds) override;
  void reset() { now_ = 0.0; }

 private:
  double now_ = 0.0;
};

/// Steady wall clock; advance() is a no-op (real time passes on its own).
class WallClock final : public Clock {
 public:
  WallClock();
  [[nodiscard]] double now_s() const override;
  void advance(double seconds) override { (void)seconds; }

 private:
  double start_;
};

}  // namespace hp::core
