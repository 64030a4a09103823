#pragma once
// Clock abstraction. The optimizers and stopping rules read time through
// this interface. Every objective keeps a virtual clock and charges it: the
// testbed its simulated GPU time ("5 hours of GPU time" simulated in
// milliseconds), the examples' real NN training its measured elapsed
// seconds.

namespace hp::core {

/// Monotonic seconds-since-start clock.
class Clock {
 public:
  virtual ~Clock() = default;
  /// Current time in seconds since the clock's epoch.
  [[nodiscard]] virtual double now_s() const = 0;
  /// Advances the clock by @p seconds (>= 0, not NaN).
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

}  // namespace hp::core
