#pragma once
// Process-wide metrics registry: named counters, gauges, and fixed-bucket
// histograms with percentile summaries, exportable as JSON. Instruments are
// lock-free atomics so ThreadPool workers can record without contention;
// the registry map itself is mutex-guarded and instrument references stay
// stable for the process lifetime (node-based storage), so hot paths fetch
// an instrument once and keep the pointer.
//
// The registry is disabled by default: enabled() is one relaxed atomic
// load, and instrumented code skips clock reads and histogram updates when
// it returns false — this is what keeps `bench_micro_parallel` within the
// <2% overhead budget at the `off` level. Like the logger, metrics are pure
// read-side: recording never perturbs RNG streams, the virtual clock, or
// evaluation records (DESIGN.md §9).

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/thread_annotations.hpp"
#include "obs/json.hpp"

namespace hp::obs {

/// Monotonic event count.
class Counter {
 public:
  void add(std::uint64_t n = 1) noexcept {
    value_.fetch_add(n, std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t value() const noexcept {
    return value_.load(std::memory_order_relaxed);
  }
  void reset() noexcept { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<std::uint64_t> value_{0};
};

/// Last-write-wins instantaneous value, with atomic add for up/down
/// tracking (queue depths, in-flight counts).
class Gauge {
 public:
  void add(double delta) noexcept {
    double cur = value_.load(std::memory_order_relaxed);
    while (!value_.compare_exchange_weak(cur, cur + delta,
                                         std::memory_order_relaxed)) {
    }
  }
  [[nodiscard]] double value() const noexcept {
    return value_.load(std::memory_order_relaxed);
  }
  void reset() noexcept { value_.store(0.0, std::memory_order_relaxed); }

 private:
  std::atomic<double> value_{0.0};
};

/// Fixed-bucket histogram: bucket i counts observations <= bounds[i], the
/// final implicit bucket counts the overflow. Percentiles are estimated by
/// linear interpolation inside the containing bucket (exact min/max are
/// tracked separately, so p0/p100 queries and the overflow bucket stay
/// meaningful).
class Histogram {
 public:
  /// @param upper_bounds strictly increasing bucket upper bounds;
  ///        must be non-empty. Throws std::invalid_argument otherwise.
  explicit Histogram(std::vector<double> upper_bounds);

  void observe(double v) noexcept;

  [[nodiscard]] std::uint64_t count() const noexcept;
  [[nodiscard]] double sum() const noexcept;
  [[nodiscard]] double min() const noexcept;  ///< 0 when empty
  [[nodiscard]] double max() const noexcept;  ///< 0 when empty
  [[nodiscard]] double mean() const noexcept;

  /// Quantile estimate for q in [0, 1]; 0 when empty.
  [[nodiscard]] double percentile(double q) const;

  [[nodiscard]] const std::vector<double>& bounds() const noexcept {
    return bounds_;
  }
  /// Per-bucket counts, one entry per bound plus the overflow bucket.
  [[nodiscard]] std::vector<std::uint64_t> bucket_counts() const;

  void reset() noexcept;

 private:
  std::vector<double> bounds_;
  std::vector<std::atomic<std::uint64_t>> buckets_;  ///< bounds_.size() + 1
  std::atomic<std::uint64_t> count_{0};
  std::atomic<double> sum_{0.0};
  std::atomic<double> min_{0.0};
  std::atomic<double> max_{0.0};
};

/// count log-spaced bounds: start, start*factor, ... Throws on start <= 0,
/// factor <= 1 or count == 0.
[[nodiscard]] std::vector<double> exponential_buckets(double start,
                                                      double factor,
                                                      std::size_t count);
/// Default bounds for wall-clock durations in seconds: 1 µs .. ~100 s.
[[nodiscard]] std::vector<double> duration_buckets();

/// Named instrument registry.
class MetricsRegistry {
 public:
  [[nodiscard]] bool enabled() const noexcept {
    return enabled_.load(std::memory_order_relaxed);
  }
  void set_enabled(bool on) noexcept {
    enabled_.store(on, std::memory_order_relaxed);
  }

  /// Fetch-or-create by name; returned references stay valid for the
  /// registry's lifetime.
  [[nodiscard]] Counter& counter(const std::string& name);
  [[nodiscard]] Gauge& gauge(const std::string& name);
  /// @param upper_bounds used only on first creation of @p name.
  [[nodiscard]] Histogram& histogram(const std::string& name,
                                     std::vector<double> upper_bounds = {});

  /// Zeroes every instrument (registrations survive).
  void reset();

  /// {"counters": {...}, "gauges": {...}, "histograms": {name:
  ///  {count,sum,min,max,mean,p50,p95,p99,bounds,buckets}}}
  [[nodiscard]] JsonValue to_json() const;
  void write_json(std::ostream& os, int indent = 2) const;
  /// Throws std::runtime_error when the file cannot be opened.
  void write_json_file(const std::string& path, int indent = 2) const;

 private:
  std::atomic<bool> enabled_{false};
  /// Leaf lock (DESIGN.md §14): guards only the name->instrument maps
  /// (fetch-or-create, reset, export); the instruments themselves are
  /// lock-free atomics, so recording never touches this mutex. Never held
  /// while acquiring another hp::Mutex.
  mutable Mutex mutex_;
  std::map<std::string, std::unique_ptr<Counter>> counters_
      HP_GUARDED_BY(mutex_);
  std::map<std::string, std::unique_ptr<Gauge>> gauges_ HP_GUARDED_BY(mutex_);
  std::map<std::string, std::unique_ptr<Histogram>> histograms_
      HP_GUARDED_BY(mutex_);
};

/// The process-wide registry every layer records into.
[[nodiscard]] MetricsRegistry& metrics();

}  // namespace hp::obs
