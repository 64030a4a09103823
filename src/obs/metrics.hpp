#pragma once
// Process-wide metrics registry: named event counters, exportable as JSON.
// Counters are lock-free atomics so ThreadPool workers can count without
// contention; the registry map itself is mutex-guarded and counter
// references stay stable for the process lifetime (node-based storage), so
// hot paths fetch a counter once and keep the reference.
//
// The registry counts work, never time: wall time is the span tracer's
// (obs/trace.hpp), so one pair of clock samples per span is the only
// timing source. The registry is disabled by default: enabled() is one
// relaxed atomic load, and instrumented code skips counting when it
// returns false. Like the logger, metrics are pure read-side: counting
// never perturbs RNG streams, the virtual clock, or evaluation records
// (DESIGN.md §9).

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <string>

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

/// Named counter registry.
class MetricsRegistry {
 public:
  [[nodiscard]] bool enabled() const noexcept {
    return enabled_.load(std::memory_order_relaxed);
  }
  void set_enabled(bool on) noexcept {
    enabled_.store(on, std::memory_order_relaxed);
  }

  /// Fetch-or-create by name; the returned reference stays valid for the
  /// registry's lifetime.
  [[nodiscard]] Counter& counter(const std::string& name);

  /// Zeroes every counter (registrations survive).
  void reset();

  /// {"counters": {name: value, ...}}
  [[nodiscard]] JsonValue to_json() const;
  void write_json(std::ostream& os, int indent = 2) const;
  /// Throws std::runtime_error when the file cannot be opened.
  void write_json_file(const std::string& path, int indent = 2) const;

 private:
  std::atomic<bool> enabled_{false};
  /// Leaf lock (DESIGN.md §14): guards only the name->counter map
  /// (fetch-or-create, reset, export); the counters themselves are
  /// lock-free atomics, so counting never touches this mutex. Never held
  /// while acquiring another hp::Mutex.
  mutable Mutex mutex_;
  std::map<std::string, std::unique_ptr<Counter>> counters_
      HP_GUARDED_BY(mutex_);
};

/// The process-wide registry every layer counts into.
[[nodiscard]] MetricsRegistry& metrics();

}  // namespace hp::obs
