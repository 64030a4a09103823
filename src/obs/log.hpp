#pragma once
// Leveled structured logger for the optimizer stack. Design constraints:
//  - dependency-free, thread-safe, callable from ThreadPool workers;
//  - near-zero cost when disabled: enabled(level) is one relaxed atomic
//    load + compare, and call sites build their field lists only behind
//    that check;
//  - pure read-side: the logger observes the run (it never touches RNGs,
//    the virtual clock, or evaluation records), so enabling it cannot
//    change a trace bit — the determinism contract of DESIGN.md §7/§9.
//
// Events are structured: a dotted name ("optimizer.sample", emitted by
// the core::Study's per-sample books) plus typed key-value fields,
// fanned out to pluggable sinks (stderr pretty-printer, JSONL file, the
// CLI progress renderer). Each sink has its own minimum
// level; the logger-wide threshold is the most verbose sink's level
// combined with an explicit global floor (set_level).

#include <atomic>
#include <chrono>
#include <memory>
#include <optional>
#include <ostream>
#include <string>
#include <vector>

#include "core/thread_annotations.hpp"
#include "obs/json.hpp"

namespace hp::obs {

enum class LogLevel : int {
  kTrace = 0,
  kDebug = 1,
  kInfo = 2,
  kWarn = 3,
  kError = 4,
  kOff = 5,
};

[[nodiscard]] const char* to_string(LogLevel level) noexcept;
/// "trace" | "debug" | "info" | "warn" | "error" | "off" (case-sensitive).
[[nodiscard]] std::optional<LogLevel> log_level_from_string(
    const std::string& name);

/// One typed key-value pair of an event.
struct LogField {
  std::string key;
  JsonValue value;
};

/// One structured event.
struct LogEvent {
  LogLevel level = LogLevel::kInfo;
  std::string name;               ///< dotted event name, e.g. "bo.refit"
  std::vector<LogField> fields;
  double wall_s = 0.0;            ///< wall seconds since logger creation
};

/// Output backend. write() may be called concurrently from any thread;
/// implementations serialize internally.
class LogSink {
 public:
  virtual ~LogSink() = default;
  virtual void write(const LogEvent& event) = 0;
  virtual void flush() {}
};

/// Human-oriented pretty printer: "[ 12.345s info ] name  key=value ...".
/// Skips "optimizer.progress" events by default — those drive the CLI's
/// live progress line, not the log.
class StderrSink final : public LogSink {
 public:
  explicit StderrSink(std::ostream* os = nullptr,
                      bool show_progress_events = false);
  void write(const LogEvent& event) override;
  void flush() override;

 private:
  /// Serializes output only (rank 2, DESIGN.md §14: sink-internal locks
  /// nest inside Logger::dispatch_mutex_, never the other way around).
  Mutex mutex_;
  std::ostream* os_;  ///< nullptr = std::cerr (resolved at write time)
  bool show_progress_events_;
};

/// Machine-oriented sink: one JSON object per line,
/// {"t":..,"level":..,"event":..,<fields>}. Append-safe across events but
/// truncates the file on open.
class JsonlSink final : public LogSink {
 public:
  /// Throws std::runtime_error when the file cannot be opened.
  explicit JsonlSink(const std::string& path);
  ~JsonlSink() override;
  void write(const LogEvent& event) override;
  void flush() override;

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

/// Thread-safe leveled logger with pluggable sinks.
class Logger {
 public:
  Logger();

  /// True when an event at @p level would reach at least one sink. The
  /// hot-path guard: call sites wrap field construction in this check.
  [[nodiscard]] bool enabled(LogLevel level) const noexcept {
    return static_cast<int>(level) >= threshold_.load(std::memory_order_relaxed);
  }

  /// Global floor: events below it never dispatch, regardless of sinks.
  void set_level(LogLevel level);
  [[nodiscard]] LogLevel level() const noexcept;

  /// Registers a sink receiving events at >= @p min_level. Safe to call
  /// from a sink's own write() (registration takes only mutex_, which
  /// dispatch never holds across sink calls); the new sink starts
  /// receiving events with the *next* dispatch.
  void add_sink(std::shared_ptr<LogSink> sink,
                LogLevel min_level = LogLevel::kTrace);
  /// Deregisters @p sink. Does not wait for an in-flight dispatch — the
  /// snapshot taken by log()/flush() keeps the sink alive (shared_ptr)
  /// until that dispatch completes.
  void remove_sink(const std::shared_ptr<LogSink>& sink);
  void clear_sinks();
  void flush() HP_EXCLUDES(dispatch_mutex_, mutex_);

  /// Dispatches an event (re-checks enabled(); cheap to call uselessly).
  /// Dispatch is totally ordered across sinks (serialized on
  /// dispatch_mutex_); a sink's write() must not log back through the
  /// logger — that self-deadlocks on the dispatch lock.
  void log(LogLevel level, std::string name, std::vector<LogField> fields)
      HP_EXCLUDES(dispatch_mutex_, mutex_);

  void trace(std::string name, std::vector<LogField> fields = {}) {
    log(LogLevel::kTrace, std::move(name), std::move(fields));
  }
  void debug(std::string name, std::vector<LogField> fields = {}) {
    log(LogLevel::kDebug, std::move(name), std::move(fields));
  }
  void info(std::string name, std::vector<LogField> fields = {}) {
    log(LogLevel::kInfo, std::move(name), std::move(fields));
  }
  void warn(std::string name, std::vector<LogField> fields = {}) {
    log(LogLevel::kWarn, std::move(name), std::move(fields));
  }
  void error(std::string name, std::vector<LogField> fields = {}) {
    log(LogLevel::kError, std::move(name), std::move(fields));
  }

 private:
  void recompute_threshold_locked() HP_REQUIRES(mutex_);

  /// Effective dispatch threshold: max(level floor, most verbose sink);
  /// kOff when no sinks are attached.
  std::atomic<int> threshold_;
  std::atomic<int> level_floor_;
  /// Registration lock (rank 1, DESIGN.md §14): guards the sink list.
  /// Held only for snapshots and list edits — never across a sink call.
  mutable Mutex mutex_;
  /// Dispatch lock (rank 0, the root of the lock hierarchy): serializes
  /// event/flush fan-out so sinks see a total event order while the
  /// registration lock stays free — a sink callback may re-enter
  /// add_sink/remove_sink without deadlocking. The HP_ACQUIRED_BEFORE edge
  /// makes any future mutex_ → dispatch_mutex_ inversion a compile error.
  mutable Mutex dispatch_mutex_ HP_ACQUIRED_BEFORE(mutex_);
  std::vector<std::pair<std::shared_ptr<LogSink>, LogLevel>> sinks_
      HP_GUARDED_BY(mutex_);
  std::chrono::steady_clock::time_point start_;
};

/// The process-wide logger every layer reports to.
[[nodiscard]] Logger& logger();

}  // namespace hp::obs
