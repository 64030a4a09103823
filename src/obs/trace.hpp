#pragma once
// Hierarchical span tracer, the one wall-time record of a run (the metrics
// registry in obs/metrics.hpp only counts). Spans form a tree (run → round
// → propose/evaluate/merge → per-sample → per-attempt) with *stable* IDs —
// a span's ID is a pure function of (parent ID, name, caller-chosen key),
// never of thread scheduling — so the span tree of a run is invariant
// across worker counts even when the timings differ. Thread-local
// current-span context plus explicit parent capture in
// parallel::ThreadPool propagate causality across threads.
//
// Recording is per-thread into lock-free ring segments (single writer per
// ring, monotonic release-published cursor; wrapping overwrites the oldest
// events and counts them as dropped). Export is Chrome trace-event JSON
// (load the file in Perfetto or chrome://tracing). A separate compact
// binary flight-recorder ring — every word an atomic, so writers never
// race and a dump is async-signal-safe — keeps the most recent events for
// post-mortem dumps on ContractViolation, consecutive-failure abort, or a
// fatal signal.
//
// Cost contract: disabled tracing is one relaxed atomic load per span (the
// same guard pattern as the logger's and the metrics registry's), and
// tracing is pure read-side like the rest of src/obs — it samples the
// steady clock and writes its own buffers, never RNG streams, the virtual
// clock, or evaluation records (DESIGN.md §9), so golden traces stay
// bit-identical with tracing on.

#include <atomic>
#include <chrono>
#include <cstdint>
#include <initializer_list>
#include <iosfwd>
#include <memory>
#include <string>
#include <type_traits>
#include <vector>

#include "core/thread_annotations.hpp"

namespace hp::obs {

/// Typed span/instant annotation. Keys and string values must be stable
/// literals (or otherwise outlive the tracer's buffers) — the ring stores
/// pointers, not copies, to keep recording allocation-free.
struct TraceArg {
  enum class Kind : std::uint8_t { kNone, kUint, kDouble, kString };

  const char* key = nullptr;
  Kind kind = Kind::kNone;
  union {
    std::uint64_t u;
    double d;
    const char* s;
  };

  constexpr TraceArg() noexcept : u(0) {}
  template <typename T,
            std::enable_if_t<std::is_integral_v<T> || std::is_enum_v<T>, int> =
                0>
  constexpr TraceArg(const char* k, T value) noexcept
      : key(k), kind(Kind::kUint), u(static_cast<std::uint64_t>(value)) {}
  constexpr TraceArg(const char* k, double value) noexcept
      : key(k), kind(Kind::kDouble), d(value) {}
  constexpr TraceArg(const char* k, const char* value) noexcept
      : key(k), kind(Kind::kString), s(value) {}
};

inline constexpr std::size_t kMaxTraceArgs = 4;

/// One recorded event. Complete spans carry a nonzero id and a duration;
/// instants (zero-duration markers: retries, backoffs, injected faults)
/// have id 0 and attach to their parent span.
struct TraceEvent {
  std::uint64_t id = 0;
  std::uint64_t parent = 0;
  const char* name = nullptr;
  double start_s = 0.0;  ///< seconds since the tracer epoch
  double dur_s = 0.0;
  bool instant = false;
  std::uint8_t num_args = 0;
  TraceArg args[kMaxTraceArgs];
};

/// Snapshot entry: the event plus the (registration-ordered) id of the
/// thread-local ring it was recorded into.
struct TraceEventView {
  std::uint32_t tid = 0;
  TraceEvent event;
};

struct TraceConfig {
  /// Per-thread ring capacity in KiB (rounded down to whole events,
  /// minimum 4 events). Wrapping drops the oldest events.
  std::size_t ring_kb = 1024;
  /// Arm the global flight recorder (1024 records) alongside the span
  /// rings.
  bool flight_recorder = false;
};

/// Compact binary flight recorder: a fixed ring of fixed-width records
/// (name, time, type, up to two integer annotations) whose words are all
/// relaxed atomics — multi-producer writes never race, and dump_fd() reads
/// them without locks or allocation, so it is safe from a signal handler.
/// A record caught mid-write may mix two events; the dump is best-effort
/// post-mortem context, not an exact log.
class FlightRecorder {
 public:
  [[nodiscard]] bool enabled() const noexcept {
    return enabled_.load(std::memory_order_relaxed);
  }

  /// Allocates (or reuses) a ring of @p entries records and enables
  /// recording. Not thread-safe against concurrent record() calls.
  void arm(std::size_t entries);
  /// Drops the ring.
  void reset();

  /// Appends one record (no-op when disabled). Takes the first two kUint
  /// args as the record's annotations.
  void record(const char* name, bool instant, double t_s, const TraceArg* args,
              std::size_t num_args) noexcept;

  /// Human-readable decode of the ring to a file descriptor, oldest
  /// surviving record first. Async-signal-safe: integer formatting into
  /// stack buffers + write(); names/keys are static literals.
  void dump_fd(int fd, const char* reason) const noexcept;
  /// dump_fd(STDERR_FILENO) convenience for abort paths in library code.
  void dump_to_stderr(const char* reason) const noexcept;

  /// Installs handlers for fatal signals (SIGSEGV, SIGABRT, SIGBUS,
  /// SIGFPE, SIGILL) that dump the ring to stderr and re-raise.
  void install_fatal_signal_handlers() noexcept;

 private:
  static constexpr std::size_t kWordsPerEntry = 7;

  std::atomic<bool> enabled_{false};
  std::size_t entries_ = 0;
  std::unique_ptr<std::atomic<std::uint64_t>[]> words_;
  std::atomic<std::uint64_t> cursor_{0};
};

/// The process-wide flight recorder (armed via Tracer::start or directly).
[[nodiscard]] FlightRecorder& flight_recorder();

/// The span tracer. start()/stop()/reset() must not run concurrently with
/// recording; recording itself is lock-free and safe from any thread.
class Tracer {
 public:
  [[nodiscard]] bool enabled() const noexcept {
    return enabled_.load(std::memory_order_relaxed);
  }

  /// Resets the buffers, fixes the time epoch, registers the calling
  /// thread's ring, and enables recording.
  void start(const TraceConfig& config);
  /// Disables recording; buffers stay readable for export.
  void stop() noexcept { enabled_.store(false, std::memory_order_relaxed); }
  /// Drops every buffer (start() also does this).
  void reset();

  /// The calling thread's current span id (0 = no open span).
  [[nodiscard]] std::uint64_t current_span() const noexcept;
  /// Sets the calling thread's current span, returning the previous one —
  /// the cross-thread propagation primitive (see ScopedParent).
  std::uint64_t exchange_current(std::uint64_t span) noexcept;

  /// Derives the stable id for a span of @p name under the current span
  /// (keyed by @p key to disambiguate same-named siblings — sample index,
  /// attempt number, round base), makes it current, and returns it.
  /// Records nothing; the matching end_span() writes the complete event.
  std::uint64_t begin_span(const char* name, std::uint64_t key) noexcept;

  /// Records the complete event for a span opened with begin_span() and
  /// restores @p parent as the thread's current span.
  void end_span(std::uint64_t id, std::uint64_t parent, const char* name,
                std::chrono::steady_clock::time_point start, double dur_s,
                const TraceArg* args, std::size_t num_args) noexcept;

  /// Records a zero-duration instant under the current span.
  void instant(const char* name, std::initializer_list<TraceArg> args) noexcept;

  /// Seconds from the tracer epoch to @p t.
  [[nodiscard]] double since_epoch_s(
      std::chrono::steady_clock::time_point t) const noexcept;

  /// Copies every surviving event out of the rings (oldest first within a
  /// ring, rings in registration order). Call only while recording threads
  /// are quiescent.
  [[nodiscard]] std::vector<TraceEventView> snapshot() const;

  /// Events lost to ring wrapping, summed over all rings.
  [[nodiscard]] std::uint64_t dropped_events() const noexcept;

  /// Writes the snapshot as Chrome trace-event JSON (Perfetto-loadable):
  /// complete "X" events for spans, "i" instants, span/parent ids as hex
  /// strings under args.
  void write_chrome_trace(std::ostream& os) const;

 private:
  struct Buffer;

  /// The calling thread's ring, registering one on first use (and after
  /// every start()/reset(), via a generation check).
  Buffer* local_buffer();

  std::atomic<bool> enabled_{false};
  std::atomic<std::uint64_t> generation_{1};
  /// Leaf lock (DESIGN.md §14): guards ring registration and snapshot
  /// iteration only; recording into a registered ring is lock-free. Never
  /// held while acquiring another hp::Mutex.
  mutable Mutex mutex_;
  std::vector<std::unique_ptr<Buffer>> buffers_ HP_GUARDED_BY(mutex_);
  std::size_t capacity_ HP_GUARDED_BY(mutex_) = 4;
  /// Deliberately NOT HP_GUARDED_BY(mutex_): written in start() (under the
  /// lock, incidentally) but read lock-free by since_epoch_s() on every
  /// recording thread. Safe under the class contract above — start()/
  /// stop()/reset() must not run concurrently with recording — which is a
  /// phase-quiescence invariant TSA cannot express; TSan covers it at
  /// runtime (tools/run_tests.sh phase 3).
  std::chrono::steady_clock::time_point epoch_{};
};

/// The process-wide tracer every layer records into.
[[nodiscard]] Tracer& tracer();

/// RAII span-context setter for work executing on behalf of a span opened
/// on another thread (ThreadPool jobs): makes @p span the calling thread's
/// current span and restores the previous one on scope exit. Cheap enough
/// to apply unconditionally (two TLS exchanges).
class ScopedParent {
 public:
  explicit ScopedParent(std::uint64_t span) noexcept
      : saved_(tracer().exchange_current(span)) {}
  ~ScopedParent() { (void)tracer().exchange_current(saved_); }

  ScopedParent(const ScopedParent&) = delete;
  ScopedParent& operator=(const ScopedParent&) = delete;

 private:
  std::uint64_t saved_;
};

/// Per-phase aggregate over a snapshot: total wall time, and self time
/// (total minus the summed durations of direct children, clamped at 0).
struct PhaseStat {
  std::string name;
  std::size_t count = 0;
  double total_s = 0.0;
  double self_s = 0.0;
};

/// Aggregates spans by name, sorted by self time descending (ties by
/// name) — the CLI's end-of-run phase table and trace_summarize.py's
/// cross-check both build on this.
[[nodiscard]] std::vector<PhaseStat> phase_self_times(
    const std::vector<TraceEventView>& events);

}  // namespace hp::obs
