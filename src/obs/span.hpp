#pragma once
// RAII span timing keyed by run phase. A ScopedTimer samples the steady
// clock only while the tracer is recording, so a dark span costs one
// relaxed atomic load. Spans are the one wall-time record: the CLI's phase
// table, `trace_summarize.py` and perfbench's layers all read them, and
// the metrics registry counts work but never times it.

#include <chrono>
#include <cstdint>

#include "obs/trace.hpp"

namespace hp::obs {

/// Times a scope; on destruction records a trace span of its wall time
/// under the thread's current span. Wall time is observability output
/// only — it never feeds back into the run (the virtual clock is charged
/// from modelled costs, not from spans).
class ScopedTimer {
 public:
  /// @param phase stable dotted phase name, e.g. "optimize.merge"; must be
  ///   a literal (not copied; the tracer ring stores the pointer).
  /// @param trace_key deterministic discriminator for same-named sibling
  ///   spans (sample index, attempt number, round base) so span IDs are
  ///   stable across thread counts.
  explicit ScopedTimer(const char* phase, std::uint64_t trace_key = 0) noexcept
      : phase_(phase), armed_(tracer().enabled()) {
    if (!armed_) return;
    parent_ = tracer().current_span();
    span_id_ = tracer().begin_span(phase, trace_key);
    start_ = std::chrono::steady_clock::now();
  }

  ScopedTimer(const ScopedTimer&) = delete;
  ScopedTimer& operator=(const ScopedTimer&) = delete;

  ~ScopedTimer() { stop(); }

  /// Attaches a typed annotation to the span (no-op unless tracing armed
  /// this timer).
  void trace_arg(TraceArg arg) noexcept {
    if (!armed_ || num_args_ >= kMaxTraceArgs) return;
    args_[num_args_++] = arg;
  }

  /// Records and disarms early (idempotent).
  void stop() noexcept {
    if (!armed_) return;
    armed_ = false;
    const double elapsed =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      start_)
            .count();
    tracer().end_span(span_id_, parent_, phase_, start_, elapsed, args_,
                      num_args_);
  }

 private:
  const char* phase_;
  bool armed_;
  std::uint64_t span_id_ = 0;
  std::uint64_t parent_ = 0;
  std::uint8_t num_args_ = 0;
  TraceArg args_[kMaxTraceArgs];
  std::chrono::steady_clock::time_point start_;
};

}  // namespace hp::obs
