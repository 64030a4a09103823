#pragma once
// RAII span timing keyed by run phase. A ScopedTimer samples the steady
// clock only when some backend wants the result (metrics enabled with a
// target histogram, or the tracer recording), so an idle observability
// layer costs two relaxed atomic loads per span. When both backends are
// armed they share the same two clock samples — one timing source, no
// double reads — which keeps the histogram output bitwise-identical
// whether or not tracing is on.

#include <chrono>
#include <cstdint>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace hp::obs {

/// Times a scope; on destruction records the elapsed wall time into an
/// optional histogram and/or records a trace span under the thread's
/// current span. Wall time is observability output only — it never feeds
/// back into the run (the virtual clock is charged from modelled costs,
/// not from spans).
class ScopedTimer {
 public:
  /// @param phase stable dotted phase name, e.g. "optimize.merge"; must be
  ///   a literal (not copied; the tracer ring stores the pointer).
  /// @param hist target histogram (may be nullptr for trace-only spans).
  /// @param trace_key deterministic discriminator for same-named sibling
  ///   spans (sample index, attempt number, round base) so span IDs are
  ///   stable across thread counts.
  explicit ScopedTimer(const char* phase, Histogram* hist = nullptr,
                       std::uint64_t trace_key = 0) noexcept
      : phase_(phase),
        hist_(metrics().enabled() ? hist : nullptr),
        trace_on_(tracer().enabled()) {
    if (trace_on_) {
      parent_ = tracer().current_span();
      span_id_ = tracer().begin_span(phase, trace_key);
    }
    if (armed()) start_ = std::chrono::steady_clock::now();
  }

  ScopedTimer(const ScopedTimer&) = delete;
  ScopedTimer& operator=(const ScopedTimer&) = delete;

  ~ScopedTimer() { stop(); }

  /// Attaches a typed annotation to the trace span (no-op unless tracing
  /// armed this timer; histogram output never sees args).
  void trace_arg(TraceArg arg) noexcept {
    if (!trace_on_ || num_args_ >= kMaxTraceArgs) return;
    args_[num_args_++] = arg;
  }

  /// Records and disarms early (idempotent).
  void stop() {
    if (!armed()) return;
    const double elapsed =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      start_)
            .count();
    if (trace_on_) {
      tracer().end_span(span_id_, parent_, phase_, start_, elapsed, args_,
                        num_args_);
      trace_on_ = false;
    }
    if (hist_ != nullptr) hist_->observe(elapsed);
    hist_ = nullptr;
  }

 private:
  [[nodiscard]] bool armed() const noexcept {
    return hist_ != nullptr || trace_on_;
  }

  const char* phase_;
  Histogram* hist_;
  bool trace_on_;
  std::uint64_t span_id_ = 0;
  std::uint64_t parent_ = 0;
  std::uint8_t num_args_ = 0;
  TraceArg args_[kMaxTraceArgs];
  std::chrono::steady_clock::time_point start_;
};

}  // namespace hp::obs
