// Unit tests for the span tracer and flight recorder (src/obs/trace.hpp):
// stable span-id derivation, current-span context restoration, ring
// wrap/truncation accounting, Chrome-trace JSON escaping (same hostile
// strings as the JSONL sink fixtures in log_test.cpp), flight-recorder
// dumps on an injected ContractViolation, and phase_self_times.

#include "obs/trace.hpp"

#include <gtest/gtest.h>
#include <unistd.h>

#include <chrono>
#include <sstream>
#include <string>
#include <vector>

#include "core/contracts.hpp"
#include "obs/span.hpp"

namespace hp::obs {
namespace {

/// Starts the process-wide tracer for one test and tears it back down so
/// later tests (and the rest of the binary) see it disabled and empty.
class TracerOn {
 public:
  explicit TracerOn(TraceConfig config = {}) { tracer().start(config); }
  ~TracerOn() {
    tracer().stop();
    tracer().reset();
    flight_recorder().reset();
  }

  TracerOn(const TracerOn&) = delete;
  TracerOn& operator=(const TracerOn&) = delete;
};

/// Opens and immediately closes a span, returning its id.
std::uint64_t record_span(const char* name, std::uint64_t key) {
  const std::uint64_t parent = tracer().current_span();
  const std::uint64_t id = tracer().begin_span(name, key);
  tracer().end_span(id, parent, name, std::chrono::steady_clock::now(),
                    /*dur_s=*/0.0, nullptr, 0);
  return id;
}

TEST(TraceIdTest, IdsAreStableAcrossRestartsAndDistinctPerPosition) {
  std::uint64_t first_a = 0;
  std::uint64_t first_b = 0;
  std::uint64_t first_child = 0;
  {
    TracerOn on;
    first_a = record_span("phase.a", 1);
    first_b = record_span("phase.a", 2);
    const std::uint64_t outer = tracer().begin_span("phase.outer", 0);
    first_child = record_span("phase.a", 1);
    tracer().end_span(outer, 0, "phase.outer",
                      std::chrono::steady_clock::now(), 0.0, nullptr, 0);
  }
  // Same (parent, name, key) => same id; any coordinate change => new id.
  EXPECT_NE(first_a, 0u);
  EXPECT_NE(first_a, first_b);
  EXPECT_NE(first_a, first_child);
  {
    TracerOn on;
    EXPECT_EQ(record_span("phase.a", 1), first_a);
    EXPECT_EQ(record_span("phase.a", 2), first_b);
    EXPECT_NE(record_span("phase.b", 1), first_a);
  }
}

TEST(TraceIdTest, BeginSpanMakesSpanCurrentAndEndSpanRestoresParent) {
  TracerOn on;
  EXPECT_EQ(tracer().current_span(), 0u);
  const std::uint64_t outer = tracer().begin_span("phase.outer", 0);
  EXPECT_EQ(tracer().current_span(), outer);
  const std::uint64_t inner = tracer().begin_span("phase.inner", 0);
  EXPECT_EQ(tracer().current_span(), inner);
  tracer().end_span(inner, outer, "phase.inner",
                    std::chrono::steady_clock::now(), 0.0, nullptr, 0);
  EXPECT_EQ(tracer().current_span(), outer);
  tracer().end_span(outer, 0, "phase.outer", std::chrono::steady_clock::now(),
                    0.0, nullptr, 0);
  EXPECT_EQ(tracer().current_span(), 0u);
}

TEST(TraceIdTest, ScopedParentExchangesAndRestoresContext) {
  TracerOn on;
  const std::uint64_t outer = tracer().begin_span("phase.outer", 0);
  {
    const ScopedParent adopted(1234);
    EXPECT_EQ(tracer().current_span(), 1234u);
  }
  EXPECT_EQ(tracer().current_span(), outer);
  tracer().end_span(outer, 0, "phase.outer", std::chrono::steady_clock::now(),
                    0.0, nullptr, 0);
}

TEST(ScopedTimerTest, NestedTimersRecordParentLinkedSpans) {
  TracerOn on;
  {
    ScopedTimer outer("test.outer");
    {
      ScopedTimer inner("test.inner", 7);
      inner.trace_arg({"sample", 7});
    }
  }
  const std::vector<TraceEventView> events = tracer().snapshot();
  ASSERT_EQ(events.size(), 2u);
  const TraceEvent* outer = nullptr;
  const TraceEvent* inner = nullptr;
  for (const TraceEventView& v : events) {
    if (std::string(v.event.name) == "test.outer") outer = &v.event;
    if (std::string(v.event.name) == "test.inner") inner = &v.event;
  }
  ASSERT_NE(outer, nullptr);
  ASSERT_NE(inner, nullptr);
  EXPECT_EQ(outer->parent, 0u);
  EXPECT_EQ(inner->parent, outer->id);
  ASSERT_EQ(inner->num_args, 1u);
  EXPECT_STREQ(inner->args[0].key, "sample");
  EXPECT_EQ(inner->args[0].u, 7u);
}

TEST(ScopedTimerTest, DisabledTracerRecordsNothing) {
  tracer().stop();
  tracer().reset();
  {
    ScopedTimer timer("test.disabled");
    timer.trace_arg({"sample", 1});
  }
  EXPECT_EQ(tracer().current_span(), 0u);
  EXPECT_TRUE(tracer().snapshot().empty());
  EXPECT_EQ(tracer().dropped_events(), 0u);
}

TEST(TraceRingTest, WrappingKeepsNewestEventsAndCountsDropped) {
  TraceConfig config;
  config.ring_kb = 0;  // rounds down to the 4-event minimum capacity
  TracerOn on(config);
  for (std::uint64_t i = 0; i < 10; ++i) record_span("test.wrap", i);
  const std::vector<TraceEventView> events = tracer().snapshot();
  ASSERT_EQ(events.size(), 4u);
  EXPECT_EQ(tracer().dropped_events(), 6u);
  // Oldest-first within the ring: the four newest keys survive, in order.
  for (std::size_t i = 0; i < events.size(); ++i) {
    EXPECT_EQ(events[i].event.id, record_span("test.wrap", 6 + i));
  }
}

TEST(TraceExportTest, ChromeTraceEscapesHostileStringsLikeTheJsonlSink) {
  TracerOn on;
  // Same fixture family as JsonEscapeTest in log_test.cpp. Names and arg
  // strings must have static storage (the ring keeps pointers).
  static constexpr char kHostile[] = "a\"b\\c\nd\te\rf\bg\fh\x01z";
  {
    ScopedTimer timer("test.escape");
    timer.trace_arg({"detail", static_cast<const char*>(kHostile)});
    timer.trace_arg({"ratio", 0.5});
  }
  tracer().instant("test.instant", {{"attempt", 3}});
  std::ostringstream os;
  tracer().write_chrome_trace(os);
  const std::string json = os.str();
  EXPECT_NE(json.find("\"displayTimeUnit\":\"ms\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"i\""), std::string::npos);
  EXPECT_NE(
      json.find("a\\\"b\\\\c\\nd\\te\\rf\\bg\\fh\\u0001z"),
      std::string::npos);
  // Raw control characters must never reach the output.
  EXPECT_EQ(json.find('\x01'), std::string::npos);
  // Span ids export as 16-hex-digit strings, never as JSON numbers.
  EXPECT_NE(json.find("\"id\":\"0x"), std::string::npos);
}

/// What FlightRecorder::dump_fd writes for @p reason, read back through a
/// pipe.
std::string dump_text(const FlightRecorder& flight, const char* reason) {
  int fds[2];
  if (::pipe(fds) != 0) {
    ADD_FAILURE() << "pipe failed";
    return {};
  }
  flight.dump_fd(fds[1], reason);
  ::close(fds[1]);
  std::string text;
  char buffer[4096];
  ssize_t n = 0;
  while ((n = ::read(fds[0], buffer, sizeof buffer)) > 0) {
    text.append(buffer, static_cast<std::size_t>(n));
  }
  ::close(fds[0]);
  return text;
}

TEST(FlightRecorderTest, DumpsRecentEventsOnInjectedContractViolation) {
  FlightRecorder& flight = flight_recorder();
  flight.arm(16);
  std::string caught;
  try {
    const TraceArg args[] = {{"sample", 11}, {"attempt", 2}};
    flight.record("eval.failed", /*instant=*/true, /*t_s=*/1.5, args, 2);
    throw core::ContractViolation(core::ContractViolation::Kind::kAssert,
                                  "injected", __FILE__, __LINE__,
                                  "trace_test fixture");
  } catch (const core::ContractViolation& e) {
    caught = e.what();
    const std::string text = dump_text(flight, "contract violation");
    EXPECT_NE(text.find("flight recorder dump (contract violation)"),
              std::string::npos);
    EXPECT_NE(text.find("1 events recorded, last 1 shown"),
              std::string::npos);
    EXPECT_NE(text.find("+1500000us I eval.failed sample=11 attempt=2"),
              std::string::npos);
  }
  EXPECT_NE(caught.find("injected"), std::string::npos);
  flight.reset();
  EXPECT_FALSE(flight.enabled());
}

TEST(FlightRecorderTest, RingWrapKeepsNewest) {
  FlightRecorder& flight = flight_recorder();
  flight.arm(16);
  for (std::uint64_t i = 0; i < 20; ++i) {
    const TraceArg args[] = {{"attempt", i}};
    flight.record("eval.retry", true, static_cast<double>(i), args, 1);
  }
  const std::string text = dump_text(flight, "wrap");
  EXPECT_NE(text.find("20 events recorded, last 16 shown"),
            std::string::npos);
  EXPECT_EQ(text.find("attempt=3"), std::string::npos);  // overwritten
  EXPECT_NE(text.find("attempt=4"), std::string::npos);  // oldest survivor
  EXPECT_NE(text.find("attempt=19"), std::string::npos);
  flight.reset();
}

TEST(FlightRecorderTest, TracerForwardsSpansWhenArmed) {
  TraceConfig config;
  config.flight_recorder = true;
  TracerOn on(config);
  ASSERT_TRUE(flight_recorder().enabled());
  record_span("test.forwarded", 5);
  tracer().instant("test.ping", {{"round", 9}});
  const std::string text = dump_text(flight_recorder(), "forwarding");
  EXPECT_NE(text.find("S test.forwarded"), std::string::npos);
  EXPECT_NE(text.find("I test.ping round=9"), std::string::npos);
}

TEST(PhaseSelfTimesTest, SubtractsDirectChildrenAndSortsBySelfTime) {
  std::vector<TraceEventView> events;
  const auto push = [&events](std::uint64_t id, std::uint64_t parent,
                              const char* name, double dur_s) {
    TraceEventView view;
    view.event.id = id;
    view.event.parent = parent;
    view.event.name = name;
    view.event.dur_s = dur_s;
    events.push_back(view);
  };
  push(1, 0, "run", 10.0);
  push(2, 1, "round", 4.0);
  push(3, 1, "round", 4.0);
  push(4, 2, "eval", 3.5);
  push(5, 3, "eval", 1.0);

  const std::vector<PhaseStat> stats = phase_self_times(events);
  ASSERT_EQ(stats.size(), 3u);
  EXPECT_EQ(stats[0].name, "eval");  // 4.5 s self, no children
  EXPECT_EQ(stats[0].count, 2u);
  EXPECT_DOUBLE_EQ(stats[0].total_s, 4.5);
  EXPECT_DOUBLE_EQ(stats[0].self_s, 4.5);
  EXPECT_EQ(stats[1].name, "round");  // 8 - 4.5 = 3.5 s self
  EXPECT_DOUBLE_EQ(stats[1].self_s, 3.5);
  EXPECT_EQ(stats[2].name, "run");  // 10 - 8 = 2 s self
  EXPECT_DOUBLE_EQ(stats[2].self_s, 2.0);
}

TEST(PhaseSelfTimesTest, ClampsNegativeSelfTimeToZero) {
  std::vector<TraceEventView> events;
  TraceEventView parent;
  parent.event.id = 1;
  parent.event.name = "short";
  parent.event.dur_s = 1.0;
  TraceEventView child;
  child.event.id = 2;
  child.event.parent = 1;
  child.event.name = "long";
  child.event.dur_s = 2.0;  // clock-skewed child longer than its parent
  events.push_back(parent);
  events.push_back(child);
  const std::vector<PhaseStat> stats = phase_self_times(events);
  ASSERT_EQ(stats.size(), 2u);
  EXPECT_EQ(stats[0].name, "long");
  EXPECT_DOUBLE_EQ(stats[1].self_s, 0.0);
}

}  // namespace
}  // namespace hp::obs
