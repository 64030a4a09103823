// Thread-safety of the observability layer under ThreadPool concurrency —
// the suite the ThreadSanitizer phase of tools/run_tests.sh rebuilds.
// Workers log structured events, bump shared counters, and time spans
// concurrently; totals must come out exact and TSan must stay silent.

#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <string>

#include "obs/obs.hpp"
#include "parallel/thread_pool.hpp"

namespace hp::obs {
namespace {

constexpr std::size_t kTasks = 512;

/// Counts events and checksums their payloads (no storage, no locks).
class CountingSink final : public LogSink {
 public:
  void write(const LogEvent& event) override {
    events_.fetch_add(1, std::memory_order_relaxed);
    for (const LogField& f : event.fields) {
      payload_.fetch_add(
          static_cast<std::uint64_t>(f.value.number_or(0.0)),
          std::memory_order_relaxed);
    }
  }
  [[nodiscard]] std::uint64_t events() const noexcept {
    return events_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t payload() const noexcept {
    return payload_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<std::uint64_t> events_{0};
  std::atomic<std::uint64_t> payload_{0};
};

TEST(ObsConcurrencyTest, WorkersLogThroughSharedLoggerWithoutLoss) {
  Logger lg;
  auto sink = std::make_shared<CountingSink>();
  lg.add_sink(sink, LogLevel::kTrace);

  parallel::ThreadPool pool(7);
  pool.parallel_for(kTasks, [&](std::size_t i) {
    lg.debug("worker.event", {{"index", JsonValue(static_cast<long long>(i))},
                              {"one", JsonValue(1)}});
  });

  EXPECT_EQ(sink->events(), kTasks);
  EXPECT_EQ(sink->payload(), kTasks * (kTasks - 1) / 2 + kTasks);
}

TEST(ObsConcurrencyTest, SinkRegistrationRacesWithLogging) {
  // add_sink/remove_sink while workers log: no crash, no TSan report, and
  // the permanently attached sink still sees every event.
  Logger lg;
  auto stable = std::make_shared<CountingSink>();
  lg.add_sink(stable, LogLevel::kTrace);

  parallel::ThreadPool pool(7);
  pool.parallel_for(kTasks, [&](std::size_t i) {
    if (i % 16 == 0) {
      auto transient = std::make_shared<CountingSink>();
      lg.add_sink(transient, LogLevel::kTrace);
      lg.remove_sink(transient);
    }
    lg.info("worker.event");
  });

  EXPECT_EQ(stable->events(), kTasks);
}

TEST(ObsConcurrencyTest, SharedInstrumentsCountExactly) {
  MetricsRegistry reg;
  reg.set_enabled(true);
  Counter& hits = reg.counter("test.hits");
  Counter& weighted = reg.counter("test.weighted");

  parallel::ThreadPool pool(7);
  pool.parallel_for(kTasks, [&](std::size_t i) {
    hits.add(1);
    weighted.add(i % 4);
  });

  EXPECT_EQ(hits.value(), kTasks);
  // i % 4 cycles 0, 1, 2, 3: kTasks / 4 cycles of 6 each.
  EXPECT_EQ(weighted.value(), kTasks / 4 * 6);
}

TEST(ObsConcurrencyTest, RegistryLookupsRaceSafely) {
  // Fetch-or-create from many workers: everyone must get the same
  // instrument, and the total must be exact.
  MetricsRegistry reg;
  parallel::ThreadPool pool(7);
  pool.parallel_for(kTasks, [&](std::size_t i) {
    reg.counter("shared." + std::to_string(i % 8)).add(1);
  });
  std::uint64_t total = 0;
  for (int k = 0; k < 8; ++k) {
    total += reg.counter("shared." + std::to_string(k)).value();
  }
  EXPECT_EQ(total, kTasks);
}

TEST(ObsConcurrencyTest, ScopedTimersRecordFromWorkers) {
  // Spans timed on every pool thread at once each land in their thread's
  // ring, under the span that submitted the batch, and none is lost.
  TraceConfig config;
  config.ring_kb = 256;
  tracer().start(config);
  parallel::ThreadPool pool(7);
  std::uint64_t submitter = 0;
  {
    ScopedTimer batch("test.batch");
    submitter = tracer().current_span();
    pool.parallel_for(kTasks,
                      [](std::size_t i) { ScopedTimer task("test.task", i); });
  }
  tracer().stop();

  std::size_t tasks = 0;
  for (const TraceEventView& view : tracer().snapshot()) {
    if (std::string(view.event.name) != "test.task") continue;
    ++tasks;
    EXPECT_EQ(view.event.parent, submitter);
  }
  EXPECT_EQ(tasks, kTasks);
  EXPECT_EQ(tracer().dropped_events(), 0u);
  tracer().reset();
}

}  // namespace
}  // namespace hp::obs
