// Span-tree reconstruction across ThreadPool threads. Work fanned out via
// parallel_for must record its spans under the span that was open on the
// *calling* thread, and because span ids are pure functions of
// (parent, name, key), the reconstructed (name, id, parent) tree must be
// identical at every worker count — only timings and ring/tid placement
// may differ. Runs under TSan in CI phase 3 with the rest of test_obs.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <set>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "obs/span.hpp"
#include "obs/trace.hpp"
#include "parallel/thread_pool.hpp"

namespace hp::obs {
namespace {

using SpanKey = std::tuple<std::string, std::uint64_t, std::uint64_t>;

/// Runs a two-level fan-out (round span -> parallel evaluate spans, each
/// with a nested attempt span) on @p num_threads workers and returns the
/// recorded (name, id, parent) set.
std::multiset<SpanKey> run_fanout(std::size_t num_threads) {
  TraceConfig config;
  config.ring_kb = 64;
  tracer().start(config);
  {
    parallel::ThreadPool pool(num_threads);
    ScopedTimer round("tree.round", nullptr, 1);
    pool.parallel_for(8, [](std::size_t i) {
      ScopedTimer eval("tree.evaluate", nullptr, i);
      ScopedTimer attempt("tree.attempt", nullptr, 0);
      tracer().instant("tree.ping", {{"index", i}});
    });
  }
  tracer().stop();
  std::multiset<SpanKey> keys;
  for (const TraceEventView& v : tracer().snapshot()) {
    keys.emplace(v.event.name, v.event.id, v.event.parent);
  }
  tracer().reset();
  return keys;
}

TEST(TraceTreeTest, ParallelForChildrenLinkToSubmittingSpan) {
  TraceConfig config;
  config.ring_kb = 64;
  tracer().start(config);
  std::uint64_t round_id = 0;
  {
    parallel::ThreadPool pool(4);
    ScopedTimer round("tree.round", nullptr, 1);
    round_id = tracer().current_span();
    pool.parallel_for(8, [](std::size_t i) {
      ScopedTimer eval("tree.evaluate", nullptr, i);
    });
  }
  tracer().stop();
  const std::vector<TraceEventView> events = tracer().snapshot();
  tracer().reset();

  ASSERT_NE(round_id, 0u);
  std::size_t evaluate_count = 0;
  std::set<std::uint64_t> evaluate_ids;
  for (const TraceEventView& v : events) {
    if (std::string(v.event.name) != "tree.evaluate") continue;
    ++evaluate_count;
    evaluate_ids.insert(v.event.id);
    // Every worker-side span hangs off the round span opened on the
    // submitting thread, never off 0 or a worker-local leftover.
    EXPECT_EQ(v.event.parent, round_id);
  }
  EXPECT_EQ(evaluate_count, 8u);
  EXPECT_EQ(evaluate_ids.size(), 8u);  // keyed by index => all distinct
}

TEST(TraceTreeTest, ParallelForPropagatesCurrentSpanToWorker) {
  TraceConfig config;
  config.ring_kb = 64;
  tracer().start(config);
  std::uint64_t outer_id = 0;
  std::uint64_t parents[2] = {0, 0};
  std::thread::id threads[2];
  {
    parallel::ThreadPool pool(2);
    ScopedTimer outer("tree.outer", nullptr, 0);
    outer_id = tracer().current_span();
    // Whichever thread takes index 0 waits until another thread has taken
    // index 1, so one of the two indices runs on a pool worker.
    std::atomic<bool> second_started{false};
    pool.parallel_for(2, [&](std::size_t i) {
      parents[i] = tracer().current_span();
      threads[i] = std::this_thread::get_id();
      if (i == 1) {
        second_started = true;
      } else {
        while (!second_started) std::this_thread::yield();
      }
    });
  }
  tracer().stop();
  tracer().reset();
  EXPECT_NE(threads[0], threads[1]);
  EXPECT_EQ(parents[0], outer_id);
  EXPECT_EQ(parents[1], outer_id);
}

TEST(TraceTreeTest, SpanTreeIsInvariantAcrossWorkerCounts) {
  const std::multiset<SpanKey> sequential = run_fanout(1);
  const std::multiset<SpanKey> parallel4 = run_fanout(4);
  // 1 round + 8 evaluate + 8 attempt spans + 8 instants.
  EXPECT_EQ(sequential.size(), 25u);
  EXPECT_EQ(sequential, parallel4);
}

TEST(TraceTreeTest, InstantsAttachToTheWorkerSideSpan) {
  TraceConfig config;
  config.ring_kb = 64;
  tracer().start(config);
  {
    parallel::ThreadPool pool(4);
    ScopedTimer round("tree.round", nullptr, 1);
    pool.parallel_for(4, [](std::size_t i) {
      ScopedTimer eval("tree.evaluate", nullptr, i);
      tracer().instant("tree.ping", {{"index", i}});
    });
  }
  tracer().stop();
  const std::vector<TraceEventView> events = tracer().snapshot();
  tracer().reset();

  std::set<std::uint64_t> evaluate_ids;
  for (const TraceEventView& v : events) {
    if (std::string(v.event.name) == "tree.evaluate") {
      evaluate_ids.insert(v.event.id);
    }
  }
  std::size_t pings = 0;
  for (const TraceEventView& v : events) {
    if (std::string(v.event.name) != "tree.ping") continue;
    ++pings;
    EXPECT_TRUE(v.event.instant);
    EXPECT_EQ(v.event.id, 0u);
    EXPECT_EQ(evaluate_ids.count(v.event.parent), 1u)
        << "instant not under an evaluate span";
  }
  EXPECT_EQ(pings, 4u);
}

}  // namespace
}  // namespace hp::obs
