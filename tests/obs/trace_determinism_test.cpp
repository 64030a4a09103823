// Tracing is pure read-side (DESIGN.md §9): a run with the tracer
// recording (flight recorder armed, instants firing on every injected
// fault and retry) must produce a bit-identical evaluation trace to the
// same run with tracing off. Exercised for every method (Rand, Rand-Walk,
// Grid, HW-IECI, HW-CWEI) at batch sizes 1 and 4, on 4 threads, over the
// fault-injecting scenario so the retry/backoff instrumentation is live.
// The same scenario checks that the work counters the metrics registry
// keeps at a span site count exactly the spans the tracer records there.

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "core/fault_injection.hpp"
#include "core/framework.hpp"
#include "core/grid_search.hpp"
#include "core/optimizer.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "../core/fake_objective.hpp"

namespace hp::core {
namespace {

using testing::FakeObjective;
using testing::fake_space;

/// Arms the tracer (and flight recorder) for one scope with a small ring,
/// restoring the disabled/empty defaults on exit.
class TracingOn {
 public:
  TracingOn() {
    obs::TraceConfig config;
    config.ring_kb = 256;
    config.flight_recorder = true;
    obs::tracer().start(config);
  }
  ~TracingOn() {
    obs::tracer().stop();
    obs::tracer().reset();
    obs::flight_recorder().reset();
  }

  TracingOn(const TracingOn&) = delete;
  TracingOn& operator=(const TracingOn&) = delete;
};

HardwareConstraints make_constraints() {
  ConstraintBudgets budgets;
  budgets.power_w = 60.0;
  return HardwareConstraints(
      budgets,
      HardwareModel(ModelForm::Linear, linalg::Vector{100.0}, 0.0, 0.5),
      std::nullopt);
}

std::unique_ptr<Optimizer> make_optimizer(
    const std::string& key, const HyperParameterSpace& space,
    Objective& objective, const HardwareConstraints& constraints,
    const OptimizerOptions& opt) {
  std::unique_ptr<Proposer> proposer;
  if (key == "grid") {
    GridSearchOptions grid;
    grid.levels_per_dimension = 3;
    proposer = std::make_unique<GridSearchProposer>(space, grid);
  } else {
    BayesOptOptions bo;
    bo.initial_design = 3;
    bo.pool.lattice_points = 120;
    bo.pool.random_points = 60;
    const Method method = key == "rand"        ? Method::Rand
                          : key == "rand_walk" ? Method::RandWalk
                          : key == "hw_ieci"   ? Method::HwIeci
                                               : Method::HwCwei;
    proposer = make_proposer(method, space, {}, bo);
  }
  return std::make_unique<Optimizer>(space, objective, constraints.budgets(),
                                     &constraints, opt, std::move(proposer));
}

/// One fresh-stack faulty run; the scenario mirrors the golden-trace
/// suite (diverging candidates + injected transient faults) so retries,
/// backoffs, and failure records all appear.
std::string run_trace_csv(const std::string& key, std::size_t batch) {
  const HyperParameterSpace space = fake_space();
  const HardwareConstraints constraints = make_constraints();
  FakeObjective inner(space);
  inner.set_diverge_above(0.55);
  FaultSpec faults;
  faults.failure_rate = 0.15;
  faults.seed = 909;
  FaultInjectingObjective faulty(inner, faults);
  OptimizerOptions opt;
  opt.seed = 21;
  opt.batch_size = batch;
  opt.num_threads = 4;
  opt.retry.max_attempts = 3;
  opt.retry.backoff_initial_s = 5.0;
  opt.retry.backoff_jitter = 0.1;
  if (key == "grid") {
    opt.max_samples = 9;
  } else if (key == "hw_ieci" || key == "hw_cwei") {
    opt.max_function_evaluations = 8;
    opt.max_samples = 48;
  } else {
    opt.max_function_evaluations = 12;
    opt.max_samples = 60;
  }
  auto optimizer = make_optimizer(key, space, faulty, constraints, opt);
  const RunResult result = optimizer->run();
  std::ostringstream os;
  result.trace.write_csv(os);
  return os.str();
}

void expect_tracing_invisible(const std::string& key) {
  for (const std::size_t batch : {std::size_t{1}, std::size_t{4}}) {
    SCOPED_TRACE(key + " batch=" + std::to_string(batch));
    const std::string dark = run_trace_csv(key, batch);
    std::string traced;
    {
      TracingOn on;
      traced = run_trace_csv(key, batch);
      // The run must actually have been traced for the comparison to
      // mean anything.
      EXPECT_FALSE(obs::tracer().snapshot().empty());
    }
    EXPECT_EQ(traced, dark);
  }
}

TEST(TraceDeterminismTest, Rand) { expect_tracing_invisible("rand"); }
TEST(TraceDeterminismTest, RandWalk) { expect_tracing_invisible("rand_walk"); }
TEST(TraceDeterminismTest, Grid) { expect_tracing_invisible("grid"); }
TEST(TraceDeterminismTest, HwIeci) { expect_tracing_invisible("hw_ieci"); }
TEST(TraceDeterminismTest, HwCwei) { expect_tracing_invisible("hw_cwei"); }

std::uint64_t count_spans(const std::vector<obs::TraceEventView>& events,
                          const std::string& name) {
  std::uint64_t n = 0;
  for (const obs::TraceEventView& view : events) {
    if (!view.event.instant && view.event.name == name) ++n;
  }
  return n;
}

TEST(SpanCounters, CholeskyAndArgmaxCountsEqualTheirSpans) {
  // A batched HW-IECI study on 4 threads: factorizations run on the
  // calling thread (GP refits) and on pool workers (kernel ML fit
  // restarts), and every acquisition argmax of a constant-liar round is
  // counted.
  obs::Counter& cholesky = obs::metrics().counter("gp.cholesky_calls");
  obs::Counter& argmax = obs::metrics().counter("bo.acq_argmax_calls");
  const std::uint64_t cholesky_before = cholesky.value();
  const std::uint64_t argmax_before = argmax.value();
  std::vector<obs::TraceEventView> events;
  std::uint64_t dropped = 0;
  {
    TracingOn tracing;
    struct MetricsOn {
      MetricsOn() { obs::metrics().set_enabled(true); }
      ~MetricsOn() { obs::metrics().set_enabled(false); }
    } metrics_on;
    (void)run_trace_csv("hw_ieci", 4);
    events = obs::tracer().snapshot();
    dropped = obs::tracer().dropped_events();
  }
  EXPECT_EQ(dropped, 0u);
  const std::uint64_t cholesky_spans = count_spans(events, "gp.cholesky");
  const std::uint64_t argmax_spans = count_spans(events, "bo.acq_argmax");
  EXPECT_GT(cholesky_spans, 0u);
  EXPECT_GT(argmax_spans, 0u);
  EXPECT_EQ(cholesky.value() - cholesky_before, cholesky_spans);
  EXPECT_EQ(argmax.value() - argmax_before, argmax_spans);
}

}  // namespace
}  // namespace hp::core
