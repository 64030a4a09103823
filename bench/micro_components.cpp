// Google-benchmark micro timings of HyperPower's building blocks: GP
// fitting and prediction, acquisition maximization, Cholesky, hardware
// model training, profiling, landscape evaluation. These quantify the
// per-iteration bookkeeping costs that the virtual-clock overhead model
// (BayesOptOptions::overhead_*) abstracts.

#include <benchmark/benchmark.h>

#include <sstream>

#include "common/experiment.hpp"
#include "common/micro_report.hpp"
#include "common/spin.hpp"
#include "core/candidate_pool.hpp"
#include "gp/kernel_fit.hpp"
#include "linalg/cholesky.hpp"
#include "nn/sgd_trainer.hpp"
#include "obs/obs.hpp"
#include "parallel/thread_pool.hpp"

namespace {

using namespace hp;

void BM_Calibration(benchmark::State& state) {
  // Fixed work no library change speeds up: a splitmix64 chain of about
  // half a millisecond. CI's cross-machine gate divides every run by it,
  // so a faster kernel never makes the other runs look slower.
  std::uint64_t x = static_cast<std::uint64_t>(state.max_iterations);
  for (auto _ : state) {
    x = bench::spin(x, 100000);
    benchmark::DoNotOptimize(x);
  }
}
BENCHMARK(BM_Calibration);

linalg::Matrix random_inputs(std::size_t n, std::size_t d, std::uint64_t seed) {
  stats::Rng rng(seed);
  linalg::Matrix x(n, d);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < d; ++j) x(i, j) = rng.uniform();
  }
  return x;
}

linalg::Vector random_targets(std::size_t n, std::uint64_t seed) {
  stats::Rng rng(seed);
  linalg::Vector y(n);
  for (std::size_t i = 0; i < n; ++i) y[i] = rng.uniform(0.0, 1.0);
  return y;
}

void BM_CholeskyFactorization(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  linalg::Matrix b = random_inputs(n, n, 1);
  linalg::Matrix a = b * b.transposed();
  a.add_to_diagonal(static_cast<double>(n));
  for (auto _ : state) {
    linalg::Cholesky chol(a);
    benchmark::DoNotOptimize(chol.log_det());
  }
}
BENCHMARK(BM_CholeskyFactorization)->Arg(10)->Arg(50)->Arg(100)->Arg(200);

void BM_CholeskyExtend(benchmark::State& state) {
  // One bordered O(n^2) update — the per-round factor cost of the
  // incremental GP refit path, vs BM_CholeskyFactorization's O(n^3).
  const auto n = static_cast<std::size_t>(state.range(0));
  linalg::Matrix b = random_inputs(n + 1, n + 1, 1);
  linalg::Matrix full = b * b.transposed();
  full.add_to_diagonal(static_cast<double>(n + 1));
  linalg::Matrix base(n, n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) base(i, j) = full(i, j);
  }
  linalg::Vector row(n);
  for (std::size_t j = 0; j < n; ++j) row[j] = full(n, j);
  const linalg::Cholesky chol(base);
  for (auto _ : state) {
    auto ext = chol.extended(row, full(n, n));
    benchmark::DoNotOptimize(ext->log_det());
  }
}
BENCHMARK(BM_CholeskyExtend)->Arg(50)->Arg(100)->Arg(200);

void BM_GpFit(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto x = random_inputs(n, 6, 2);
  const auto y = random_targets(n, 3);
  gp::KernelParams params;
  params.length_scales = {0.3};
  for (auto _ : state) {
    gp::GaussianProcess gp(gp::Matern52Kernel(params), 1e-4);
    gp.fit(x, y);
    benchmark::DoNotOptimize(gp.log_marginal_likelihood());
  }
}
BENCHMARK(BM_GpFit)->Arg(10)->Arg(25)->Arg(50)->Arg(100);

void BM_GpRefitFull(benchmark::State& state) {
  // From-scratch refit baseline: a fresh GP each iteration can never take
  // an incremental path (Gram + O(n^3) factorization every time).
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto x = random_inputs(n, 6, 2);
  const auto y = random_targets(n, 3);
  gp::KernelParams params;
  params.length_scales = {0.3};
  for (auto _ : state) {
    gp::GaussianProcess gp(gp::Matern52Kernel(params), 1e-4);
    gp.fit(x, y);
    benchmark::DoNotOptimize(gp.num_observations());
  }
}
BENCHMARK(BM_GpRefitFull)->Arg(100)->Arg(200);

void BM_GpRefitIncremental(benchmark::State& state) {
  // One BO round on a persistent GP: append an observation (extension
  // path), then pop it (truncation path) — two O(n^2) refits per
  // iteration. tracked.json caps /200 over BM_Calibration.
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto x_plus = random_inputs(n + 1, 6, 2);
  const auto y_plus = random_targets(n + 1, 3);
  linalg::Matrix x_base(n, 6);
  linalg::Vector y_base(n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < 6; ++j) x_base(i, j) = x_plus(i, j);
    y_base[i] = y_plus[i];
  }
  gp::KernelParams params;
  params.length_scales = {0.3};
  gp::GaussianProcess gp(gp::Matern52Kernel(params), 1e-4);
  gp.fit(x_base, y_base);
  for (auto _ : state) {
    gp.fit(x_plus, y_plus);
    gp.fit(x_base, y_base);
    benchmark::DoNotOptimize(gp.num_observations());
  }
}
BENCHMARK(BM_GpRefitIncremental)->Arg(100)->Arg(200);

void BM_GpPredict(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  gp::KernelParams params;
  params.length_scales = {0.3};
  gp::GaussianProcess gp(gp::Matern52Kernel(params), 1e-4);
  gp.fit(random_inputs(n, 6, 4), random_targets(n, 5));
  const linalg::Vector q(std::vector<double>(6, 0.5));
  for (auto _ : state) {
    benchmark::DoNotOptimize(gp.predict(q).mean);
  }
}
BENCHMARK(BM_GpPredict)->Arg(10)->Arg(50)->Arg(100);

void BM_KernelMlFit(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto x = random_inputs(n, 6, 6);
  const auto y = random_targets(n, 7);
  gp::KernelFitOptions opt;
  opt.num_restarts = 1;
  opt.iterations_per_restart = 10;
  for (auto _ : state) {
    gp::KernelParams params;
    params.length_scales = {0.3};
    gp::GaussianProcess gp(gp::Matern52Kernel(params), 1e-4);
    benchmark::DoNotOptimize(
        gp::fit_kernel_by_ml(gp, x, y, opt).log_marginal_likelihood);
  }
}
BENCHMARK(BM_KernelMlFit)->Arg(15)->Arg(40);

/// HW-IECI's a-priori constraints for CIFAR-10 on a GTX 1070, with models
/// trained on 50 profiled samples.
core::HardwareConstraints cifar10_gtx1070_constraints() {
  const auto bench_pair =
      bench::make_pair(bench::Dataset::Cifar10, bench::Platform::Gtx1070);
  const auto models = bench::train_models(bench_pair, 50, 1);
  return core::HardwareConstraints(
      bench_pair.budgets,
      std::optional<core::HardwareModel>(models.power->model),
      models.memory
          ? std::optional<core::HardwareModel>(models.memory->model)
          : std::nullopt);
}

void BM_AcquisitionMaximization(benchmark::State& state) {
  // One BO proposal's argmax over the default 1000-candidate pool, with
  // the blocks scored on the calling thread alone as in a 1-thread run
  // (0 workers), or also on an idle pool as in a 4-thread run (3 workers).
  // The GP never changes, so every lattice block reuses all its cached
  // prediction rows: this is the all-rows-reused steady state, and
  // BM_AcquisitionRound adds the refits between calls.
  const auto workers = static_cast<std::size_t>(state.range(0));
  const auto problem = core::cifar10_problem();
  gp::KernelParams params;
  params.length_scales.assign(13, 0.3);
  gp::GaussianProcess gp(gp::Matern52Kernel(params), 1e-4);
  gp.fit(random_inputs(30, 13, 8), random_targets(30, 9));
  core::CandidatePool candidates(problem.space());
  parallel::ThreadPool pool(workers);
  core::HwIeciAcquisition acquisition;
  const core::HardwareConstraints constraints = cifar10_gtx1070_constraints();
  core::AcquisitionContext ctx{problem.space()};
  ctx.objective_gp = &gp;
  ctx.best_observed = 0.3;
  ctx.constraints = &constraints;
  stats::Rng rng(10);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        candidates.maximize(acquisition, ctx, rng, &pool).score);
  }
}
BENCHMARK(BM_AcquisitionMaximization)->Arg(0)->Arg(3)->UseRealTime();

void BM_AcquisitionRound(benchmark::State& state) {
  // One constant-liar round as the BO proposer runs a batch: four argmax
  // calls from n = 30 observations, each followed by a one-row lie at the
  // chosen point (an extension of the objective GP), then a truncation
  // back to the 30 real rows. Between calls a lattice block recomputes
  // only its prediction rows for the lie. Workers as above.
  const auto workers = static_cast<std::size_t>(state.range(0));
  const auto problem = core::cifar10_problem();
  gp::KernelParams params;
  params.length_scales.assign(13, 0.3);
  gp::GaussianProcess gp(gp::Matern52Kernel(params), 1e-4);
  const linalg::Matrix x = random_inputs(30, 13, 8);
  const linalg::Vector y = random_targets(30, 9);
  std::vector<std::vector<double>> rows;
  for (std::size_t i = 0; i < x.rows(); ++i) rows.push_back(x.row(i).raw());
  std::vector<double> ys = y.raw();
  const auto refit = [&] {
    linalg::Matrix m(rows.size(), 13);
    for (std::size_t i = 0; i < rows.size(); ++i) {
      for (std::size_t j = 0; j < 13; ++j) m(i, j) = rows[i][j];
    }
    gp.fit(std::move(m), linalg::Vector{std::vector<double>(ys)});
  };
  refit();
  core::CandidatePool candidates(problem.space());
  parallel::ThreadPool pool(workers);
  core::HwIeciAcquisition acquisition;
  const core::HardwareConstraints constraints = cifar10_gtx1070_constraints();
  core::AcquisitionContext ctx{problem.space()};
  ctx.objective_gp = &gp;
  ctx.best_observed = 0.3;
  ctx.constraints = &constraints;
  stats::Rng rng(10);
  for (auto _ : state) {
    for (int call = 0; call < 4; ++call) {
      const core::CandidatePool::Maximizer best =
          candidates.maximize(acquisition, ctx, rng, &pool);
      benchmark::DoNotOptimize(best.score);
      rows.push_back(best.unit);
      ys.push_back(ctx.best_observed);
      refit();
    }
    rows.resize(x.rows());
    ys.resize(x.rows());
    refit();
  }
}
BENCHMARK(BM_AcquisitionRound)->Arg(0)->Arg(3)->UseRealTime();

void BM_HardwareModelPredict(benchmark::State& state) {
  const auto pair =
      bench::make_pair(bench::Dataset::Cifar10, bench::Platform::Gtx1070);
  const auto models = bench::train_models(pair, 50, 11);
  const std::vector<double> z{40, 3, 2, 40, 3, 2, 40, 3, 2, 400};
  for (auto _ : state) {
    benchmark::DoNotOptimize(models.power->model.predict(z));
  }
}
BENCHMARK(BM_HardwareModelPredict);

void BM_ProfileOneConfig(benchmark::State& state) {
  hw::GpuSimulator sim(hw::gtx1070(), 12);
  hw::InferenceProfiler profiler(sim);
  nn::CnnSpec spec;
  spec.input = {1, 3, 32, 32};
  spec.conv_stages = {{40, 3, 2}, {40, 3, 2}, {40, 3, 1}};
  spec.dense_stages = {{400}};
  spec.num_classes = 10;
  for (auto _ : state) {
    benchmark::DoNotOptimize(profiler.profile(spec).power_w);
  }
}
BENCHMARK(BM_ProfileOneConfig);

void BM_TrainHardwareModel(benchmark::State& state) {
  const auto pair =
      bench::make_pair(bench::Dataset::Cifar10, bench::Platform::Gtx1070);
  for (auto _ : state) {
    benchmark::DoNotOptimize(bench::train_models(pair, 100, 13).power->cv.rmspe);
  }
}
BENCHMARK(BM_TrainHardwareModel);

void BM_LandscapeEvaluation(benchmark::State& state) {
  const auto problem = core::cifar10_problem();
  const testbed::ErrorLandscape landscape(problem,
                                          testbed::cifar10_landscape());
  const core::Configuration config{40, 3, 2, 40, 3, 2, 40, 3, 2,
                                   400, 0.01, 0.9, 0.001};
  for (auto _ : state) {
    benchmark::DoNotOptimize(landscape.final_error(config, 1));
  }
}
BENCHMARK(BM_LandscapeEvaluation);

void BM_RealCnnTrainingEpoch(benchmark::State& state) {
  nn::SyntheticDataOptions data_opt;
  data_opt.train_size = 100;
  data_opt.test_size = 50;
  data_opt.image_size = 12;
  const nn::DataSplit data = nn::make_synthetic_mnist(data_opt);
  nn::CnnSpec spec;
  spec.input = {1, 1, 12, 12};
  spec.conv_stages = {{8, 3, 2}};
  spec.dense_stages = {{32}};
  spec.num_classes = 10;
  for (auto _ : state) {
    nn::Network net = nn::build_network(spec);
    stats::Rng rng(14);
    net.initialize(rng);
    nn::TrainingConfig config;
    config.epochs = 1;
    nn::SgdTrainer trainer(config);
    benchmark::DoNotOptimize(
        trainer.train(net, data.train, data.test).final_test_error);
  }
}
BENCHMARK(BM_RealCnnTrainingEpoch);

// ---- tracing overhead ------------------------------------------------
// The same small Cholesky workload at three instrumentation levels. The
// committed tracked.json invariant pins Baseline/SpansOff >= 0.98: a
// ScopedTimer with every backend disabled may cost at most ~2% on a
// microsecond-scale workload (in practice it is two relaxed loads).

linalg::Matrix trace_bench_matrix() {
  linalg::Matrix b = random_inputs(32, 32, 7);
  linalg::Matrix a = b * b.transposed();
  a.add_to_diagonal(32.0);
  return a;
}

void BM_TraceOverheadBaseline(benchmark::State& state) {
  const linalg::Matrix a = trace_bench_matrix();
  for (auto _ : state) {
    linalg::Cholesky chol(a);
    benchmark::DoNotOptimize(chol.log_det());
  }
}
BENCHMARK(BM_TraceOverheadBaseline);

void BM_TraceOverheadSpansOff(benchmark::State& state) {
  // Metrics and tracing both disabled: the span is a no-op guard.
  const linalg::Matrix a = trace_bench_matrix();
  for (auto _ : state) {
    obs::ScopedTimer span("bench.trace_overhead");
    linalg::Cholesky chol(a);
    benchmark::DoNotOptimize(chol.log_det());
  }
}
BENCHMARK(BM_TraceOverheadSpansOff);

void BM_TraceOverheadRing(benchmark::State& state) {
  // Tracing enabled: every span takes two clock samples and one ring slot.
  obs::TraceConfig config;
  config.ring_kb = 256;
  obs::tracer().start(config);
  const linalg::Matrix a = trace_bench_matrix();
  for (auto _ : state) {
    obs::ScopedTimer span("bench.trace_overhead");
    linalg::Cholesky chol(a);
    benchmark::DoNotOptimize(chol.log_det());
  }
  obs::tracer().stop();
  obs::tracer().reset();
}
BENCHMARK(BM_TraceOverheadRing);

void BM_TraceExport(benchmark::State& state) {
  // Chrome trace-event JSON serialization of a full ring (4096 spans),
  // the one-shot end-of-run cost of --trace-out.
  obs::TraceConfig config;
  config.ring_kb = 256;  // 4096 events at 64 B/event
  obs::tracer().start(config);
  for (int i = 0; i < 4096; ++i) {
    obs::ScopedTimer span("bench.trace_overhead", nullptr,
                          static_cast<std::uint64_t>(i));
    span.trace_arg({"index", i});
    benchmark::DoNotOptimize(i);
  }
  obs::tracer().stop();
  for (auto _ : state) {
    std::ostringstream os;
    obs::tracer().write_chrome_trace(os);
    benchmark::DoNotOptimize(os.str().size());
  }
  obs::tracer().reset();
}
BENCHMARK(BM_TraceExport);

}  // namespace

int main(int argc, char** argv) {
  return hp::bench::run_micro_bench("micro_components", argc, argv);
}
