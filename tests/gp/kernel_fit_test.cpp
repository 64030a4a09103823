#include "gp/kernel_fit.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <functional>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "linalg/cholesky.hpp"
#include "obs/trace.hpp"
#include "parallel/thread_pool.hpp"
#include "stats/rng.hpp"

namespace hp::gp {
namespace {

using linalg::Matrix;
using linalg::Vector;

constexpr double kMinusInf = -std::numeric_limits<double>::infinity();

/// The kernel ML fit's objective before LmlEvaluator: a fresh GP per
/// evaluation, -inf wherever it throws or the LML is not finite.
double fresh_gp_lml(const Matrix& x, const Vector& y,
                    const KernelParams& params, double noise) {
  try {
    GaussianProcess gp(Matern52Kernel(params), noise);
    gp.fit(x, y);
    const double lml = gp.log_marginal_likelihood();
    return std::isfinite(lml) ? lml : kMinusInf;
  } catch (const std::exception&) {
    return kMinusInf;
  }
}

/// Seeded inputs in the unit cube and a smooth target with a little noise.
void seeded_dataset(std::size_t n, std::size_t dim, std::uint64_t seed,
                    Matrix& x, Vector& y) {
  stats::Rng rng(seed);
  x = Matrix(n, dim);
  y = Vector(n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t d = 0; d < dim; ++d) x(i, d) = rng.uniform();
    y[i] = x(i, 0) - 2.0 * x(i, (dim - 1) / 2) * x(i, dim / 3) +
           x(i, dim - 1) * x(i, dim - 1) + 0.1 * rng.uniform();
  }
}

/// Asserts the evaluator equals the fresh-GP path bit for bit.
void expect_same_lml(LmlEvaluator& evaluator, const Matrix& x,
                     const Vector& y, const KernelParams& params,
                     double noise) {
  EXPECT_EQ(evaluator.lml(params, noise), fresh_gp_lml(x, y, params, noise));
}

/// Runs @p fit with no pool, then on pools of 0, 1 and 3 workers: the
/// restarts run serially, in waves of 2 and in waves of 4.
void for_each_pool(
    const std::function<void(parallel::ThreadPool*)>& fit) {
  {
    SCOPED_TRACE("no pool");
    fit(nullptr);
  }
  for (const std::size_t workers : {0, 1, 3}) {
    SCOPED_TRACE("workers = " + std::to_string(workers));
    parallel::ThreadPool pool(workers);
    fit(&pool);
  }
}

/// The number of "gp.fit_restart" spans @p fit records: the restarts it
/// ran, discarded ones included.
std::size_t restart_spans(const std::function<void()>& fit) {
  obs::TraceConfig config;
  config.ring_kb = 1024;
  obs::tracer().start(config);
  fit();
  obs::tracer().stop();
  std::size_t spans = 0;
  for (const obs::TraceEventView& view : obs::tracer().snapshot()) {
    const char* name = view.event.name;
    if (name != nullptr && std::strcmp(name, "gp.fit_restart") == 0) ++spans;
  }
  obs::tracer().reset();
  return spans;
}

/// Asserts two fits agree bit for bit.
void expect_same_fit(const KernelFitResult& a, const KernelFitResult& b) {
  EXPECT_EQ(a.params.signal_variance, b.params.signal_variance);
  EXPECT_EQ(a.params.length_scales, b.params.length_scales);
  EXPECT_EQ(a.noise_variance, b.noise_variance);
  EXPECT_EQ(a.log_marginal_likelihood, b.log_marginal_likelihood);
  EXPECT_EQ(a.evaluations, b.evaluations);
}

TEST(KernelFit, RejectsBadDataset) {
  KernelParams p;
  GaussianProcess gp(Matern52Kernel(p), 1e-4);
  EXPECT_THROW((void)fit_kernel_by_ml(gp, Matrix(), Vector()),
               std::invalid_argument);
  EXPECT_THROW((void)fit_kernel_by_ml(gp, Matrix(3, 1), Vector(2)),
               std::invalid_argument);
}

TEST(KernelFit, ImprovesLmlOverInitialGuess) {
  stats::Rng rng(3);
  Matrix x(30, 1);
  Vector y(30);
  for (std::size_t i = 0; i < 30; ++i) {
    x(i, 0) = rng.uniform();
    y[i] = std::sin(8.0 * x(i, 0)) + rng.gaussian(0.0, 0.05);
  }
  KernelParams start;
  start.signal_variance = 0.01;  // deliberately bad guess
  start.length_scales = {5.0};
  GaussianProcess gp(Matern52Kernel(start), 0.5);
  gp.fit(x, y);
  const double lml_before = gp.log_marginal_likelihood();

  KernelFitOptions opt;
  opt.num_restarts = 2;
  opt.iterations_per_restart = 25;
  const KernelFitResult result = fit_kernel_by_ml(gp, x, y, opt);
  EXPECT_GT(result.log_marginal_likelihood, lml_before);
  EXPECT_GT(result.evaluations, 0);
  // The GP ends up fitted with the chosen hyper-parameters.
  EXPECT_TRUE(gp.fitted());
  EXPECT_NEAR(gp.kernel().params().signal_variance,
              result.params.signal_variance, 1e-12);
}

TEST(KernelFit, RecoversSensibleLengthScaleOnSmoothData) {
  // Smooth slow function: fitted length scale should not be tiny.
  Matrix x(20, 1);
  Vector y(20);
  for (std::size_t i = 0; i < 20; ++i) {
    x(i, 0) = static_cast<double>(i) / 19.0;
    y[i] = x(i, 0);  // linear, very smooth
  }
  KernelParams start;
  start.length_scales = {0.01};
  GaussianProcess gp(Matern52Kernel(start), 1e-4);
  KernelFitOptions opt;
  opt.num_restarts = 2;
  const KernelFitResult result = fit_kernel_by_ml(gp, x, y, opt);
  EXPECT_GT(result.params.length_scales[0], 0.05);
}

TEST(KernelFit, ExpandsIsotropicStartToArd) {
  Matrix x(15, 3);
  Vector y(15);
  stats::Rng rng(7);
  for (std::size_t i = 0; i < 15; ++i) {
    for (std::size_t d = 0; d < 3; ++d) x(i, d) = rng.uniform();
    y[i] = x(i, 0);
  }
  KernelParams start;  // single isotropic length scale
  GaussianProcess gp(Matern52Kernel(start), 1e-4);
  const KernelFitResult result = fit_kernel_by_ml(gp, x, y);
  EXPECT_EQ(result.params.length_scales.size(), 3u);
}

TEST(KernelFit, FitNoiseRespectsFloor) {
  Matrix x(10, 1);
  Vector y(10);
  for (std::size_t i = 0; i < 10; ++i) {
    x(i, 0) = static_cast<double>(i) / 9.0;
    y[i] = 2.0 * x(i, 0);
  }
  KernelParams start;
  GaussianProcess gp(Matern52Kernel(start), 1.0);
  KernelFitOptions opt;
  opt.min_noise_variance = 1e-6;
  const KernelFitResult result = fit_kernel_by_ml(gp, x, y, opt);
  EXPECT_GE(result.noise_variance, opt.min_noise_variance);
  // Noiseless data: fitted noise should shrink well below the start value.
  EXPECT_LT(result.noise_variance, 1.0);
}

TEST(KernelFit, DeterministicForSeed) {
  Matrix x(12, 1);
  Vector y(12);
  for (std::size_t i = 0; i < 12; ++i) {
    x(i, 0) = static_cast<double>(i) / 11.0;
    y[i] = std::cos(3.0 * x(i, 0));
  }
  KernelParams start;
  GaussianProcess gp1(Matern52Kernel(start), 1e-3);
  KernelFitOptions opt;
  opt.seed = 99;
  const auto r1 = fit_kernel_by_ml(gp1, x, y, opt);
  // Restart 0 stops early here, so a wave of more than one restart
  // discards the restarts after it and reruns them: the pooled fits take
  // the mispredicted-wave path and must still match the serial one.
  for_each_pool([&](parallel::ThreadPool* pool) {
    GaussianProcess gp2(Matern52Kernel(start), 1e-3);
    expect_same_fit(fit_kernel_by_ml(gp2, x, y, opt, pool), r1);
  });
  parallel::ThreadPool pool(3);
  const std::size_t ran = restart_spans([&] {
    GaussianProcess gp2(Matern52Kernel(start), 1e-3);
    (void)fit_kernel_by_ml(gp2, x, y, opt, &pool);
  });
  EXPECT_GT(ran, static_cast<std::size_t>(opt.num_restarts + 1));
}

TEST(KernelFit, RejectsBadOptions) {
  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  struct Case {
    const char* name;
    double min_noise_variance;
    int num_restarts;
    int iterations_per_restart;
  };
  const Case cases[] = {
      {"negative noise floor", -1e-6, 4, 40},
      {"NaN noise floor", nan, 4, 40},
      {"infinite noise floor", inf, 4, 40},
      // A negative count used to skip the search, the incumbent's own
      // coordinate descent included, and return the start point.
      {"negative restart count", 1e-8, -1, 40},
      {"negative iteration count", 1e-8, 4, -1},
  };
  Matrix x;
  Vector y;
  seeded_dataset(6, 2, 5, x, y);
  for (const Case& c : cases) {
    SCOPED_TRACE(c.name);
    KernelFitOptions options;
    options.min_noise_variance = c.min_noise_variance;
    options.num_restarts = c.num_restarts;
    options.iterations_per_restart = c.iterations_per_restart;
    EXPECT_THROW(options.validate(), std::invalid_argument);
    GaussianProcess gp(Matern52Kernel(KernelParams{}), 1e-4);
    EXPECT_THROW((void)fit_kernel_by_ml(gp, x, y, options),
                 std::invalid_argument);
  }
  // The defaults, a zero noise floor and zero counts are valid.
  KernelFitOptions options;
  EXPECT_NO_THROW(options.validate());
  options.min_noise_variance = 0.0;
  options.num_restarts = 0;
  options.iterations_per_restart = 0;
  EXPECT_NO_THROW(options.validate());
}

TEST(KernelFit, RejectsMismatchedLengthScaleCount) {
  Matrix x;
  Vector y;
  seeded_dataset(5, 3, 6, x, y);
  KernelParams start;
  start.length_scales = {0.5, 0.5};  // neither 1 nor 3
  GaussianProcess gp(Matern52Kernel(start), 1e-4);
  EXPECT_THROW((void)fit_kernel_by_ml(gp, x, y), std::invalid_argument);
  LmlEvaluator evaluator(x, y);
  EXPECT_THROW((void)evaluator.lml(start, 1e-4), std::invalid_argument);
}

TEST(LmlEvaluator, RejectsBadDataset) {
  EXPECT_THROW((void)LmlEvaluator(Matrix(), Vector()), std::invalid_argument);
  EXPECT_THROW((void)LmlEvaluator(Matrix(3, 1), Vector(2)),
               std::invalid_argument);
}

TEST(LmlEvaluator, MatchesFreshGpPathOneCoordinateAtATime) {
  for (const std::size_t dim : {std::size_t{1}, std::size_t{13}}) {
    for (const std::size_t n : {1, 2, 3, 13, 52}) {
      SCOPED_TRACE("n = " + std::to_string(n) +
                   ", D = " + std::to_string(dim));
      Matrix x;
      Vector y;
      seeded_dataset(n, dim, 100 + n + dim, x, y);
      LmlEvaluator evaluator(x, y);
      KernelParams params;
      params.signal_variance = 0.8;
      params.length_scales.assign(dim, 0.4);
      double noise = 1e-3;
      expect_same_lml(evaluator, x, y, params, noise);
      // Each coordinate moves up, down and back, and repeats a value, as
      // the coordinate search moves it: the signal variance, every length
      // scale, then the noise.
      const std::vector<double> steps = {1.7, 1.0 / 1.7, 1.0, 1.0 / 1.3};
      for (const double step : steps) {
        params.signal_variance *= step;
        expect_same_lml(evaluator, x, y, params, noise);
      }
      for (std::size_t d = 0; d < dim; ++d) {
        for (const double step : steps) {
          params.length_scales[d] *= step;
          expect_same_lml(evaluator, x, y, params, noise);
        }
      }
      for (const double step : steps) {
        noise *= step;
        expect_same_lml(evaluator, x, y, params, noise);
      }
      // Then a full random change, and the isotropic broadcast form.
      stats::Rng rng(n * 31 + dim);
      params.signal_variance = std::exp(rng.uniform(-3.0, 3.0));
      for (double& l : params.length_scales) {
        l = std::exp(rng.uniform(-3.0, 3.0));
      }
      noise = std::exp(rng.uniform(-9.0, 0.0));
      expect_same_lml(evaluator, x, y, params, noise);
      const KernelParams isotropic{params.signal_variance, {0.25}};
      expect_same_lml(evaluator, x, y, isotropic, noise);
      expect_same_lml(evaluator, x, y, params, noise);
    }
  }
}

TEST(LmlEvaluator, DuplicatedRowsTakeTheJitterPath) {
  Matrix x;
  Vector y;
  seeded_dataset(8, 3, 17, x, y);
  for (std::size_t d = 0; d < 3; ++d) {
    x(1, d) = x(0, d);
    x(5, d) = x(2, d);
  }
  KernelParams params;  // signal variance 1: the second pivot is exactly 0
  params.length_scales = {0.7, 0.2, 1.5};
  // Without noise the Gram is singular: the plain factorization fails, and
  // the reference GP only fits through with_jitter()'s retry.
  const Matrix gram = kernel_matrix(Matern52Kernel(params), x);
  Matrix plain = gram;
  ASSERT_FALSE(linalg::Cholesky::factorize(plain));
  const auto jittered = linalg::Cholesky::with_jitter(gram);
  ASSERT_TRUE(jittered.has_value());
  ASSERT_GT(jittered->jitter_used(), 0.0);
  LmlEvaluator evaluator(x, y);
  expect_same_lml(evaluator, x, y, params, 0.0);
  EXPECT_TRUE(std::isfinite(evaluator.lml(params, 0.0)));
  params.length_scales[1] = 0.3;
  expect_same_lml(evaluator, x, y, params, 0.0);
  expect_same_lml(evaluator, x, y, params, 1e-6);
}

TEST(LmlEvaluator, UnfactorableGramScoresMinusInfinity) {
  // A NaN input coordinate makes Gram entries NaN, which no jitter can
  // factor: both paths score -inf.
  Matrix x;
  Vector y;
  seeded_dataset(6, 2, 23, x, y);
  x(3, 1) = std::numeric_limits<double>::quiet_NaN();
  KernelParams params;
  params.length_scales = {0.5, 0.5};
  LmlEvaluator evaluator(x, y);
  EXPECT_EQ(evaluator.lml(params, 1e-4), kMinusInf);
  EXPECT_EQ(fresh_gp_lml(x, y, params, 1e-4), kMinusInf);
}

TEST(LmlEvaluator, InvalidParametersScoreMinusInfinity) {
  Matrix x;
  Vector y;
  seeded_dataset(5, 2, 29, x, y);
  LmlEvaluator evaluator(x, y);
  const double inf = std::numeric_limits<double>::infinity();
  const std::vector<std::pair<KernelParams, double>> cases = {
      {KernelParams{0.0, {0.5}}, 1e-4},
      {KernelParams{-1.0, {0.5}}, 1e-4},
      {KernelParams{inf, {0.5}}, 1e-4},
      {KernelParams{1.0, {0.5, 0.0}}, 1e-4},
      {KernelParams{1.0, {inf, 0.5}}, 1e-4},
      {KernelParams{1.0, {0.5}}, -1e-4},
  };
  for (const auto& [params, noise] : cases) {
    EXPECT_EQ(evaluator.lml(params, noise), kMinusInf);
    EXPECT_EQ(fresh_gp_lml(x, y, params, noise), kMinusInf);
  }
  // A valid setting still matches after the rejected ones.
  expect_same_lml(evaluator, x, y, KernelParams{1.0, {0.5, 0.9}}, 1e-4);
}

TEST(KernelFit, PinnedResultOnSeeded13DimensionalData) {
  // Captured from the fresh-GP-per-evaluation fit, before LmlEvaluator:
  // every parameter, the noise, the LML and the evaluation count.
  struct Pinned {
    std::size_t n;
    double signal_variance;
    std::vector<double> length_scales;
    double noise_variance;
    double lml;
    int evaluations;
  };
  const std::vector<Pinned> pinned = {
      {2,
       0x1.d76aa7f199b1cp-5,
       {0x1.e51bf0b4a7b85p-1, 0x1.25a90105e9b18p+0, 0x1.a1de215e47d5p+1,
        0x1.1f79fa72ed628p-5, 0x1.ac4f393cf2a5dp+3, 0x1.6148992584bf9p-4,
        0x1.842393f82ec2p+1, 0x1.c5608e78a47f8p+3, 0x1.3c6f2d5628514p-6,
        0x1.bc19e40c2c2e9p+3, 0x1.7e5cde85f2bdap+1, 0x1.7fba9c9dd0063p-2,
        0x1.100ef86a2ac67p+1},
       0x1.f95e477fb14aap-6,
       -0x1.a470fb5d5769p-2,
       1787},
      {40,
       0x1.78b56362cef38p-2,
       {0x1.a18730d4b9c17p-1, 0x1.583197ac61fe7p+0, 0x1.81a46e5b93ad3p+2,
        0x1.583197ac61fe7p+0, 0x1.a18730d4b9c17p-1, 0x1.a18730d4b9c17p-1,
        0x1.a18730d4b9c17p-1, 0x1.1bbd6087fb834p+1, 0x1.1bbd6087fb834p+1,
        0x1.583197ac61fe7p+0, 0x1.fa7cb77573b2p-2, 0x1.fa7cb77573b2p-2,
        0x1.fa7cb77573b2p-2},
       0x1.44e51f113d4d6p-9,
       -0x1.3e0bb9171d546p+4,
       233},
  };
  // Every restart of these fits runs all 40 iterations, so each wave keeps
  // all its restarts. The pooled fits must reproduce the pinned values.
  for (const Pinned& p : pinned) {
    SCOPED_TRACE("n = " + std::to_string(p.n));
    Matrix x;
    Vector y;
    seeded_dataset(p.n, 13, 2018 + p.n, x, y);
    KernelParams start;
    start.length_scales.assign(13, 0.3);
    KernelFitOptions options;
    options.min_noise_variance = 1e-4;
    for_each_pool([&](parallel::ThreadPool* pool) {
      GaussianProcess gp(Matern52Kernel(start), 1e-4);
      const KernelFitResult result =
          fit_kernel_by_ml(gp, x, y, options, pool);
      EXPECT_EQ(result.params.signal_variance, p.signal_variance);
      EXPECT_EQ(result.params.length_scales, p.length_scales);
      EXPECT_EQ(result.noise_variance, p.noise_variance);
      EXPECT_EQ(result.log_marginal_likelihood, p.lml);
      EXPECT_EQ(result.evaluations, p.evaluations);
      // The installed GP reports the same likelihood.
      EXPECT_EQ(gp.log_marginal_likelihood(), p.lml);
    });
    parallel::ThreadPool pool(3);
    const std::size_t ran = restart_spans([&] {
      GaussianProcess gp(Matern52Kernel(start), 1e-4);
      (void)fit_kernel_by_ml(gp, x, y, options, &pool);
    });
    EXPECT_EQ(ran, static_cast<std::size_t>(options.num_restarts + 1));
  }
}

}  // namespace
}  // namespace hp::gp
