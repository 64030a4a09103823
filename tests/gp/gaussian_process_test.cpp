#include "gp/gaussian_process.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "stats/rng.hpp"

namespace hp::gp {
namespace {

using linalg::Matrix;
using linalg::Vector;

GaussianProcess make_gp(double noise = 1e-8) {
  KernelParams p;
  p.signal_variance = 1.0;
  p.length_scales = {0.4};
  Matern52Kernel k(p);
  return GaussianProcess(k, noise);
}

Matrix column(std::initializer_list<double> xs) {
  Matrix m(xs.size(), 1);
  std::size_t i = 0;
  for (double x : xs) m(i++, 0) = x;
  return m;
}

TEST(GaussianProcess, RejectsNegativeNoise) {
  KernelParams p;
  Matern52Kernel k(p);
  EXPECT_THROW(GaussianProcess(k, -1.0), std::invalid_argument);
}

TEST(GaussianProcess, PredictBeforeFitThrows) {
  auto gp = make_gp();
  EXPECT_FALSE(gp.fitted());
  EXPECT_THROW((void)gp.predict(Vector{0.0}), std::logic_error);
  EXPECT_THROW((void)gp.log_marginal_likelihood(), std::logic_error);
}

TEST(GaussianProcess, FitValidatesShapes) {
  auto gp = make_gp();
  EXPECT_THROW(gp.fit(Matrix(), Vector()), std::invalid_argument);
  EXPECT_THROW(gp.fit(Matrix(3, 1), Vector(2)), std::invalid_argument);
}

TEST(GaussianProcess, InterpolatesTrainingDataWithLowNoise) {
  auto gp = make_gp(1e-10);
  const Matrix x = column({0.0, 0.3, 0.7, 1.0});
  const Vector y{0.0, 0.5, -0.2, 0.3};
  gp.fit(x, y);
  for (std::size_t i = 0; i < 4; ++i) {
    const Prediction p = gp.predict(x.row(i));
    EXPECT_NEAR(p.mean, y[i], 1e-4) << "i=" << i;
    EXPECT_LT(p.stddev(), 1e-2);
  }
}

TEST(GaussianProcess, UncertaintyGrowsAwayFromData) {
  auto gp = make_gp(1e-6);
  gp.fit(column({0.4, 0.5, 0.6}), Vector{0.1, 0.2, 0.1});
  const double var_near = gp.predict(Vector{0.5}).variance;
  const double var_far = gp.predict(Vector{3.0}).variance;
  EXPECT_LT(var_near, var_far);
  // Far from data, the posterior reverts to the prior variance.
  EXPECT_NEAR(var_far, 1.0, 1e-3);
}

TEST(GaussianProcess, MeanRevertsToTargetMeanFarAway) {
  auto gp = make_gp(1e-6);
  gp.fit(column({0.0, 0.2}), Vector{4.0, 6.0});
  const Prediction far = gp.predict(Vector{50.0});
  EXPECT_NEAR(far.mean, 5.0, 1e-6);  // constant-mean function = target mean
  EXPECT_DOUBLE_EQ(gp.target_mean(), 5.0);
}

TEST(GaussianProcess, PredictionVarianceNeverNegative) {
  auto gp = make_gp(1e-9);
  stats::Rng rng(5);
  Matrix x(20, 1);
  Vector y(20);
  for (std::size_t i = 0; i < 20; ++i) {
    x(i, 0) = rng.uniform();
    y[i] = std::sin(6.0 * x(i, 0));
  }
  gp.fit(x, y);
  for (double q = -0.5; q <= 1.5; q += 0.05) {
    EXPECT_GE(gp.predict(Vector{q}).variance, 0.0);
  }
}

TEST(GaussianProcess, ObservationVarianceAddsNoise) {
  Prediction p;
  p.variance = 0.5;
  EXPECT_DOUBLE_EQ(p.observation_variance(0.25), 0.75);
}

TEST(GaussianProcess, LogMarginalLikelihoodPrefersTrueScale) {
  // Data generated with length scale 0.4; a GP with wildly wrong length
  // scale should have lower LML.
  stats::Rng rng(9);
  Matrix x(25, 1);
  Vector y(25);
  for (std::size_t i = 0; i < 25; ++i) {
    x(i, 0) = rng.uniform();
    y[i] = std::sin(4.0 * x(i, 0));
  }
  KernelParams good;
  good.length_scales = {0.4};
  KernelParams bad;
  bad.length_scales = {0.001};
  GaussianProcess gp_good(Matern52Kernel(good), 1e-4);
  GaussianProcess gp_bad(Matern52Kernel(bad), 1e-4);
  gp_good.fit(x, y);
  gp_bad.fit(x, y);
  EXPECT_GT(gp_good.log_marginal_likelihood(),
            gp_bad.log_marginal_likelihood());
}

TEST(GaussianProcess, HigherNoiseWidensPredictiveBand) {
  const Matrix x = column({0.0, 0.5, 1.0});
  const Vector y{0.0, 1.0, 0.0};
  auto low = make_gp(1e-8);
  auto high = make_gp(0.5);
  low.fit(x, y);
  high.fit(x, y);
  EXPECT_LT(low.predict(Vector{0.5}).variance,
            high.predict(Vector{0.5}).variance);
}

TEST(GaussianProcess, SetKernelRefits) {
  auto gp = make_gp(1e-6);
  gp.fit(column({0.0, 1.0}), Vector{0.0, 1.0});
  const double before = gp.predict(Vector{0.5}).mean;
  KernelParams wide;
  wide.length_scales = {10.0};
  gp.set_kernel(Matern52Kernel(wide));
  EXPECT_TRUE(gp.fitted());
  const double after = gp.predict(Vector{0.5}).mean;
  EXPECT_NE(before, after);
}

TEST(GaussianProcess, SetNoiseVarianceValidatesAndRefits) {
  auto gp = make_gp(1e-6);
  gp.fit(column({0.0, 1.0}), Vector{0.0, 1.0});
  EXPECT_THROW(gp.set_noise_variance(-0.1), std::invalid_argument);
  gp.set_noise_variance(0.3);
  EXPECT_DOUBLE_EQ(gp.noise_variance(), 0.3);
  EXPECT_TRUE(gp.fitted());
}

TEST(GaussianProcess, NumObservations) {
  auto gp = make_gp();
  EXPECT_EQ(gp.num_observations(), 0u);
  gp.fit(column({0.0, 0.5, 1.0}), Vector{1.0, 2.0, 3.0});
  EXPECT_EQ(gp.num_observations(), 3u);
}

TEST(GaussianProcess, MultiDimensionalInputs) {
  KernelParams p;
  p.length_scales = {0.3, 0.3, 0.3};
  GaussianProcess gp(Matern52Kernel(p), 1e-8);
  stats::Rng rng(13);
  Matrix x(15, 3);
  Vector y(15);
  for (std::size_t i = 0; i < 15; ++i) {
    for (std::size_t d = 0; d < 3; ++d) x(i, d) = rng.uniform();
    y[i] = x(i, 0) + 2.0 * x(i, 1) - x(i, 2);
  }
  gp.fit(x, y);
  const Prediction pred = gp.predict(x.row(7));
  EXPECT_NEAR(pred.mean, y[7], 1e-3);
}

// ---------------------------------------------------------------------------
// Incremental refit paths (DESIGN.md par.13): the fast paths must be
// bit-identical to fitting from scratch, and last_refit_kind() must report
// which path actually ran.
// ---------------------------------------------------------------------------

/// Random dataset on the unit cube: @p n rows of dimension @p d.
void random_dataset(std::size_t n, std::size_t d, std::uint64_t seed,
                    Matrix& x, Vector& y) {
  stats::Rng rng(seed);
  x = Matrix(n, d);
  y = Vector(n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t c = 0; c < d; ++c) x(i, c) = rng.uniform();
    y[i] = std::sin(3.0 * x(i, 0)) + 0.1 * static_cast<double>(i % 5);
  }
}

GaussianProcess make_gp2d(double noise = 1e-4) {
  KernelParams p;
  p.length_scales = {0.3, 0.3};
  return GaussianProcess(Matern52Kernel(p), noise);
}

/// Asserts identical posterior state via bitwise-equal predictions at a
/// probe grid plus the log marginal likelihood.
void expect_same_posterior(const GaussianProcess& a, const GaussianProcess& b) {
  EXPECT_EQ(a.log_marginal_likelihood(), b.log_marginal_likelihood());
  EXPECT_EQ(a.target_mean(), b.target_mean());
  for (double u : {0.0, 0.21, 0.5, 0.77, 1.0}) {
    const Vector probe{u, 1.0 - u};
    const Prediction pa = a.predict(probe);
    const Prediction pb = b.predict(probe);
    EXPECT_EQ(pa.mean, pb.mean) << "probe " << u;
    EXPECT_EQ(pa.variance, pb.variance) << "probe " << u;
  }
}

TEST(GaussianProcessIncremental, ExtensionMatchesFullRefitBitwise) {
  Matrix x;
  Vector y;
  random_dataset(30, 2, 71, x, y);
  auto incremental = make_gp2d();
  Matrix x_head(20, 2);
  Vector y_head(20);
  for (std::size_t i = 0; i < 20; ++i) {
    x_head(i, 0) = x(i, 0);
    x_head(i, 1) = x(i, 1);
    y_head[i] = y[i];
  }
  incremental.fit(x_head, y_head);
  EXPECT_EQ(incremental.last_refit_kind(), RefitKind::kFull);
  // Appending rows takes the O(n^2) bordered path...
  incremental.fit(x, y);
  EXPECT_EQ(incremental.last_refit_kind(), RefitKind::kExtended);
  // ...and agrees with a from-scratch fit bit-for-bit.
  auto fresh = make_gp2d();
  fresh.fit(x, y);
  EXPECT_EQ(fresh.last_refit_kind(), RefitKind::kFull);
  expect_same_posterior(incremental, fresh);
}

TEST(GaussianProcessIncremental, SingleRowExtensionPerRound) {
  Matrix x;
  Vector y;
  random_dataset(25, 2, 5, x, y);
  auto incremental = make_gp2d();
  auto fresh = make_gp2d();
  for (std::size_t n = 1; n <= 25; ++n) {
    Matrix xn(n, 2);
    Vector yn(n);
    for (std::size_t i = 0; i < n; ++i) {
      xn(i, 0) = x(i, 0);
      xn(i, 1) = x(i, 1);
      yn[i] = y[i];
    }
    incremental.fit(xn, yn);
    EXPECT_EQ(incremental.last_refit_kind(),
              n == 1 ? RefitKind::kFull : RefitKind::kExtended);
    if (n == 25) {
      fresh.fit(xn, yn);
      expect_same_posterior(incremental, fresh);
    }
  }
}

TEST(GaussianProcessIncremental, TruncationMatchesFullRefitBitwise) {
  Matrix x;
  Vector y;
  random_dataset(24, 2, 72, x, y);
  auto incremental = make_gp2d();
  incremental.fit(x, y);
  // Shrink to the leading 18 rows: the constant-liar pop path.
  Matrix x_head(18, 2);
  Vector y_head(18);
  for (std::size_t i = 0; i < 18; ++i) {
    x_head(i, 0) = x(i, 0);
    x_head(i, 1) = x(i, 1);
    y_head[i] = y[i];
  }
  incremental.fit(x_head, y_head);
  EXPECT_EQ(incremental.last_refit_kind(), RefitKind::kTruncated);
  auto fresh = make_gp2d();
  fresh.fit(std::move(x_head), std::move(y_head));
  expect_same_posterior(incremental, fresh);
}

TEST(GaussianProcessIncremental, SameInputsReuseFactorNewTargets) {
  Matrix x;
  Vector y;
  random_dataset(16, 2, 73, x, y);
  auto incremental = make_gp2d();
  incremental.fit(x, y);
  Vector y2 = y;
  for (std::size_t i = 0; i < y2.size(); ++i) y2[i] += 0.25;
  incremental.fit(x, y2);
  EXPECT_EQ(incremental.last_refit_kind(), RefitKind::kReused);
  auto fresh = make_gp2d();
  fresh.fit(std::move(x), std::move(y2));
  expect_same_posterior(incremental, fresh);
}

TEST(GaussianProcessIncremental, ChangedRowForcesFullRefit) {
  Matrix x;
  Vector y;
  random_dataset(12, 2, 74, x, y);
  auto gp = make_gp2d();
  gp.fit(x, y);
  Matrix x2 = x;
  x2(3, 1) += 1e-9;  // any bit difference in the prefix disables reuse
  gp.fit(std::move(x2), std::move(y));
  EXPECT_EQ(gp.last_refit_kind(), RefitKind::kFull);
}

TEST(GaussianProcessIncremental, KernelOrNoiseChangeInvalidatesCache) {
  Matrix x;
  Vector y;
  random_dataset(14, 2, 75, x, y);
  auto gp = make_gp2d();
  gp.fit(x, y);
  gp.fit(x, y);
  ASSERT_EQ(gp.last_refit_kind(), RefitKind::kReused);
  // The kernel-ML refit path replaces kernel + noise: both setters must
  // force a full factorization (the cached Gram is stale).
  KernelParams p;
  p.length_scales = {0.5, 0.5};
  gp.set_kernel(Matern52Kernel(p));
  EXPECT_EQ(gp.last_refit_kind(), RefitKind::kFull);
  gp.fit(x, y);
  EXPECT_EQ(gp.last_refit_kind(), RefitKind::kReused);
  gp.set_noise_variance(2e-4);
  EXPECT_EQ(gp.last_refit_kind(), RefitKind::kFull);
}

TEST(GaussianProcessIncremental, JitteredFactorDisablesIncrementalReuse) {
  // Duplicate rows with zero noise make the Gram singular, so the factor
  // carries jitter; a jittered factor has no bit-identical incremental
  // counterpart and appending must fall back to the full path.
  Matrix x(2, 2);
  x(0, 0) = x(1, 0) = 0.4;
  x(0, 1) = x(1, 1) = 0.6;
  Vector y{1.0, 1.0};
  auto gp = make_gp2d(0.0);
  gp.fit(x, y);
  ASSERT_EQ(gp.last_refit_kind(), RefitKind::kFull);
  Matrix x2(3, 2);
  x2(0, 0) = x2(1, 0) = 0.4;
  x2(0, 1) = x2(1, 1) = 0.6;
  x2(2, 0) = 0.1;
  x2(2, 1) = 0.9;
  gp.fit(std::move(x2), Vector{1.0, 1.0, 2.0});
  EXPECT_EQ(gp.last_refit_kind(), RefitKind::kFull);
}

TEST(GaussianProcessIncremental, SpanPredictMatchesVectorPredict) {
  Matrix x;
  Vector y;
  random_dataset(20, 2, 76, x, y);
  auto gp = make_gp2d();
  gp.fit(std::move(x), std::move(y));
  PredictScratch scratch;  // reused across calls, as in block scoring
  for (double u : {0.0, 0.33, 0.66, 1.0}) {
    const Vector probe{u, u * 0.5};
    const Prediction want = gp.predict(probe);
    const Prediction got = gp.predict(probe.raw(), scratch);
    EXPECT_EQ(got.mean, want.mean);
    EXPECT_EQ(got.variance, want.variance);
  }
}

}  // namespace
}  // namespace hp::gp
