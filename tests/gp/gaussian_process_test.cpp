#include "gp/gaussian_process.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "core/contracts.hpp"
#include "linalg/cholesky.hpp"
#include "obs/metrics.hpp"
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

/// The leading @p n rows of @p x and entries of @p y.
Matrix head(const Matrix& x, std::size_t n) {
  Matrix out(n, x.cols());
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t c = 0; c < x.cols(); ++c) out(i, c) = x(i, c);
  }
  return out;
}
Vector head(const Vector& y, std::size_t n) {
  Vector out(n);
  for (std::size_t i = 0; i < n; ++i) out[i] = y[i];
  return out;
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

TEST(GaussianProcess, FailedFitLeavesNoStaleFactor) {
  // A NaN input row makes the kernel matrix unfactorable even with jitter,
  // so the second fit throws. It must not leave the first fit's factor and
  // alpha beside the new inputs, where a prediction would read them.
  Matrix x;
  Vector y;
  random_dataset(40, 2, 97, x, y);
  auto gp = make_gp2d();
  gp.fit(head(x, 3), head(y, 3));
  PredictionCache cache;
  const Vector probe{0.3, 0.6};
  const std::span<const double> query(probe.raw());
  const std::span<const std::span<const double>> queries(&query, 1);
  Prediction before;
  gp.predict_block(queries, cache, std::span<Prediction>(&before, 1));
  Matrix poisoned = x;
  poisoned(17, 0) = std::numeric_limits<double>::quiet_NaN();
  EXPECT_THROW(gp.fit(poisoned, y), core::ContractViolation);
  EXPECT_FALSE(gp.fitted());
  EXPECT_EQ(gp.last_refit_kind(), RefitKind::kNone);
  EXPECT_EQ(gp.num_observations(), 0u);
  EXPECT_THROW((void)gp.predict(probe), std::logic_error);
  // The next fit is a full one, equal to a fresh GP's, and the cache kept
  // from before the failure serves it bit for bit.
  gp.fit(head(x, 5), head(y, 5));
  EXPECT_EQ(gp.last_refit_kind(), RefitKind::kFull);
  auto fresh = make_gp2d();
  fresh.fit(head(x, 5), head(y, 5));
  expect_same_posterior(gp, fresh);
  Prediction after;
  gp.predict_block(queries, cache, std::span<Prediction>(&after, 1));
  const Prediction want = fresh.predict(probe);
  EXPECT_EQ(after.mean, want.mean);
  EXPECT_EQ(after.variance, want.variance);
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

// ---------------------------------------------------------------------------
// Block prediction: predict_block() must match, bit for bit, a reference
// assembled from public pieces — the Gram matrix, the jittered Cholesky
// factor and alpha, then per query the kernel, dot products and a forward
// substitution — whatever the block size and wherever the queries live.
// ---------------------------------------------------------------------------

/// One query at a time from public pieces, mirroring the GP's arithmetic.
struct ReferencePosterior {
  ReferencePosterior(const Matern52Kernel& kernel_in, double noise,
                     const Matrix& x_in, const Vector& y)
      : kernel(kernel_in), x(x_in) {
    Matrix gram = kernel_matrix(kernel, x);
    gram.add_to_diagonal(noise);
    chol = linalg::Cholesky::with_jitter(std::move(gram));
    y_mean = y.mean();
    Vector centered = y;
    for (std::size_t i = 0; i < centered.size(); ++i) centered[i] -= y_mean;
    alpha = chol->solve(centered);
  }

  [[nodiscard]] Prediction predict(const Vector& q) const {
    Vector k_star(x.rows());
    for (std::size_t i = 0; i < x.rows(); ++i) k_star[i] = kernel(x.row(i), q);
    Prediction p;
    p.mean = y_mean + linalg::dot(k_star, alpha);
    const Vector v = chol->solve_lower(k_star);
    p.variance = std::max(0.0, kernel.diagonal_value() - linalg::dot(v, v));
    return p;
  }

  const Matern52Kernel& kernel;
  const Matrix& x;
  std::optional<linalg::Cholesky> chol;
  double y_mean = 0.0;
  Vector alpha;
};

/// Fits @p params to (x, y), then predicts gathered blocks of B queries
/// (every other point of a query pool, so the spans are not contiguous)
/// and compares each with the reference.
void expect_block_matches_reference(const KernelParams& params, double noise,
                                    const Matrix& x, const Vector& y,
                                    std::uint64_t seed) {
  const Matern52Kernel kernel(params);
  GaussianProcess gp(kernel, noise);
  gp.fit(x, y);
  const ReferencePosterior reference(kernel, noise, x, y);
  stats::Rng rng(seed);
  std::vector<Vector> pool(2 * 33, Vector(x.cols()));
  for (Vector& q : pool) {
    for (std::size_t d = 0; d < q.size(); ++d) q[d] = rng.uniform();
  }
  pool[1] = x.row(0);  // a training point: variance near zero
  PredictionCache cache;  // reused across blocks, as in block scoring
  for (std::size_t width :
       {std::size_t{1}, std::size_t{3}, std::size_t{32}, std::size_t{33}}) {
    std::vector<std::span<const double>> queries;
    for (std::size_t b = 0; b < width; ++b) {
      queries.emplace_back(pool[2 * b + 1].raw());
    }
    std::vector<Prediction> got(width);
    gp.predict_block(queries, cache, got);
    for (std::size_t b = 0; b < width; ++b) {
      const Prediction want = reference.predict(pool[2 * b + 1]);
      EXPECT_EQ(got[b].mean, want.mean)
          << "n " << x.rows() << " width " << width << " query " << b;
      EXPECT_EQ(got[b].variance, want.variance)
          << "n " << x.rows() << " width " << width << " query " << b;
      // A lone predict() takes the same arithmetic without a cache.
      const Prediction lone = gp.predict(pool[2 * b + 1]);
      EXPECT_EQ(lone.mean, want.mean) << "n " << x.rows() << " query " << b;
      EXPECT_EQ(lone.variance, want.variance)
          << "n " << x.rows() << " query " << b;
    }
  }
}

TEST(GaussianProcessBlock, PredictBlockMatchesPublicPieceReference) {
  KernelParams broadcast;
  broadcast.signal_variance = 1.7;
  broadcast.length_scales = {0.3};
  KernelParams ard;
  ard.signal_variance = 0.6;
  ard.length_scales = {0.2, 0.45, 0.9};
  const std::size_t sizes[] = {1, 2, 13, 51, 200};
  for (const std::size_t n : sizes) {
    Matrix x;
    Vector y;
    random_dataset(n, 3, 90 + n, x, y);
    SCOPED_TRACE("n " + std::to_string(n));
    expect_block_matches_reference(broadcast, 1e-4, x, y, 7 + n);
    expect_block_matches_reference(ard, 1e-3, x, y, 8 + n);
  }
  // A query of the wrong dimension is rejected, as a lone predict() is.
  Matrix x;
  Vector y;
  random_dataset(5, 3, 93, x, y);
  GaussianProcess gp(Matern52Kernel(ard), 1e-3);
  gp.fit(x, y);
  EXPECT_THROW((void)gp.predict(Vector{0.5, 0.5}), std::invalid_argument);
}

TEST(GaussianProcessBlock, PredictBlockMatchesReferenceWithJitteredFactor) {
  // Duplicate rows with zero noise: the Gram is singular and the factor
  // needs jitter, which the reference's with_jitter() reproduces.
  Matrix x;
  Vector y;
  random_dataset(7, 3, 91, x, y);
  Matrix doubled(14, 3);
  Vector y2(14);
  for (std::size_t i = 0; i < 14; ++i) {
    for (std::size_t d = 0; d < 3; ++d) doubled(i, d) = x(i % 7, d);
    y2[i] = y[i % 7];
  }
  KernelParams params;
  params.length_scales = {0.4};
  const Matern52Kernel kernel(params);
  const ReferencePosterior reference(kernel, 0.0, doubled, y2);
  ASSERT_GT(reference.chol->jitter_used(), 0.0);
  expect_block_matches_reference(params, 0.0, doubled, y2, 92);
}

// ---------------------------------------------------------------------------
// The prediction cache (DESIGN.md par.13): a PredictionCache kept across
// refits and query changes must never change a prediction, and it must
// actually keep the rows whose factor-row stamps still hold.
// ---------------------------------------------------------------------------

/// Unit-cube query points, @p count of dimension @p d.
std::vector<Vector> random_queries(std::size_t count, std::size_t d,
                                   std::uint64_t seed) {
  stats::Rng rng(seed);
  std::vector<Vector> pool(count, Vector(d));
  for (Vector& q : pool) {
    for (std::size_t c = 0; c < d; ++c) q[c] = rng.uniform();
  }
  return pool;
}

/// Spans over pool[first, first + width).
std::vector<std::span<const double>> spans_of(const std::vector<Vector>& pool,
                                              std::size_t first,
                                              std::size_t width) {
  std::vector<std::span<const double>> out;
  for (std::size_t b = 0; b < width; ++b) {
    out.emplace_back(pool[first + b].raw());
  }
  return out;
}

/// Predicts @p queries through @p cache and through a fresh cache, and
/// requires the two to agree bit for bit.
void expect_cache_matches_fresh(
    const GaussianProcess& gp, std::span<const std::span<const double>> queries,
    PredictionCache& cache, const std::string& step) {
  std::vector<Prediction> got(queries.size());
  std::vector<Prediction> want(queries.size());
  gp.predict_block(queries, cache, got);
  PredictionCache fresh;
  gp.predict_block(queries, fresh, want);
  for (std::size_t b = 0; b < queries.size(); ++b) {
    EXPECT_EQ(got[b].mean, want[b].mean) << step << ", query " << b;
    EXPECT_EQ(got[b].variance, want[b].variance) << step << ", query " << b;
  }
}

TEST(GaussianProcessBlock, PersistentCacheMatchesFreshCacheBitwise) {
  Matrix x;
  Vector y;
  random_dataset(30, 3, 94, x, y);
  const std::vector<Vector> pool = random_queries(40, 3, 95);
  // 19 queries: two eight-query lanes and three single ones.
  const std::vector<std::span<const double>> queries = spans_of(pool, 0, 19);
  KernelParams params;
  params.length_scales = {0.3, 0.5, 0.7};
  GaussianProcess gp(Matern52Kernel(params), 1e-4);
  PredictionCache cache;

  gp.fit(head(x, 20), head(y, 20));
  expect_cache_matches_fresh(gp, queries, cache, "full fit");
  expect_cache_matches_fresh(gp, queries, cache, "unchanged");
  gp.fit(head(x, 21), head(y, 21));
  ASSERT_EQ(gp.last_refit_kind(), RefitKind::kExtended);
  expect_cache_matches_fresh(gp, queries, cache, "extended by 1");
  gp.fit(head(x, 24), head(y, 24));
  ASSERT_EQ(gp.last_refit_kind(), RefitKind::kExtended);
  expect_cache_matches_fresh(gp, queries, cache, "extended by 3");
  gp.fit(head(x, 22), head(y, 22));
  ASSERT_EQ(gp.last_refit_kind(), RefitKind::kTruncated);
  expect_cache_matches_fresh(gp, queries, cache, "truncated");
  Vector shifted_y = head(y, 22);
  for (std::size_t i = 0; i < shifted_y.size(); ++i) shifted_y[i] += 0.25;
  gp.fit(head(x, 22), shifted_y);
  ASSERT_EQ(gp.last_refit_kind(), RefitKind::kReused);
  expect_cache_matches_fresh(gp, queries, cache, "reused");
  Matrix changed = head(x, 22);
  changed(5, 1) += 1e-9;
  gp.fit(changed, shifted_y);
  ASSERT_EQ(gp.last_refit_kind(), RefitKind::kFull);
  expect_cache_matches_fresh(gp, queries, cache, "changed row");

  // Same inputs and queries under another kernel: only the stamps tell the
  // cached rows apart.
  KernelParams other;
  other.signal_variance = 1.8;
  other.length_scales = {0.45};
  gp = GaussianProcess(Matern52Kernel(other), 1e-4);
  gp.fit(changed, shifted_y);
  expect_cache_matches_fresh(gp, queries, cache, "another kernel");

  // Duplicated rows with zero noise: the factor needs jitter, and a
  // jittered factor is always refit in full.
  Matrix doubled(14, 3);
  Vector doubled_y(14);
  for (std::size_t i = 0; i < 14; ++i) {
    for (std::size_t c = 0; c < 3; ++c) doubled(i, c) = x(i % 7, c);
    doubled_y[i] = y[i % 7];
  }
  ASSERT_GT(linalg::Cholesky::with_jitter(
                kernel_matrix(Matern52Kernel(other), doubled))
                ->jitter_used(),
            0.0);
  gp = GaussianProcess(Matern52Kernel(other), 0.0);
  gp.fit(doubled, doubled_y);
  expect_cache_matches_fresh(gp, queries, cache, "jittered factor");
  Matrix doubled_plus(15, 3);
  Vector doubled_plus_y(15);
  for (std::size_t i = 0; i < 15; ++i) {
    for (std::size_t c = 0; c < 3; ++c) {
      doubled_plus(i, c) = i < 14 ? doubled(i, c) : x(20, c);
    }
    doubled_plus_y[i] = i < 14 ? doubled_y[i] : y[20];
  }
  gp.fit(doubled_plus, doubled_plus_y);
  ASSERT_EQ(gp.last_refit_kind(), RefitKind::kFull);
  expect_cache_matches_fresh(gp, queries, cache, "jittered, one more row");

  // Changed queries: one coordinate of one query, then other widths, then
  // the original block again.
  Vector moved = pool[3];
  moved[1] += 1e-9;
  std::vector<std::span<const double>> moved_queries = queries;
  moved_queries[3] = moved.raw();
  expect_cache_matches_fresh(gp, moved_queries, cache, "one query moved");
  expect_cache_matches_fresh(gp, spans_of(pool, 0, 7), cache, "width 7");
  expect_cache_matches_fresh(gp, spans_of(pool, 5, 33), cache, "width 33");
  expect_cache_matches_fresh(gp, queries, cache, "original queries");
}

TEST(GaussianProcessBlock, CacheKeepsTheRowsARefitKeeps) {
  // A cache that always missed would pass every bitwise test above; the
  // gp.predict_rows/gp.predict_rows_reused counters show what it kept.
  Matrix x;
  Vector y;
  random_dataset(13, 3, 96, x, y);
  const std::vector<Vector> pool = random_queries(5, 3, 97);
  const std::vector<std::span<const double>> queries = spans_of(pool, 0, 5);
  KernelParams params;
  params.length_scales = {0.4};
  GaussianProcess gp(Matern52Kernel(params), 1e-4);
  PredictionCache cache;
  struct MetricsOn {
    MetricsOn() { obs::metrics().set_enabled(true); }
    ~MetricsOn() { obs::metrics().set_enabled(false); }
  } metrics_on;
  obs::Counter& rows = obs::metrics().counter("gp.predict_rows");
  obs::Counter& reused = obs::metrics().counter("gp.predict_rows_reused");
  struct Counts {
    std::uint64_t rows;
    std::uint64_t reused;
  };
  const auto predict_counting = [&] {
    const Counts before{rows.value(), reused.value()};
    std::vector<Prediction> out(queries.size());
    gp.predict_block(queries, cache, out);
    return Counts{rows.value() - before.rows, reused.value() - before.reused};
  };

  gp.fit(head(x, 12), head(y, 12));
  Counts c = predict_counting();
  EXPECT_EQ(c.rows, 12u);
  EXPECT_EQ(c.reused, 0u);
  c = predict_counting();
  EXPECT_EQ(c.reused, 12u);
  gp.fit(x, y);  // extension by one: n - 1 rows kept
  ASSERT_EQ(gp.last_refit_kind(), RefitKind::kExtended);
  c = predict_counting();
  EXPECT_EQ(c.rows, 13u);
  EXPECT_EQ(c.reused, 12u);
  gp.fit(head(x, 10), head(y, 10));  // truncation: every remaining row kept
  c = predict_counting();
  EXPECT_EQ(c.rows, 10u);
  EXPECT_EQ(c.reused, 10u);
  Vector shifted_y = head(y, 10);
  shifted_y[0] += 1.0;
  gp.fit(head(x, 10), shifted_y);  // reuse: new targets, same factor
  c = predict_counting();
  EXPECT_EQ(c.reused, 10u);
  Matrix changed = head(x, 10);
  changed(0, 0) += 1e-9;
  gp.fit(changed, shifted_y);  // full refit: nothing kept
  c = predict_counting();
  EXPECT_EQ(c.reused, 0u);
}

}  // namespace
}  // namespace hp::gp
