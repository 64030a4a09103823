#include "gp/gaussian_process.hpp"

#include <algorithm>
#include <cmath>
#include <numbers>
#include <stdexcept>
#include <utility>

#include "core/contracts.hpp"
#include "obs/obs.hpp"

namespace hp::gp {

namespace {

/// Refit instruments, fetched once per process (registry-stable refs).
struct GpMetrics {
  obs::Counter& refits;
  obs::Counter& refits_incremental;
  obs::Histogram& refit_n;
  obs::Histogram& cholesky_s;

  static GpMetrics& get() {
    static GpMetrics m{
        obs::metrics().counter("gp.refits"),
        obs::metrics().counter("gp.refits_incremental"),
        obs::metrics().histogram("gp.refit_observations",
                                 obs::exponential_buckets(1.0, 2.0, 12)),
        obs::metrics().histogram("gp.cholesky_s"),
    };
    return m;
  }
};

}  // namespace

double Prediction::stddev() const noexcept {
  return variance > 0.0 ? std::sqrt(variance) : 0.0;
}

double Prediction::observation_variance(double noise_variance) const noexcept {
  return variance + noise_variance;
}

GaussianProcess::GaussianProcess(const Kernel& kernel, double noise_variance)
    : kernel_(kernel.clone()), noise_variance_(noise_variance) {
  if (noise_variance < 0.0) {
    throw std::invalid_argument("GaussianProcess: negative noise variance");
  }
}

void GaussianProcess::fit(linalg::Matrix x, linalg::Vector y) {
  if (x.rows() == 0) {
    throw std::invalid_argument("GaussianProcess::fit: empty dataset");
  }
  if (x.rows() != y.size()) {
    throw std::invalid_argument("GaussianProcess::fit: rows(X) != size(y)");
  }
  // A NaN/Inf target silently poisons alpha and every later acquisition
  // value; fail at the ingestion point instead.
  HP_CHECK_ALL_FINITE(y, "GaussianProcess::fit targets y");
  const RefitKind kind = classify_refit(x);
  x_ = std::move(x);
  y_ = std::move(y);
  refit(kind);
}

RefitKind GaussianProcess::classify_refit(const linalg::Matrix& x) const {
  // The incremental paths reuse the cached factor verbatim, which is only
  // the factor of the new (sub)matrix when it was obtained without jitter:
  // with_jitter() retries from zero on every call, so a jittered factor has
  // no incremental counterpart that matches bit-for-bit.
  if (!cache_valid_ || !chol_.has_value() || chol_->jitter_used() != 0.0) {
    return RefitKind::kFull;
  }
  if (x_.rows() == 0 || x.cols() != x_.cols()) return RefitKind::kFull;
  const std::size_t shared = std::min(x.rows(), x_.rows());
  // Bitwise prefix comparison over the row-major storage. operator== is the
  // right notion here: numerically equal coordinates (including 0.0 vs -0.0)
  // yield identical kernel values, and NaNs compare unequal, falling back to
  // the full path.
  const auto& a = x.raw();
  const auto& b = x_.raw();
  if (!std::equal(a.begin(),
                  a.begin() + static_cast<std::ptrdiff_t>(shared * x.cols()),
                  b.begin())) {
    return RefitKind::kFull;
  }
  if (x.rows() == x_.rows()) return RefitKind::kReused;
  return x.rows() > x_.rows() ? RefitKind::kExtended : RefitKind::kTruncated;
}

void GaussianProcess::refit(RefitKind kind) {
  if (obs::metrics().enabled()) {
    GpMetrics::get().refits.add(1);
    if (kind != RefitKind::kFull) GpMetrics::get().refits_incremental.add(1);
    GpMetrics::get().refit_n.observe(static_cast<double>(x_.rows()));
  }
  if (obs::logger().enabled(obs::LogLevel::kTrace)) {
    obs::logger().trace("gp.refit",
                        {{"n", obs::JsonValue(x_.rows())},
                         {"noise", obs::JsonValue(noise_variance_)},
                         {"kind", obs::JsonValue(refit_kind_name(kind))}});
  }
  cache_valid_ = false;
  y_mean_ = y_.mean();
  switch (kind) {
    case RefitKind::kReused:
      break;  // factor already matches x_; only alpha depends on y
    case RefitKind::kExtended:
      if (!try_extend_factor()) {
        kind = RefitKind::kFull;
        refit_full();
      }
      break;
    case RefitKind::kTruncated:
      shrink_factor();
      break;
    default:
      kind = RefitKind::kFull;
      refit_full();
      break;
  }
  last_refit_kind_ = kind;
  cache_valid_ = true;
  linalg::Vector centered = y_;
  for (std::size_t i = 0; i < centered.size(); ++i) centered[i] -= y_mean_;
  alpha_ = chol_->solve(centered);
}

void GaussianProcess::refit_full() {
  k_ = kernel_matrix(*kernel_, x_);
  linalg::Matrix noisy = k_;
  noisy.add_to_diagonal(noise_variance_);
  obs::ScopedTimer chol_timer("gp.cholesky", &GpMetrics::get().cholesky_s);
  auto chol = linalg::Cholesky::with_jitter(std::move(noisy));
  chol_timer.stop();
  // HP_ENFORCE (never compiled out): proceeding without a factor would
  // read an empty chol_ and emit garbage predictions, so even Release
  // builds must report the non-PSD covariance as a ContractViolation.
  HP_ENFORCE(chol.has_value(),
             "GaussianProcess: kernel matrix not positive definite even "
             "with jitter");
  chol_ = std::move(*chol);
}

bool GaussianProcess::try_extend_factor() {
  const std::size_t old_n = k_.rows();
  const std::size_t new_n = x_.rows();
  HP_ASSERT(new_n > old_n && old_n > 0,
            "try_extend_factor: classify_refit guarantees strict growth");
  // Grow the cached noise-free Gram: only the new rows/columns are kernel
  // evaluations, the old block is a copy. The (row j, row i) argument order
  // for j < i matches kernel_matrix() exactly.
  linalg::Matrix grown(new_n, new_n);
  for (std::size_t r = 0; r < old_n; ++r) {
    for (std::size_t c = 0; c < old_n; ++c) grown(r, c) = k_(r, c);
  }
  for (std::size_t i = old_n; i < new_n; ++i) {
    const std::span<const double> xi = x_.row_span(i);
    for (std::size_t j = 0; j < i; ++j) {
      const double v = kernel_->eval(x_.row_span(j), xi);
      grown(i, j) = v;
      grown(j, i) = v;
    }
    grown(i, i) = kernel_->diagonal_value();
  }
  // Border the factor one row at a time. The noisy diagonal entry is formed
  // exactly as add_to_diagonal() would: gram diagonal + noise, one addition.
  obs::ScopedTimer chol_timer("gp.cholesky", &GpMetrics::get().cholesky_s);
  linalg::Cholesky chol = *chol_;
  for (std::size_t i = old_n; i < new_n; ++i) {
    linalg::Vector row(i);
    for (std::size_t j = 0; j < i; ++j) row[j] = grown(i, j);
    auto next = chol.extended(row, grown(i, i) + noise_variance_);
    if (!next.has_value()) return false;
    chol = std::move(*next);
  }
  chol_ = std::move(chol);
  k_ = std::move(grown);
  return true;
}

void GaussianProcess::shrink_factor() {
  const std::size_t n = x_.rows();
  HP_ASSERT(n > 0 && n < k_.rows(),
            "shrink_factor: classify_refit guarantees strict shrinkage");
  chol_ = chol_->truncated(n);
  linalg::Matrix shrunk(n, n);
  for (std::size_t r = 0; r < n; ++r) {
    for (std::size_t c = 0; c < n; ++c) shrunk(r, c) = k_(r, c);
  }
  k_ = std::move(shrunk);
}

Prediction GaussianProcess::predict(const linalg::Vector& x_star) const {
  PredictScratch scratch;
  return predict(std::span<const double>(x_star.raw()), scratch);
}

Prediction GaussianProcess::predict(std::span<const double> x_star,
                                    PredictScratch& scratch) const {
  if (!fitted()) {
    throw std::logic_error("GaussianProcess::predict before fit");
  }
  const std::size_t n = x_.rows();
  scratch.k_star.resize(n);
  scratch.v.resize(n);
  const std::span<double> k_star(scratch.k_star);
  const std::span<double> v(scratch.v);
  kernel_cross_into(*kernel_, x_, x_star, k_star);
  Prediction p;
  p.mean = y_mean_ + linalg::dot(std::span<const double>(k_star),
                                 std::span<const double>(alpha_.raw()));
  // var = k(x*,x*) - v^T v with v = L^{-1} k_star.
  chol_->solve_lower_into(k_star, v);
  const double reduction = linalg::dot(std::span<const double>(v),
                                       std::span<const double>(v));
  p.variance = std::max(0.0, kernel_->diagonal_value() - reduction);
  HP_CHECK_FINITE(p.mean, "GaussianProcess::predict mean");
  HP_CHECK_FINITE(p.variance, "GaussianProcess::predict variance");
  return p;
}

double GaussianProcess::log_marginal_likelihood() const {
  if (!fitted()) {
    throw std::logic_error("GaussianProcess::log_marginal_likelihood before fit");
  }
  const auto n = static_cast<double>(y_.size());
  linalg::Vector centered = y_;
  for (std::size_t i = 0; i < centered.size(); ++i) centered[i] -= y_mean_;
  const double data_fit = -0.5 * linalg::dot(centered, alpha_);
  const double complexity = -0.5 * chol_->log_det();
  const double norm = -0.5 * n * std::log(2.0 * std::numbers::pi);
  return data_fit + complexity + norm;
}

std::size_t GaussianProcess::num_observations() const noexcept {
  return x_.rows();
}

void GaussianProcess::set_kernel(const Kernel& kernel) {
  kernel_ = kernel.clone();
  cache_valid_ = false;  // every cached Gram entry depends on the kernel
  if (x_.rows() > 0) refit(RefitKind::kFull);
}

void GaussianProcess::set_noise_variance(double noise_variance) {
  if (noise_variance < 0.0) {
    throw std::invalid_argument("GaussianProcess: negative noise variance");
  }
  noise_variance_ = noise_variance;
  cache_valid_ = false;  // the factor bakes in the old noisy diagonal
  if (x_.rows() > 0) refit(RefitKind::kFull);
}

}  // namespace hp::gp
