#include "gp/gaussian_process.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <numbers>
#include <stdexcept>
#include <utility>

#include "core/contracts.hpp"
#include "obs/obs.hpp"

namespace hp::gp {

namespace {

/// Refit and prediction instruments, fetched once per process
/// (registry-stable refs).
struct GpMetrics {
  obs::Counter& refits;
  obs::Counter& refits_incremental;
  obs::Histogram& refit_n;
  obs::Histogram& cholesky_s;
  obs::Counter& predict_rows;
  obs::Counter& predict_rows_reused;

  static GpMetrics& get() {
    static GpMetrics m{
        obs::metrics().counter("gp.refits"),
        obs::metrics().counter("gp.refits_incremental"),
        obs::metrics().histogram("gp.refit_observations",
                                 obs::exponential_buckets(1.0, 2.0, 12)),
        obs::metrics().histogram("gp.cholesky_s"),
        obs::metrics().counter("gp.predict_rows"),
        obs::metrics().counter("gp.predict_rows_reused"),
    };
    return m;
  }
};

/// Source of factor-row stamps, shared by every GP in the process so that
/// no two rows ever carry the same stamp.
std::atomic<std::uint64_t> next_row_stamp{1};

/// Columns [b, b + kLanes) of column_sums(), in register accumulators.
template <std::size_t kLanes, typename Term, typename Store>
void column_sums_of(const double* block, std::size_t n, std::size_t width,
                    std::size_t b, const Term& term, const Store& store) {
  double acc[kLanes] = {};
  for (std::size_t i = 0; i < n; ++i) {
    const double* row = block + i * width + b;
    for (std::size_t j = 0; j < kLanes; ++j) acc[j] += term(i, row[j]);
  }
  for (std::size_t j = 0; j < kLanes; ++j) store(b + j, acc[j]);
}

/// store(b, sum) with sum over rows i of term(i, block(i, b)), for every
/// column b of an n x width block, accumulated from 0.0 over ascending i as
/// linalg::dot() does.
template <typename Term, typename Store>
void column_sums(const double* block, std::size_t n, std::size_t width,
                 const Term& term, const Store& store) {
  std::size_t b = 0;
  for (; b + 8 <= width; b += 8) {
    column_sums_of<8>(block, n, width, b, term, store);
  }
  for (; b < width; ++b) column_sums_of<1>(block, n, width, b, term, store);
}

}  // namespace

double Prediction::stddev() const noexcept {
  return variance > 0.0 ? std::sqrt(variance) : 0.0;
}

GaussianProcess::GaussianProcess(Matern52Kernel kernel, double noise_variance)
    : kernel_(std::move(kernel)), noise_variance_(noise_variance) {
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
  try {
    refit(kind);
  } catch (...) {
    // No factor, alpha or stamps of the previous fit may outlive it beside
    // the new inputs: predict_block() would read them as the new posterior.
    x_ = linalg::Matrix();
    y_ = linalg::Vector();
    chol_.reset();
    row_stamps_.clear();
    last_refit_kind_ = RefitKind::kNone;
    throw;
  }
}

RefitKind GaussianProcess::classify_refit(const linalg::Matrix& x) const {
  // The incremental paths reuse the cached factor verbatim, which is only
  // the factor of the new (sub)matrix when it was obtained without jitter:
  // with_jitter() retries from zero on every call, so a jittered factor has
  // no incremental counterpart that matches bit-for-bit.
  if (!chol_.has_value() || chol_->jitter_used() != 0.0) {
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
  // Every row whose factor row this refit computed gets a fresh stamp;
  // the leading rows an incremental path kept keep theirs.
  stamp_rows(kind == RefitKind::kFull ? 0 : row_stamps_.size());
  last_refit_kind_ = kind;
  linalg::Vector centered = y_;
  for (std::size_t i = 0; i < centered.size(); ++i) centered[i] -= y_mean_;
  alpha_ = chol_->solve(centered);
}

void GaussianProcess::refit_full() {
  linalg::Matrix noisy = kernel_matrix(kernel_, x_);
  noisy.add_to_diagonal(noise_variance_);
  obs::ScopedTimer chol_timer("gp.cholesky", &GpMetrics::get().cholesky_s);
  auto chol = linalg::Cholesky::with_jitter(noisy);
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
  const std::size_t old_n = chol_->lower().rows();
  const std::size_t new_n = x_.rows();
  HP_ASSERT(new_n > old_n && old_n > 0,
            "try_extend_factor: classify_refit guarantees strict growth");
  // The appended rows' kernel values, each row straight into its border.
  // The (row j, row i) argument order for j < i matches kernel_matrix().
  std::vector<linalg::Vector> borders;
  borders.reserve(new_n - old_n);
  for (std::size_t i = old_n; i < new_n; ++i) {
    linalg::Vector& border = borders.emplace_back(i);
    for (std::size_t j = 0; j < i; ++j) {
      border[j] = kernel_.eval(x_.row_span(j), x_.row_span(i));
    }
  }
  // Border the factor one row at a time. The noisy diagonal entry is formed
  // exactly as add_to_diagonal() would: gram diagonal + noise, one addition.
  obs::ScopedTimer chol_timer("gp.cholesky", &GpMetrics::get().cholesky_s);
  const double diagonal = kernel_.diagonal_value() + noise_variance_;
  linalg::Cholesky chol = *chol_;
  for (const linalg::Vector& border : borders) {
    auto next = chol.extended(border, diagonal);
    if (!next.has_value()) return false;
    chol = std::move(*next);
  }
  chol_ = std::move(chol);
  return true;
}

void GaussianProcess::shrink_factor() {
  const std::size_t n = x_.rows();
  HP_ASSERT(n > 0 && n < chol_->lower().rows(),
            "shrink_factor: classify_refit guarantees strict shrinkage");
  chol_ = chol_->truncated(n);
}

void GaussianProcess::stamp_rows(std::size_t first) {
  const std::size_t n = x_.rows();
  row_stamps_.resize(n);
  if (first >= n) return;
  const std::uint64_t base =
      next_row_stamp.fetch_add(n - first, std::memory_order_relaxed);
  for (std::size_t i = first; i < n; ++i) row_stamps_[i] = base + (i - first);
}

Prediction GaussianProcess::predict(const linalg::Vector& x_star) const {
  if (!fitted()) {
    throw std::logic_error("GaussianProcess::predict before fit");
  }
  if (x_star.size() != x_.cols()) {
    throw std::invalid_argument(
        "GaussianProcess::predict: query dimension mismatch");
  }
  // One query is its own dimension-major block; a lone prediction keeps
  // nothing, so it needs no cache and solves in place.
  std::vector<double> column(x_.rows());
  Prediction p;
  predict_rows(x_star.raw(), 1, column, column, 0,
               std::span<Prediction>(&p, 1));
  return p;
}

void GaussianProcess::predict_block(
    std::span<const std::span<const double>> queries, PredictionCache& cache,
    std::span<Prediction> out) const {
  if (!fitted()) {
    throw std::logic_error("GaussianProcess::predict before fit");
  }
  HP_REQUIRE(out.size() == queries.size(),
             "GaussianProcess::predict_block: one output per query");
  if (queries.empty()) return;  // e.g. a block the a-priori gate emptied
  const std::size_t n = x_.rows();
  const std::size_t dim = x_.cols();
  const std::size_t width = queries.size();
  for (const std::span<const double> query : queries) {
    if (query.size() != dim) {
      throw std::invalid_argument(
          "GaussianProcess::predict: query dimension mismatch");
    }
  }
  // The queries dimension-major. Cached rows belong to the cached queries
  // only; they are compared as classify_refit() compares inputs, since
  // equal coordinates give equal kernel values.
  bool same_queries =
      cache.width_ == width && cache.queries_.size() == dim * width;
  cache.width_ = width;
  cache.queries_.resize(dim * width);
  for (std::size_t b = 0; b < width; ++b) {
    for (std::size_t d = 0; d < dim; ++d) {
      double& slot = cache.queries_[d * width + b];
      same_queries = same_queries && slot == queries[b][d];
      slot = queries[b][d];
    }
  }
  if (!same_queries) cache.stamps_.clear();
  // Rows [0, reused) of K* and V were computed against the same x_ row,
  // kernel and factor row as now, so they hold this call's values; V's row
  // i reads only rows 0..i of K* and of the factor.
  std::size_t reused = 0;
  const std::size_t cached = std::min(cache.stamps_.size(), n);
  while (reused < cached && cache.stamps_[reused] == row_stamps_[reused]) {
    ++reused;
  }
  cache.stamps_.resize(reused);  // vouches for no row until all are filled
  cache.cross_.resize(n * width);
  cache.solved_.resize(n * width);
  predict_rows(cache.queries_, width, cache.cross_, cache.solved_, reused,
               out);
  cache.stamps_ = row_stamps_;
  if (obs::metrics().enabled()) {
    GpMetrics::get().predict_rows.add(n);
    GpMetrics::get().predict_rows_reused.add(reused);
  }
}

void GaussianProcess::predict_rows(std::span<const double> qt,
                                   std::size_t width, std::span<double> cross,
                                   std::span<double> solved,
                                   std::size_t first_row,
                                   std::span<Prediction> out) const {
  const std::size_t n = x_.rows();
  // mean = y_mean + k*^T alpha and var = k(x*,x*) - v^T v with
  // v = L^{-1} k*, both summed over every row. The means go first, so that
  // @p solved may be @p cross itself.
  kernel_.eval_block(x_, qt, width, cross, first_row);
  column_sums(
      cross.data(), n, width,
      [&](std::size_t i, double k) { return k * alpha_[i]; },
      [&](std::size_t b, double sum) { out[b].mean = y_mean_ + sum; });
  if (solved.data() != cross.data()) {
    const auto first = static_cast<std::ptrdiff_t>(first_row * width);
    std::copy(cross.begin() + first, cross.end(), solved.begin() + first);
  }
  chol_->solve_lower_block(solved, width, first_row);
  const double prior = kernel_.diagonal_value();
  column_sums(
      solved.data(), n, width, [](std::size_t, double v) { return v * v; },
      [&](std::size_t b, double sum) {
        out[b].variance = std::max(0.0, prior - sum);
      });
  for (std::size_t b = 0; b < width; ++b) {
    HP_CHECK_FINITE(out[b].mean, "GaussianProcess::predict mean");
    HP_CHECK_FINITE(out[b].variance, "GaussianProcess::predict variance");
  }
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

}  // namespace hp::gp
