#include "core/hw_models.hpp"

#include <cmath>
#include <cstdint>
#include <stdexcept>

#include "core/contracts.hpp"

#include "linalg/least_squares.hpp"
#include "linalg/matrix.hpp"
#include "stats/kfold.hpp"
#include "stats/metrics.hpp"

namespace hp::core {

namespace {

/// Shuffles the cross-validation folds.
constexpr std::uint64_t kFoldSeed = 1234;
/// Tiny ridge penalty, for numerical robustness.
constexpr double kRidge = 1e-8;

/// Applies the model-form feature map to one z vector.
std::vector<double> expand_features(std::span<const double> z, ModelForm form) {
  std::vector<double> features(z.begin(), z.end());
  if (form == ModelForm::Quadratic) {
    for (double v : z) features.push_back(v * v);
  }
  return features;
}

/// Builds the design matrix for a set of rows.
linalg::Matrix build_design(const std::vector<std::vector<double>>& z,
                            std::span<const std::size_t> rows,
                            ModelForm form) {
  const std::vector<double> first = expand_features(z[rows[0]], form);
  linalg::Matrix a(rows.size(), first.size());
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const std::vector<double> f = expand_features(z[rows[i]], form);
    for (std::size_t j = 0; j < f.size(); ++j) a(i, j) = f[j];
  }
  return a;
}

linalg::Vector gather(const std::vector<double>& y,
                      std::span<const std::size_t> rows) {
  linalg::Vector out(rows.size());
  for (std::size_t i = 0; i < rows.size(); ++i) out[i] = y[rows[i]];
  return out;
}

linalg::LeastSquaresFit fit_rows(const std::vector<std::vector<double>>& z,
                                 const std::vector<double>& y,
                                 std::span<const std::size_t> rows,
                                 const HardwareModelOptions& options) {
  const linalg::Matrix a = build_design(z, rows, options.form);
  const linalg::Vector b = gather(y, rows);
  linalg::LeastSquaresOptions ls;
  ls.ridge = kRidge;
  ls.fit_intercept = options.fit_intercept;
  return linalg::solve_least_squares(a, b, ls);
}

}  // namespace

HardwareModel::HardwareModel(ModelForm form, linalg::Vector weights,
                             double intercept, double residual_sd)
    : form_(form),
      weights_(std::move(weights)),
      intercept_(intercept),
      residual_sd_(residual_sd) {
  if (weights_.empty()) {
    throw std::invalid_argument("HardwareModel: empty weight vector");
  }
  if (residual_sd_ < 0.0) {
    throw std::invalid_argument("HardwareModel: negative residual sd");
  }
  // A NaN weight/sd passes both checks above (NaN < 0 is false) and would
  // make every feasibility indicator silently unreliable.
  HP_CHECK_ALL_FINITE(weights_, "HardwareModel weights");
  HP_CHECK_FINITE(intercept_, "HardwareModel intercept");
  HP_CHECK_FINITE(residual_sd_, "HardwareModel residual sd");
}

double HardwareModel::predict(std::span<const double> z) const {
  if (weights_.empty()) {
    throw std::logic_error("HardwareModel::predict on default-constructed model");
  }
  HP_CHECK_ALL_FINITE(z, "HardwareModel::predict input z");
  const std::size_t k = z.size();
  if ((form_ == ModelForm::Quadratic ? 2 * k : k) != weights_.size()) {
    throw std::invalid_argument("HardwareModel::predict: dimension mismatch");
  }
  // The dot product with expand_features(z), term by term in its order,
  // without building the feature vector.
  double acc = intercept_;
  for (std::size_t j = 0; j < k; ++j) acc += weights_[j] * z[j];
  if (form_ == ModelForm::Quadratic) {
    for (std::size_t j = 0; j < k; ++j) acc += weights_[k + j] * (z[j] * z[j]);
  }
  HP_CHECK_FINITE(acc, "HardwareModel::predict output");
  return acc;
}

TrainedHardwareModel train_hardware_model(
    const std::vector<std::vector<double>>& z, const std::vector<double>& y,
    const HardwareModelOptions& options) {
  if (z.empty() || z.size() != y.size()) {
    throw std::invalid_argument("train_hardware_model: bad dataset");
  }
  const std::size_t dim = z[0].size();
  if (dim == 0) {
    throw std::invalid_argument("train_hardware_model: empty feature vectors");
  }
  for (const auto& row : z) {
    if (row.size() != dim) {
      throw std::invalid_argument("train_hardware_model: ragged features");
    }
    HP_CHECK_ALL_FINITE(row, "train_hardware_model feature row z");
  }
  HP_CHECK_ALL_FINITE(y, "train_hardware_model targets y");
  if (z.size() < kCrossValidationFolds) {
    throw std::invalid_argument(
        "train_hardware_model: fewer samples than folds");
  }

  // Cross-validation loop: out-of-fold predictions for every sample.
  const auto folds =
      stats::kfold_splits(z.size(), kCrossValidationFolds, kFoldSeed);
  std::vector<double> predicted(z.size(), 0.0);
  std::vector<double> fold_rmspe;
  fold_rmspe.reserve(folds.size());
  for (const stats::Fold& fold : folds) {
    const linalg::LeastSquaresFit fit =
        fit_rows(z, y, fold.train_indices, options);
    std::vector<double> fold_actual, fold_pred;
    fold_actual.reserve(fold.validation_indices.size());
    fold_pred.reserve(fold.validation_indices.size());
    for (std::size_t idx : fold.validation_indices) {
      const std::vector<double> f = expand_features(z[idx], options.form);
      const double p = fit.predict(linalg::Vector(f));
      predicted[idx] = p;
      fold_actual.push_back(y[idx]);
      fold_pred.push_back(p);
    }
    fold_rmspe.push_back(stats::rmspe(fold_actual, fold_pred));
  }

  CrossValidationReport cv;
  cv.rmspe = stats::rmspe(y, predicted);
  cv.rmse = stats::rmse(y, predicted);
  cv.mae = stats::mae(y, predicted);
  cv.r_squared = stats::r_squared(y, predicted);
  cv.fold_rmspe = std::move(fold_rmspe);

  // Final model: refit on all samples; residual sd from CV residuals.
  std::vector<std::size_t> all(z.size());
  for (std::size_t i = 0; i < all.size(); ++i) all[i] = i;
  const linalg::LeastSquaresFit fit = fit_rows(z, y, all, options);

  double rss = 0.0;
  for (std::size_t i = 0; i < y.size(); ++i) {
    const double r = y[i] - predicted[i];
    rss += r * r;
  }
  const double residual_sd = std::sqrt(rss / static_cast<double>(y.size()));

  TrainedHardwareModel out;
  out.model = HardwareModel(options.form, fit.coefficients, fit.intercept,
                            residual_sd);
  out.cv = std::move(cv);
  out.sample_count = z.size();
  return out;
}

TrainedHardwareModel train_power_model(
    const std::vector<hw::ProfileSample>& samples,
    const HardwareModelOptions& options) {
  std::vector<std::vector<double>> z;
  std::vector<double> y;
  z.reserve(samples.size());
  y.reserve(samples.size());
  for (const hw::ProfileSample& s : samples) {
    z.push_back(s.z);
    y.push_back(s.power_w);
  }
  return train_hardware_model(z, y, options);
}

std::optional<TrainedHardwareModel> train_memory_model(
    const std::vector<hw::ProfileSample>& samples,
    const HardwareModelOptions& options) {
  std::vector<std::vector<double>> z;
  std::vector<double> y;
  for (const hw::ProfileSample& s : samples) {
    if (s.memory_mb) {
      z.push_back(s.z);
      y.push_back(*s.memory_mb);
    }
  }
  if (z.empty()) return std::nullopt;
  return train_hardware_model(z, y, options);
}

}  // namespace hp::core
