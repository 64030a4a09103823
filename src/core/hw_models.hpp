#pragma once
// The paper's predictive hardware models (Section 3.3, Eq. 1-2):
//   Power model:  P(z) = sum_j w_j z_j
//   Memory model: M(z) = sum_j m_j z_j
// linear in both the structural hyper-parameters z and the weights, trained
// by least squares with 10-fold cross-validation on offline profiling
// samples, and evaluated cheaply inside the acquisition function.
// A quadratic feature expansion is provided for the model-form ablation
// (the paper notes nonlinear forms can be plugged in but linear suffices).

#include <cstddef>
#include <optional>
#include <span>
#include <vector>

#include "hw/profiler.hpp"
#include "linalg/vector.hpp"

namespace hp::core {

/// Feature map applied to z before the linear combination.
enum class ModelForm {
  Linear,     ///< features = z (the paper's form)
  Quadratic,  ///< features = [z, z^2] (ablation)
};

/// A trained predictor for one hardware metric.
class HardwareModel {
 public:
  HardwareModel() = default;
  HardwareModel(ModelForm form, linalg::Vector weights, double intercept,
                double residual_sd);

  /// Predicted metric for structural vector @p z. Throws
  /// std::invalid_argument on dimension mismatch.
  [[nodiscard]] double predict(std::span<const double> z) const;

  /// Standard deviation of the cross-validated residuals, used by HW-CWEI
  /// as the predictive uncertainty of the constraint model.
  [[nodiscard]] double residual_sd() const noexcept { return residual_sd_; }

  [[nodiscard]] ModelForm form() const noexcept { return form_; }
  [[nodiscard]] const linalg::Vector& weights() const noexcept {
    return weights_;
  }
  [[nodiscard]] double intercept() const noexcept { return intercept_; }

 private:
  ModelForm form_ = ModelForm::Linear;
  linalg::Vector weights_;
  double intercept_ = 0.0;
  double residual_sd_ = 0.0;
};

/// Cross-validation quality report (Table 1 reports RMSPE).
struct CrossValidationReport {
  double rmspe = 0.0;  ///< root mean square percentage error, percent
  double rmse = 0.0;
  double mae = 0.0;
  double r_squared = 0.0;
  std::vector<double> fold_rmspe;  ///< per-fold RMSPE
};

/// Trained model plus its validation report.
struct TrainedHardwareModel {
  HardwareModel model;
  CrossValidationReport cv;
  std::size_t sample_count = 0;
};

/// The paper's 10-fold cross validation of the hardware models.
inline constexpr std::size_t kCrossValidationFolds = 10;

/// Training options. The weights are fit unconstrained, by least squares
/// with a tiny ridge: some structural parameters legitimately carry
/// negative weights (a larger pooling kernel shrinks downstream work and
/// hence power/memory), and clamping them to zero would bias predictions
/// upward at the low-power corners of the space — exactly where
/// constrained search operates.
struct HardwareModelOptions {
  ModelForm form = ModelForm::Linear;
  /// The paper's Eq. 1-2 carry no explicit intercept; our simulated
  /// platforms have a large constant idle-power / runtime-memory component,
  /// so a bias weight (still linear in the weights) is fit by default.
  /// Set false for the strict paper form (see the model-form ablation).
  bool fit_intercept = true;
};

/// Fits a hardware model on (z, y) pairs. CV metrics come from the
/// kCrossValidationFolds-fold loop; the returned model is refit on all
/// data. Throws std::invalid_argument for empty/ragged data or fewer
/// samples than folds.
[[nodiscard]] TrainedHardwareModel train_hardware_model(
    const std::vector<std::vector<double>>& z, const std::vector<double>& y,
    const HardwareModelOptions& options = {});

/// Convenience: trains the power model from profiler output.
[[nodiscard]] TrainedHardwareModel train_power_model(
    const std::vector<hw::ProfileSample>& samples,
    const HardwareModelOptions& options = {});

/// Convenience: trains the memory model from profiler output, using only
/// samples that carry a memory measurement. Returns std::nullopt when no
/// sample has one (Tegra-class platforms).
[[nodiscard]] std::optional<TrainedHardwareModel> train_memory_model(
    const std::vector<hw::ProfileSample>& samples,
    const HardwareModelOptions& options = {});

}  // namespace hp::core
