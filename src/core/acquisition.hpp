#pragma once
// Constraint handling and acquisition functions (Sections 3.4-3.5).
//
//  - EI: the classic Expected Improvement criterion.
//  - HW-IECI (Eq. 3): EI multiplied by the indicator functions
//    I[P(z) <= PB] * I[M(z) <= MB], evaluated through the *predictive*
//    hardware models — improvement is impossible where constraints are
//    violated, so such regions score zero and are never sampled.
//  - HW-CWEI: EI weighted by the *probability* of constraint satisfaction,
//    Pr(P(z) <= PB) * Pr(M(z) <= MB), with Gaussian uncertainty taken from
//    the models' cross-validated residual spread.
//  - HW-PI and HW-LCB: Probability of Improvement and GP Lower Confidence
//    Bound behind HW-IECI's constraint gate — "we leave the systematic
//    exploration of other acquisition functions for future work"
//    (Section 3.4).

#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "core/hw_models.hpp"
#include "core/search_space.hpp"
#include "gp/gaussian_process.hpp"

namespace hp::core {

/// Power/memory budget values chosen by the ML practitioner.
struct ConstraintBudgets {
  std::optional<double> power_w;
  std::optional<double> memory_mb;

  [[nodiscard]] bool any() const noexcept {
    return power_w.has_value() || memory_mb.has_value();
  }
};

/// A-priori hardware constraints: predictive models + budgets. Evaluation
/// costs two dot products — cheap enough to run on every grid point of the
/// acquisition maximization.
class HardwareConstraints {
 public:
  /// Models may be absent (e.g. no memory model on Tegra); absent models
  /// impose no constraint on their metric.
  HardwareConstraints(ConstraintBudgets budgets,
                      std::optional<HardwareModel> power_model,
                      std::optional<HardwareModel> memory_model);

  /// Hard indicator: true iff every modeled metric is predicted within
  /// budget (the HW-IECI treatment).
  [[nodiscard]] bool predicted_feasible(std::span<const double> z) const;

  /// Soft probability: product of per-constraint Gaussian satisfaction
  /// probabilities (the HW-CWEI treatment). 1.0 when nothing is modeled.
  [[nodiscard]] double feasibility_probability(std::span<const double> z) const;

  /// Checks *measured* values against the budgets (used by every method to
  /// classify completed samples).
  [[nodiscard]] bool measured_feasible(
      std::optional<double> power_w, std::optional<double> memory_mb) const;

  [[nodiscard]] const ConstraintBudgets& budgets() const noexcept {
    return budgets_;
  }
  [[nodiscard]] const std::optional<HardwareModel>& power_model() const noexcept {
    return power_model_;
  }
  [[nodiscard]] const std::optional<HardwareModel>& memory_model() const noexcept {
    return memory_model_;
  }

 private:
  ConstraintBudgets budgets_;
  std::optional<HardwareModel> power_model_;
  std::optional<HardwareModel> memory_model_;
};

/// Everything an acquisition function may consult when scoring a candidate.
struct AcquisitionContext {
  explicit AcquisitionContext(const HyperParameterSpace& space_in)
      : space(space_in) {}

  const HyperParameterSpace& space;
  /// Surrogate over the objective, fit in unit-cube coordinates. May be
  /// null during the initial design (no observations yet).
  const gp::GaussianProcess* objective_gp = nullptr;
  /// Best (lowest) feasible observed test error so far; y+ in the paper.
  double best_observed = 1.0;
  /// Budget values; consulted by the default (measured-GP) constraint
  /// treatment. When `constraints` is set its own budgets take precedence.
  ConstraintBudgets budgets;
  /// A-priori constraints; null when running constraint-unaware.
  const HardwareConstraints* constraints = nullptr;
  /// Constraint GPs fit on *measured* metrics (the default/expensive
  /// treatment of unknown constraints); null when absent.
  const gp::GaussianProcess* measured_power_gp = nullptr;
  const gp::GaussianProcess* measured_memory_gp = nullptr;
};

/// Reusable block-scoring buffers, owned by the caller (one per block in
/// flight) so every allocation is amortized across rounds.
struct AcquisitionScratch {
  /// Block indices of the candidates that passed the gate, and their unit
  /// points: the queries handed to GaussianProcess::predict_block().
  std::vector<std::size_t> passing;
  std::vector<std::span<const double>> queries;
  /// The structural vector z of the candidate being gated.
  std::vector<double> z;
  /// Per-candidate constraint probability and gain (EI, PI or the LCB's
  /// improvement), and the predictions of the GP consulted last.
  std::vector<double> prob;
  std::vector<double> gain;
  std::vector<gp::Prediction> predictions;
  /// predict_block() caches: one for the objective GP, which a block of
  /// fixed candidates (the pool's lattice) finds mostly valid from one call
  /// to the next, and one shared by the measured-constraint GPs.
  gp::PredictionCache objective_gp;
  gp::PredictionCache constraint_gp;
};

/// Acquisition function interface: score candidates in unit coordinates
/// (higher is better; the maximizer is the next sample).
class AcquisitionFunction {
 public:
  virtual ~AcquisitionFunction() = default;

  /// Scores a whole candidate block into @p out (out[i] = score of
  /// candidate i), reusing @p scratch buffers across candidates. The
  /// built-in acquisitions gate every candidate, then predict all that pass
  /// with one GaussianProcess::predict_block() per GP, so a candidate's
  /// score does not depend on the block it was scored in.
  /// Matching span sizes are an HP_REQUIRE contract. CandidatePool may call
  /// this concurrently for disjoint blocks, each with its own scratch, so
  /// an implementation may only read shared state (the context, its GPs and
  /// models, and its own members).
  virtual void score_block(std::span<const std::vector<double>> unit_xs,
                           std::span<const Configuration> configs,
                           const AcquisitionContext& ctx,
                           AcquisitionScratch& scratch,
                           std::span<double> out) const = 0;

  [[nodiscard]] virtual std::string name() const = 0;
};

/// HW-IECI: EI gated by the a-priori indicator constraints when available;
/// falls back to GP-mean indicators on measured-constraint GPs otherwise
/// (the "unknown constraints" default mode).
class HwIeciAcquisition final : public AcquisitionFunction {
 public:
  void score_block(std::span<const std::vector<double>> unit_xs,
                   std::span<const Configuration> configs,
                   const AcquisitionContext& ctx, AcquisitionScratch& scratch,
                   std::span<double> out) const override;
  [[nodiscard]] std::string name() const override { return "HW-IECI"; }
};

/// HW-CWEI: EI weighted by the probability of satisfying each constraint;
/// probabilities come from the a-priori models when available, otherwise
/// from the measured-constraint GPs.
class HwCweiAcquisition final : public AcquisitionFunction {
 public:
  void score_block(std::span<const std::vector<double>> unit_xs,
                   std::span<const Configuration> configs,
                   const AcquisitionContext& ctx, AcquisitionScratch& scratch,
                   std::span<double> out) const override;
  [[nodiscard]] std::string name() const override { return "HW-CWEI"; }
};

/// HW-PI: Probability of Improvement, P(Y < best - xi) under the objective
/// GP, behind HW-IECI's constraint gate.
class HwPiAcquisition final : public AcquisitionFunction {
 public:
  /// @param xi improvement margin (fraction of error), finite and >= 0;
  ///        small positive values avoid pure exploitation. Throws
  ///        std::invalid_argument otherwise.
  explicit HwPiAcquisition(double xi = 0.01);

  void score_block(std::span<const std::vector<double>> unit_xs,
                   std::span<const Configuration> configs,
                   const AcquisitionContext& ctx, AcquisitionScratch& scratch,
                   std::span<double> out) const override;
  [[nodiscard]] std::string name() const override { return "HW-PI"; }

 private:
  double xi_;
};

/// HW-LCB: by how much the GP Lower Confidence Bound mu - kappa * sigma
/// beats the incumbent, max(0, best - (mu - kappa * sigma)), behind
/// HW-IECI's constraint gate. A low mean or a wide posterior scores high;
/// the clip at zero, where the bound does not beat the incumbent, keeps
/// zero meaning "never pick".
class HwLcbAcquisition final : public AcquisitionFunction {
 public:
  /// @param kappa exploration weight, finite and >= 0. Throws
  ///        std::invalid_argument otherwise.
  explicit HwLcbAcquisition(double kappa = 2.0);

  void score_block(std::span<const std::vector<double>> unit_xs,
                   std::span<const Configuration> configs,
                   const AcquisitionContext& ctx, AcquisitionScratch& scratch,
                   std::span<double> out) const override;
  [[nodiscard]] std::string name() const override { return "HW-LCB"; }

 private:
  double kappa_;
};

}  // namespace hp::core
