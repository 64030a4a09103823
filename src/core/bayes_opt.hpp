#pragma once
// GP-based Bayesian optimization (Section 3.1) with a pluggable
// constraint-aware acquisition function: the engine behind HW-IECI and
// HW-CWEI. In HyperPower mode the constraints come from the a-priori
// predictive models; in default mode from GPs fit on *measured* power and
// memory values of already-trained samples (the expensive unknown-
// constraints treatment of prior art).

#include <memory>
#include <vector>

#include "core/candidate_pool.hpp"
#include "core/proposer.hpp"
#include "gp/gaussian_process.hpp"

namespace hp::core {

/// Bayesian-optimization options.
struct BayesOptOptions {
  /// Random configurations evaluated before the GP takes over.
  std::size_t initial_design = 3;
  /// Re-run kernel maximum-likelihood fitting every this many new
  /// observations (posterior-only refits happen every observation).
  std::size_t kernel_refit_interval = 5;
  CandidatePoolOptions pool{};
};

/// GP Bayesian proposer with a constraint-aware acquisition.
class BayesOptProposer final : public Proposer {
 public:
  /// Throws std::invalid_argument on a null acquisition.
  BayesOptProposer(const HyperParameterSpace& space,
                   std::unique_ptr<AcquisitionFunction> acquisition,
                   BayesOptOptions bo_options = {});

  [[nodiscard]] std::string name() const override;
  [[nodiscard]] Configuration propose(stats::Rng& rng) override;
  /// Constant-liar batch via the shared fill_proposal_batch helper
  /// (core/batch_fill.hpp): after each in-round proposal, a
  /// pseudo-observation (candidate, best feasible error so far) is pushed
  /// and the objective GP posterior refit, so the remaining proposals
  /// spread out instead of re-picking the same acquisition maximum. The
  /// liars are popped and the GP restored to the real observations before
  /// returning.
  [[nodiscard]] std::vector<Configuration> propose_batch(
      std::size_t first_sample_index, std::size_t count) override;
  /// Refits the surrogates on @p record. Every kernel_refit_interval
  /// observations the objective GP's kernel is refitted by maximum
  /// likelihood, and that fit is returned. When the record carries a fit
  /// (a resume's replay), it is installed instead of searched for; if the
  /// installed GP's likelihood lacks the recorded bits, observe() throws
  /// std::runtime_error (the journal diverges from this run).
  RecordedKernelFit observe(const EvaluationRecord& record) override;
  [[nodiscard]] double proposal_overhead_s() const override;

 private:
  /// Refits the objective GP after @p record was stored; returns the
  /// kernel ML fit it ran or installed, if any.
  RecordedKernelFit refit_objective_gp(const EvaluationRecord& record);
  void refit_constraint_gps();
  /// Posterior-only refit of the objective GP on the current observation
  /// store (shared by the observe path and the constant-liar hooks).
  void fit_objective_gp_posterior();

  std::unique_ptr<AcquisitionFunction> acquisition_;
  BayesOptOptions bo_options_;
  CandidatePool pool_;

  // Observation store (unit coordinates).
  std::vector<std::vector<double>> obs_x_;
  std::vector<double> obs_y_;
  std::vector<double> obs_power_;   ///< aligned with obs_power_x_
  std::vector<std::vector<double>> obs_power_x_;
  std::vector<double> obs_memory_;
  std::vector<std::vector<double>> obs_memory_x_;
  double best_feasible_y_ = 1.0;
  std::size_t observations_since_kernel_fit_ = 0;

  std::unique_ptr<gp::GaussianProcess> objective_gp_;
  std::unique_ptr<gp::GaussianProcess> power_gp_;
  std::unique_ptr<gp::GaussianProcess> memory_gp_;
};

}  // namespace hp::core
