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
#include "gp/kernel_fit.hpp"

namespace hp::core {

/// Bayesian-optimization options.
struct BayesOptOptions {
  /// Random configurations evaluated before the GP takes over.
  std::size_t initial_design = 3;
  /// Re-run kernel maximum-likelihood fitting every this many new
  /// observations (posterior-only refits happen every observation).
  std::size_t kernel_refit_interval = 5;
  CandidatePoolOptions pool{};
  gp::KernelFitOptions kernel_fit{};
  double observation_noise = 1e-4;
  /// Virtual bookkeeping cost per iteration: base + per-observation slope
  /// (Spearmint-style model refit + acquisition maximization cost).
  double overhead_base_s = 8.0;
  double overhead_per_observation_s = 0.6;
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
  /// BO proposals mutate sequential state (the constant-liar GP refits), so
  /// batched rounds are produced up front on the driver thread.
  [[nodiscard]] bool supports_parallel_proposals() const override {
    return false;
  }
  /// Constant-liar batch via the shared fill_proposal_batch helper
  /// (core/batch_fill.hpp): after each in-round proposal, a
  /// pseudo-observation (candidate, best feasible error so far) is pushed
  /// and the objective GP posterior refit, so the remaining proposals
  /// spread out instead of re-picking the same acquisition maximum. The
  /// liars are popped and the GP restored to the real observations before
  /// returning.
  [[nodiscard]] std::vector<Configuration> propose_batch(
      std::size_t first_sample_index, std::size_t count) override;
  void observe(const EvaluationRecord& record) override;
  [[nodiscard]] double proposal_overhead_s() const override;

 private:
  void refit_objective_gp();
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
