#include "core/objective.hpp"

#include <stdexcept>

#include "gp/kernel_fit.hpp"

namespace hp::core {

static_assert(sizeof(RecordedKernelFit) == sizeof(void*),
              "an empty recorded fit costs one pointer");

void RecordedKernelFit::Delete::operator()(gp::KernelFit* fit) const noexcept {
  delete fit;
}

gp::KernelFit* RecordedKernelFit::copy(const gp::KernelFit& fit) {
  return new gp::KernelFit(fit);
}

EvaluationRecord Objective::evaluate_detached(
    const Configuration& config, const EarlyTerminationRule* early_termination) {
  (void)config;
  (void)early_termination;
  throw std::logic_error(
      "Objective::evaluate_detached: this objective does not support "
      "concurrent evaluation");
}

std::string to_string(EvaluationStatus status) {
  switch (status) {
    case EvaluationStatus::Completed:
      return "completed";
    case EvaluationStatus::EarlyTerminated:
      return "early_terminated";
    case EvaluationStatus::ModelFiltered:
      return "model_filtered";
    case EvaluationStatus::InfeasibleArchitecture:
      return "infeasible_architecture";
    case EvaluationStatus::Failed:
      return "failed";
  }
  return "unknown";
}

std::string to_string(FailureKind kind) {
  return failure_kind_name(kind);
}

const char* failure_kind_name(FailureKind kind) noexcept {
  switch (kind) {
    case FailureKind::Transient:
      return "transient";
    case FailureKind::Persistent:
      return "persistent";
    case FailureKind::Timeout:
      return "timeout";
    case FailureKind::Diverged:
      return "diverged";
  }
  return "unknown";
}

std::optional<FailureKind> failure_kind_from_string(const std::string& name) {
  if (name == "transient") return FailureKind::Transient;
  if (name == "persistent") return FailureKind::Persistent;
  if (name == "timeout") return FailureKind::Timeout;
  if (name == "diverged") return FailureKind::Diverged;
  return std::nullopt;
}

}  // namespace hp::core
