#include "core/search_space.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "core/contracts.hpp"

namespace hp::core {

void ParameterDef::validate() const {
  if (name.empty()) {
    throw std::invalid_argument("ParameterDef: empty name");
  }
  if (!(lo < hi)) {
    throw std::invalid_argument("ParameterDef '" + name + "': need lo < hi");
  }
  if (kind == ParameterKind::LogContinuous && lo <= 0.0) {
    throw std::invalid_argument("ParameterDef '" + name +
                                "': log scale needs lo > 0");
  }
  if (kind == ParameterKind::Integer &&
      (std::floor(lo) != lo || std::floor(hi) != hi)) {
    throw std::invalid_argument("ParameterDef '" + name +
                                "': integer bounds must be integral");
  }
}

HyperParameterSpace::HyperParameterSpace(std::vector<ParameterDef> parameters)
    : parameters_(std::move(parameters)) {
  if (parameters_.empty()) {
    throw std::invalid_argument("HyperParameterSpace: empty parameter list");
  }
  log_lo_.assign(parameters_.size(), 0.0);
  log_hi_.assign(parameters_.size(), 0.0);
  for (std::size_t i = 0; i < parameters_.size(); ++i) {
    const ParameterDef& p = parameters_[i];
    p.validate();
    if (p.structural) ++structural_count_;
    if (p.kind == ParameterKind::LogContinuous) {
      log_lo_[i] = std::log(p.lo);
      log_hi_[i] = std::log(p.hi);
    }
  }
}

std::optional<std::size_t> HyperParameterSpace::index_of(
    const std::string& name) const {
  for (std::size_t i = 0; i < parameters_.size(); ++i) {
    if (parameters_[i].name == name) return i;
  }
  return std::nullopt;
}

std::vector<double> HyperParameterSpace::structural_vector(
    const Configuration& config) const {
  std::vector<double> z;
  structural_into(config, z);
  return z;
}

void HyperParameterSpace::structural_into(const Configuration& config,
                                          std::vector<double>& z) const {
  validate(config);
  z.clear();
  z.reserve(structural_count_);
  for (std::size_t i = 0; i < parameters_.size(); ++i) {
    if (parameters_[i].structural) z.push_back(config[i]);
  }
  HP_ASSERT(z.size() == structural_count_,
            "structural_vector: stale structural_count_");
}

Configuration HyperParameterSpace::decode(
    const std::vector<double>& unit) const {
  Configuration config;
  decode_into(unit, config);
  return config;
}

void HyperParameterSpace::decode_into(const std::vector<double>& unit,
                                      Configuration& config) const {
  if (unit.size() != parameters_.size()) {
    throw std::invalid_argument("HyperParameterSpace::decode: size mismatch");
  }
  config.resize(parameters_.size());
  for (std::size_t i = 0; i < parameters_.size(); ++i) {
    const ParameterDef& p = parameters_[i];
    // std::clamp passes NaN straight through, so a poisoned unit
    // coordinate would silently decode to a NaN configuration.
    HP_CHECK_FINITE(unit[i], "HyperParameterSpace::decode unit coordinate");
    const double u = std::clamp(unit[i], 0.0, 1.0);
    switch (p.kind) {
      case ParameterKind::Integer: {
        // Cell mapping: [0,1) divided evenly among the integer values.
        const double span = p.hi - p.lo + 1.0;
        double v = p.lo + std::floor(u * span);
        config[i] = std::min(v, p.hi);
        break;
      }
      case ParameterKind::Continuous:
        config[i] = std::clamp(p.lo + u * (p.hi - p.lo), p.lo, p.hi);
        break;
      case ParameterKind::LogContinuous:
        // clamp guards the 1-ulp overshoot of exp(log(hi)) at u == 1.
        config[i] = std::clamp(
            std::exp(log_lo_[i] + u * (log_hi_[i] - log_lo_[i])), p.lo, p.hi);
        break;
    }
  }
}

std::vector<double> HyperParameterSpace::encode(
    const Configuration& config) const {
  validate(config);
  std::vector<double> unit(parameters_.size());
  for (std::size_t i = 0; i < parameters_.size(); ++i) {
    const ParameterDef& p = parameters_[i];
    switch (p.kind) {
      case ParameterKind::Integer: {
        const double span = p.hi - p.lo + 1.0;
        unit[i] = (config[i] - p.lo + 0.5) / span;  // cell center
        break;
      }
      case ParameterKind::Continuous:
        unit[i] = (config[i] - p.lo) / (p.hi - p.lo);
        break;
      case ParameterKind::LogContinuous:
        unit[i] =
            (std::log(config[i]) - log_lo_[i]) / (log_hi_[i] - log_lo_[i]);
        break;
    }
    unit[i] = std::clamp(unit[i], 0.0, 1.0);
  }
  return unit;
}

Configuration HyperParameterSpace::sample(stats::Rng& rng) const {
  std::vector<double> unit(parameters_.size());
  for (double& u : unit) u = rng.uniform();
  return decode(unit);
}

Configuration HyperParameterSpace::neighbor(const Configuration& center,
                                            double sigma,
                                            stats::Rng& rng) const {
  HP_CHECK_FINITE(sigma, "HyperParameterSpace::neighbor sigma");
  if (sigma <= 0.0) {
    throw std::invalid_argument("HyperParameterSpace::neighbor: sigma <= 0");
  }
  std::vector<double> unit = encode(center);
  for (double& u : unit) {
    u = std::clamp(u + rng.gaussian(0.0, sigma), 0.0, 1.0);
  }
  return decode(unit);
}

void HyperParameterSpace::validate(const Configuration& config) const {
  if (config.size() != parameters_.size()) {
    throw std::invalid_argument(
        "HyperParameterSpace: configuration size mismatch");
  }
  for (std::size_t i = 0; i < parameters_.size(); ++i) {
    const ParameterDef& p = parameters_[i];
    // NaN compares false against both bounds and would pass the range
    // check below; reject it explicitly.
    HP_CHECK_FINITE(config[i], "HyperParameterSpace configuration value");
    if (config[i] < p.lo || config[i] > p.hi) {
      throw std::invalid_argument("HyperParameterSpace: parameter '" + p.name +
                                  "' out of range");
    }
    if (p.kind == ParameterKind::Integer &&
        std::floor(config[i]) != config[i]) {
      throw std::invalid_argument("HyperParameterSpace: parameter '" + p.name +
                                  "' must be integral");
    }
  }
}

}  // namespace hp::core
