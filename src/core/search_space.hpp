#pragma once
// Hyper-parameter space definition. A space is an ordered list of
// parameters, each integer or continuous (optionally log-scaled), each
// flagged *structural* if it affects the network architecture (and hence
// inference power/memory — Section 3.3 trains the hardware models only on
// structural parameters z, a subset of x).

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "stats/rng.hpp"

namespace hp::core {

/// Parameter domain kind.
enum class ParameterKind {
  Integer,        ///< uniform integers in [lo, hi]
  Continuous,     ///< uniform reals in [lo, hi]
  LogContinuous,  ///< reals log-uniform in [lo, hi] (lo > 0)
};

/// One tunable hyper-parameter.
struct ParameterDef {
  std::string name;
  ParameterKind kind = ParameterKind::Continuous;
  double lo = 0.0;
  double hi = 1.0;
  /// True if the parameter changes the network structure (feature counts,
  /// kernel sizes, pool sizes, FC units); false for training parameters
  /// (learning rate, momentum, weight decay).
  bool structural = false;

  /// Validates the definition; throws std::invalid_argument on a bad range.
  void validate() const;
};

/// A concrete configuration: one native-unit value per parameter, in space
/// order. Integers are stored as exact doubles.
using Configuration = std::vector<double>;

/// Ordered hyper-parameter space with unit-cube encode/decode — the GP and
/// the acquisition optimizer work in [0,1]^D; objectives and hardware
/// models work in native units.
class HyperParameterSpace {
 public:
  explicit HyperParameterSpace(std::vector<ParameterDef> parameters);

  [[nodiscard]] std::size_t dimension() const noexcept {
    return parameters_.size();
  }
  [[nodiscard]] const std::vector<ParameterDef>& parameters() const noexcept {
    return parameters_;
  }
  [[nodiscard]] const ParameterDef& parameter(std::size_t i) const {
    return parameters_.at(i);
  }
  /// Index of the parameter named @p name, or nullopt.
  [[nodiscard]] std::optional<std::size_t> index_of(
      const std::string& name) const;

  /// Number of structural parameters (dimension of z).
  [[nodiscard]] std::size_t structural_dimension() const noexcept {
    return structural_count_;
  }
  /// Extracts the structural sub-vector z from a configuration x; throws
  /// as validate() does on an invalid configuration.
  [[nodiscard]] std::vector<double> structural_vector(
      const Configuration& config) const;
  /// structural_vector() into @p z, reusing its capacity (the acquisition
  /// gates run it for every candidate).
  void structural_into(const Configuration& config,
                       std::vector<double>& z) const;

  /// Maps a unit-cube point to a native configuration (integers rounded,
  /// log parameters exponentiated). Unit coordinates are clamped to [0,1].
  [[nodiscard]] Configuration decode(const std::vector<double>& unit) const;
  /// decode() into @p out, reusing its capacity (the candidate pool decodes
  /// into the same slots every round).
  void decode_into(const std::vector<double>& unit, Configuration& out) const;
  /// Inverse of decode (integers map to the center of their cell).
  [[nodiscard]] std::vector<double> encode(const Configuration& config) const;

  /// Uniform random configuration (respecting kinds/scales).
  [[nodiscard]] Configuration sample(stats::Rng& rng) const;

  /// Gaussian random-walk proposal around @p center with relative step
  /// @p sigma in unit-cube coordinates, clamped to the box (Section 3.5,
  /// Rand-Walk: x_{n+1} ~ N(x^+, sigma_0^2)).
  [[nodiscard]] Configuration neighbor(const Configuration& center,
                                       double sigma, stats::Rng& rng) const;

  /// Validates a configuration (size and ranges); throws on violation.
  void validate(const Configuration& config) const;

 private:
  std::vector<ParameterDef> parameters_;
  std::size_t structural_count_ = 0;
  /// log(lo) and log(hi) per parameter, computed once (LogContinuous only;
  /// 0 elsewhere): decode_into() and encode() use these exact doubles.
  std::vector<double> log_lo_;
  std::vector<double> log_hi_;
};

}  // namespace hp::core
