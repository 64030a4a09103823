// Contract-layer tests: the macros fire as ContractViolation in checked
// builds (this TU), and the violation object is diagnosable (kind, file,
// line, expression). The sibling TU contracts_off_test.cpp compiles the
// same macros with HP_CONTRACTS forced to 0 and asserts they are no-ops.
//
// These tests require a checked build (HP_CONTRACTS=1) — the default for
// every CMAKE_BUILD_TYPE except Release. In a Release build the whole
// file reduces to the static sanity checks at the bottom.

#include "core/contracts.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <string>
#include <vector>

#include "core/hw_models.hpp"
#include "core/search_space.hpp"
#include "gp/gaussian_process.hpp"
#include "gp/kernel.hpp"
#include "linalg/cholesky.hpp"
#include "linalg/matrix.hpp"
#include "linalg/vector.hpp"

namespace hp::core {
namespace {

constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();

#if HP_CONTRACTS

TEST(Contracts, AssertFiresWithKindAndLocation) {
  try {
    HP_ASSERT(1 + 1 == 3, "arithmetic broke");
    FAIL() << "HP_ASSERT did not fire";
  } catch (const ContractViolation& v) {
    EXPECT_EQ(v.kind(), ContractViolation::Kind::kAssert);
    EXPECT_STREQ(v.expression(), "1 + 1 == 3");
    EXPECT_NE(std::string(v.file()).find("contracts_test.cpp"),
              std::string::npos);
    EXPECT_GT(v.line(), 0);
    EXPECT_NE(std::string(v.what()).find("arithmetic broke"),
              std::string::npos);
    EXPECT_NE(std::string(v.what()).find("HP_ASSERT"), std::string::npos);
  }
}

TEST(Contracts, RequireFiresWithoutDetail) {
  try {
    HP_REQUIRE(false);
    FAIL() << "HP_REQUIRE did not fire";
  } catch (const ContractViolation& v) {
    EXPECT_EQ(v.kind(), ContractViolation::Kind::kRequire);
    EXPECT_STREQ(v.expression(), "false");
  }
}

TEST(Contracts, PassingChecksAreSilent) {
  EXPECT_NO_THROW({
    HP_ASSERT(true);
    HP_REQUIRE(2 > 1, "ordering");
    HP_BOUNDS(std::size_t{2}, std::size_t{3});
    HP_CHECK_FINITE(0.0, "zero");
    HP_CHECK_ALL_FINITE(std::vector<double>({1.0, 2.0}), "vec");
    HP_ENFORCE(true, "fine");
  });
}

TEST(Contracts, BoundsReportsIndexAndSize) {
  try {
    HP_BOUNDS(std::size_t{7}, std::size_t{3});
    FAIL() << "HP_BOUNDS did not fire";
  } catch (const ContractViolation& v) {
    EXPECT_EQ(v.kind(), ContractViolation::Kind::kBounds);
    EXPECT_NE(std::string(v.what()).find("index 7 not in [0, 3)"),
              std::string::npos);
  }
}

TEST(Contracts, CheckFiniteDistinguishesNaN) {
  try {
    HP_CHECK_FINITE(kNaN, "objective value");
    FAIL() << "HP_CHECK_FINITE did not fire";
  } catch (const ContractViolation& v) {
    EXPECT_EQ(v.kind(), ContractViolation::Kind::kFinite);
    EXPECT_NE(std::string(v.what()).find("objective value is NaN"),
              std::string::npos);
  }
  try {
    HP_CHECK_FINITE(std::numeric_limits<double>::infinity(), "power draw");
    FAIL() << "HP_CHECK_FINITE did not fire";
  } catch (const ContractViolation& v) {
    EXPECT_NE(std::string(v.what()).find("power draw is non-finite"),
              std::string::npos);
  }
}

TEST(Contracts, CheckAllFiniteScansRange) {
  const std::vector<double> poisoned{1.0, kNaN, 3.0};
  EXPECT_THROW(HP_CHECK_ALL_FINITE(poisoned, "profiling targets"),
               ContractViolation);
}

// --- Contracts threaded through linalg -----------------------------------

TEST(Contracts, VectorBoundsViolation) {
  linalg::Vector v(3);
  EXPECT_THROW((void)v[3], ContractViolation);
}

TEST(Contracts, MatrixShapeViolation) {
  linalg::Matrix a(2, 2);
  linalg::Matrix b(3, 2);
  EXPECT_THROW((void)(a * b), ContractViolation);
}

TEST(Contracts, CholeskySolveDimensionViolation) {
  const linalg::Cholesky chol(linalg::Matrix{{4.0, 0.0}, {0.0, 9.0}});
  EXPECT_THROW((void)chol.solve_lower(linalg::Vector(3)), ContractViolation);
  EXPECT_THROW((void)chol.solve_upper(linalg::Vector(3)), ContractViolation);
}

// --- Contracts threaded through the search space -------------------------

HyperParameterSpace tiny_space() {
  return HyperParameterSpace({
      {"units", ParameterKind::Integer, 1.0, 8.0, true},
      {"lr", ParameterKind::LogContinuous, 1e-4, 1e-1, false},
  });
}

TEST(Contracts, DecodeRejectsNaNUnitCoordinate) {
  const auto space = tiny_space();
  EXPECT_THROW((void)space.decode({0.5, kNaN}), ContractViolation);
}

TEST(Contracts, ValidateRejectsNaNConfiguration) {
  const auto space = tiny_space();
  // NaN compares false against both range bounds, so without the contract
  // this configuration silently validated.
  EXPECT_THROW(space.validate({kNaN, 1e-2}), ContractViolation);
}

// --- Contracts threaded through the hardware models ----------------------

TEST(Contracts, TrainHardwareModelRejectsNaNFeatures) {
  std::vector<std::vector<double>> z(12, {1.0, 2.0});
  std::vector<double> y(12, 3.0);
  z[7][1] = kNaN;
  EXPECT_THROW((void)train_hardware_model(z, y, {}), ContractViolation);
}

TEST(Contracts, TrainHardwareModelRejectsNaNTargets) {
  const std::vector<std::vector<double>> z(12, {1.0, 2.0});
  std::vector<double> y(12, 3.0);
  y[4] = kNaN;
  EXPECT_THROW((void)train_hardware_model(z, y, {}), ContractViolation);
}

TEST(Contracts, HardwareModelPredictRejectsNaNInput) {
  const HardwareModel model(ModelForm::Linear, linalg::Vector{2.0, 3.0}, 0.5,
                            0.1);
  const std::vector<double> z{1.0, kNaN};
  EXPECT_THROW((void)model.predict(z), ContractViolation);
}

TEST(Contracts, HardwareModelRejectsNonFiniteWeights) {
  EXPECT_THROW(HardwareModel(ModelForm::Linear, linalg::Vector{1.0, kNaN},
                             0.0, 0.1),
               ContractViolation);
  EXPECT_THROW(
      HardwareModel(ModelForm::Linear, linalg::Vector{1.0}, 0.0, kNaN),
      ContractViolation);
}

// --- GP: non-PSD covariance must be reported, not silently mis-predicted --

TEST(Contracts, GpFitRejectsNaNTargets) {
  gp::Matern52Kernel kernel({1.0, {0.5}});
  gp::GaussianProcess gp(kernel, 1e-6);
  linalg::Matrix x(3, 1);
  x(0, 0) = 0.0;
  x(1, 0) = 1.0;
  x(2, 0) = 2.0;
  linalg::Vector y{0.0, kNaN, 1.0};
  EXPECT_THROW(gp.fit(std::move(x), std::move(y)), ContractViolation);
}

#endif  // HP_CONTRACTS

// Death-style check, active in EVERY build type: a covariance that stays
// non-PSD through the whole jitter ladder (NaN kernel entries) must
// surface as a ContractViolation (HP_ENFORCE), never as garbage output.
TEST(Contracts, GpNonPsdCovarianceIsReportedAsContractViolation) {
  gp::Matern52Kernel kernel({1.0, {0.5}});
  gp::GaussianProcess gp(kernel, 1e-6);
  linalg::Matrix x(2, 1);
  x(0, 0) = 0.0;
  x(1, 0) = kNaN;  // poisons the kernel matrix, not the targets
  linalg::Vector y{0.0, 1.0};
  try {
    gp.fit(std::move(x), std::move(y));
    FAIL() << "non-PSD covariance produced a fitted GP";
  } catch (const ContractViolation& v) {
    EXPECT_NE(std::string(v.what()).find("not positive definite"),
              std::string::npos);
  }
}

TEST(Contracts, EnforceIsNeverCompiledOut) {
  EXPECT_THROW(HP_ENFORCE(false, "always on"), ContractViolation);
}

TEST(Contracts, ViolationIsALogicError) {
  // Swallowing contract violations via catch (std::runtime_error&) must be
  // impossible; they are logic errors by construction.
  static_assert(std::is_base_of_v<std::logic_error, ContractViolation>);
  EXPECT_THROW(HP_ENFORCE(false, ""), std::logic_error);
}

}  // namespace
}  // namespace hp::core
