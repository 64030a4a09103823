#include "core/search_space.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "stats/rng.hpp"

namespace hp::core {
namespace {

HyperParameterSpace make_space() {
  return HyperParameterSpace({
      {"features", ParameterKind::Integer, 20, 80, true},
      {"kernel", ParameterKind::Integer, 2, 5, true},
      {"lr", ParameterKind::LogContinuous, 0.001, 0.1, false},
      {"momentum", ParameterKind::Continuous, 0.8, 0.95, false},
  });
}

TEST(ParameterDef, Validation) {
  ParameterDef p{"x", ParameterKind::Continuous, 1.0, 0.0, false};
  EXPECT_THROW(p.validate(), std::invalid_argument);
  p = {"", ParameterKind::Continuous, 0.0, 1.0, false};
  EXPECT_THROW(p.validate(), std::invalid_argument);
  p = {"x", ParameterKind::LogContinuous, 0.0, 1.0, false};
  EXPECT_THROW(p.validate(), std::invalid_argument);
  p = {"x", ParameterKind::Integer, 1.5, 3.0, false};
  EXPECT_THROW(p.validate(), std::invalid_argument);
}

TEST(HyperParameterSpace, EmptyThrows) {
  EXPECT_THROW(HyperParameterSpace({}), std::invalid_argument);
}

TEST(HyperParameterSpace, DimensionAndStructuralCount) {
  const auto space = make_space();
  EXPECT_EQ(space.dimension(), 4u);
  EXPECT_EQ(space.structural_dimension(), 2u);
}

TEST(HyperParameterSpace, IndexOf) {
  const auto space = make_space();
  EXPECT_EQ(space.index_of("lr"), 2u);
  EXPECT_FALSE(space.index_of("nope").has_value());
}

TEST(HyperParameterSpace, StructuralVectorPicksFlaggedParams) {
  const auto space = make_space();
  const Configuration config{40.0, 3.0, 0.01, 0.9};
  const auto z = space.structural_vector(config);
  ASSERT_EQ(z.size(), 2u);
  EXPECT_EQ(z[0], 40.0);
  EXPECT_EQ(z[1], 3.0);
  // structural_into() overwrites whatever its buffer held, and validates
  // the configuration as structural_vector() does.
  std::vector<double> buffer{7.0, 7.0, 7.0, 7.0, 7.0};
  space.structural_into(config, buffer);
  EXPECT_EQ(buffer, z);
  EXPECT_THROW(space.structural_into({90.0, 3.0, 0.01, 0.9}, buffer),
               std::invalid_argument);
}

TEST(HyperParameterSpace, DecodeRespectsKinds) {
  const auto space = make_space();
  const Configuration lo = space.decode({0.0, 0.0, 0.0, 0.0});
  EXPECT_EQ(lo[0], 20.0);
  EXPECT_EQ(lo[1], 2.0);
  EXPECT_NEAR(lo[2], 0.001, 1e-12);
  EXPECT_NEAR(lo[3], 0.8, 1e-12);
  const Configuration hi = space.decode({1.0, 1.0, 1.0, 1.0});
  EXPECT_EQ(hi[0], 80.0);
  EXPECT_EQ(hi[1], 5.0);
  EXPECT_NEAR(hi[2], 0.1, 1e-12);
  EXPECT_NEAR(hi[3], 0.95, 1e-12);
}

TEST(HyperParameterSpace, LogScaleMapsMatchTheDirectFormulaBitwise) {
  // decode_into() and encode() use log(lo) and log(hi) computed once per
  // parameter; the bits must be those of the formula that takes the logs
  // on every call.
  const HyperParameterSpace space({
      {"lr", ParameterKind::LogContinuous, 0.001, 0.1, false},
      {"decay", ParameterKind::LogContinuous, 1e-6, 3e-3, false},
  });
  stats::Rng rng(41);
  Configuration config;
  for (int trial = 0; trial < 1000; ++trial) {
    const std::vector<double> unit{rng.uniform(), rng.uniform()};
    space.decode_into(unit, config);
    for (std::size_t i = 0; i < 2; ++i) {
      const ParameterDef& p = space.parameter(i);
      const double log_lo = std::log(p.lo);
      const double log_hi = std::log(p.hi);
      EXPECT_EQ(config[i],
                std::clamp(std::exp(log_lo + unit[i] * (log_hi - log_lo)),
                           p.lo, p.hi))
          << "parameter " << i << " u " << unit[i];
      EXPECT_EQ(space.encode(config)[i],
                std::clamp((std::log(config[i]) - log_lo) / (log_hi - log_lo),
                           0.0, 1.0))
          << "parameter " << i << " value " << config[i];
    }
  }
}

TEST(HyperParameterSpace, DecodeLogScaleMidpointIsGeometricMean) {
  const auto space = make_space();
  const Configuration mid = space.decode({0.5, 0.5, 0.5, 0.5});
  EXPECT_NEAR(mid[2], std::sqrt(0.001 * 0.1), 1e-9);
}

TEST(HyperParameterSpace, DecodeClampsOutOfRangeUnits) {
  const auto space = make_space();
  const Configuration c = space.decode({-0.5, 2.0, 1.5, -1.0});
  EXPECT_EQ(c[0], 20.0);
  EXPECT_EQ(c[1], 5.0);
  EXPECT_NEAR(c[2], 0.1, 1e-12);
  EXPECT_NEAR(c[3], 0.8, 1e-12);
}

TEST(HyperParameterSpace, DecodeWrongSizeThrows) {
  const auto space = make_space();
  EXPECT_THROW((void)space.decode({0.5}), std::invalid_argument);
}

TEST(HyperParameterSpace, EncodeDecodeRoundTripContinuous) {
  const auto space = make_space();
  const Configuration config{40.0, 3.0, 0.02, 0.85};
  const Configuration round = space.decode(space.encode(config));
  EXPECT_EQ(round[0], 40.0);
  EXPECT_EQ(round[1], 3.0);
  EXPECT_NEAR(round[2], 0.02, 1e-9);
  EXPECT_NEAR(round[3], 0.85, 1e-9);
}

class IntegerRoundTrip : public ::testing::TestWithParam<int> {};

TEST_P(IntegerRoundTrip, EveryIntegerValueRoundTrips) {
  const auto space = make_space();
  const double v = GetParam();
  Configuration config{v, 3.0, 0.01, 0.9};
  const Configuration round = space.decode(space.encode(config));
  EXPECT_EQ(round[0], v);
}

INSTANTIATE_TEST_SUITE_P(AllFeatures, IntegerRoundTrip,
                         ::testing::Range(20, 81, 5));

TEST(HyperParameterSpace, SampleStaysInRangeAndIntegral) {
  const auto space = make_space();
  stats::Rng rng(3);
  for (int i = 0; i < 500; ++i) {
    const Configuration c = space.sample(rng);
    EXPECT_NO_THROW(space.validate(c));
    EXPECT_EQ(std::floor(c[0]), c[0]);
    EXPECT_EQ(std::floor(c[1]), c[1]);
  }
}

TEST(HyperParameterSpace, SampleCoversIntegerExtremes) {
  const auto space = make_space();
  stats::Rng rng(4);
  bool saw20 = false, saw80 = false;
  for (int i = 0; i < 2000; ++i) {
    const Configuration c = space.sample(rng);
    if (c[0] == 20.0) saw20 = true;
    if (c[0] == 80.0) saw80 = true;
  }
  EXPECT_TRUE(saw20);
  EXPECT_TRUE(saw80);
}

TEST(HyperParameterSpace, NeighborStaysInBox) {
  const auto space = make_space();
  stats::Rng rng(5);
  const Configuration center{20.0, 2.0, 0.001, 0.8};  // at the corner
  for (int i = 0; i < 200; ++i) {
    const Configuration n = space.neighbor(center, 0.3, rng);
    EXPECT_NO_THROW(space.validate(n));
  }
}

TEST(HyperParameterSpace, NeighborSmallSigmaStaysClose) {
  const auto space = make_space();
  stats::Rng rng(6);
  const Configuration center{50.0, 3.0, 0.01, 0.875};
  for (int i = 0; i < 100; ++i) {
    const Configuration n = space.neighbor(center, 0.01, rng);
    EXPECT_NEAR(n[0], 50.0, 5.0);
    EXPECT_NEAR(n[3], 0.875, 0.02);
  }
}

TEST(HyperParameterSpace, NeighborInvalidSigmaThrows) {
  const auto space = make_space();
  stats::Rng rng(7);
  EXPECT_THROW((void)space.neighbor({50.0, 3.0, 0.01, 0.875}, 0.0, rng),
               std::invalid_argument);
}

TEST(HyperParameterSpace, ValidateRejectsOutOfRangeAndNonIntegral) {
  const auto space = make_space();
  EXPECT_THROW(space.validate({19.0, 3.0, 0.01, 0.9}), std::invalid_argument);
  EXPECT_THROW(space.validate({40.5, 3.0, 0.01, 0.9}), std::invalid_argument);
  EXPECT_THROW(space.validate({40.0, 3.0, 0.2, 0.9}), std::invalid_argument);
  EXPECT_THROW(space.validate({40.0, 3.0}), std::invalid_argument);
}

}  // namespace
}  // namespace hp::core
