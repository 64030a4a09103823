#include "core/hw_models.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "stats/rng.hpp"

namespace hp::core {
namespace {

/// Synthetic profiling data y = w . z (+ noise), z in positive ranges like
/// the paper's structural hyper-parameters.
struct SyntheticData {
  std::vector<std::vector<double>> z;
  std::vector<double> y;
};

SyntheticData make_linear_data(std::size_t n, double noise_sd,
                               std::uint64_t seed, double intercept = 0.0) {
  stats::Rng rng(seed);
  SyntheticData data;
  for (std::size_t i = 0; i < n; ++i) {
    const double f = rng.uniform(20.0, 80.0);
    const double k = rng.uniform(2.0, 5.0);
    const double u = rng.uniform(200.0, 700.0);
    data.z.push_back({f, k, u});
    data.y.push_back(intercept + 0.8 * f + 3.0 * k + 0.05 * u +
                     rng.gaussian(0.0, noise_sd));
  }
  return data;
}

TEST(HardwareModel, DefaultConstructedPredictThrows) {
  HardwareModel model;
  EXPECT_THROW((void)model.predict(std::vector<double>{1.0}),
               std::logic_error);
}

TEST(HardwareModel, PredictIsDotProductPlusIntercept) {
  HardwareModel model(ModelForm::Linear, linalg::Vector{2.0, 3.0}, 1.0, 0.1);
  EXPECT_DOUBLE_EQ(model.predict(std::vector<double>{1.0, 2.0}), 9.0);
}

TEST(HardwareModel, QuadraticFormExpandsFeatures) {
  HardwareModel model(ModelForm::Quadratic,
                      linalg::Vector{1.0, 0.0, 0.5, 0.0}, 0.0, 0.0);
  // prediction = 1*z0 + 0.5*z0^2.
  EXPECT_DOUBLE_EQ(model.predict(std::vector<double>{2.0, 0.0}), 4.0);
}

TEST(HardwareModel, PredictSumsTheFeatureTermsInOrderBitwise) {
  // intercept + w . [z, z^2], one term at a time from the intercept: the
  // order the a-priori gates' predictions are pinned to.
  stats::Rng rng(43);
  for (const ModelForm form : {ModelForm::Linear, ModelForm::Quadratic}) {
    const std::size_t k = 10;
    linalg::Vector weights(form == ModelForm::Quadratic ? 2 * k : k);
    for (std::size_t j = 0; j < weights.size(); ++j) {
      weights[j] = rng.uniform(-2.0, 2.0);
    }
    const double intercept = rng.uniform(10.0, 90.0);
    const HardwareModel model(form, weights, intercept, 1.0);
    for (int trial = 0; trial < 100; ++trial) {
      std::vector<double> z(k);
      for (double& v : z) v = rng.uniform(1.0, 500.0);
      double want = intercept;
      for (std::size_t j = 0; j < k; ++j) want += weights[j] * z[j];
      if (form == ModelForm::Quadratic) {
        for (std::size_t j = 0; j < k; ++j) {
          const double square = z[j] * z[j];
          want += weights[k + j] * square;
        }
      }
      EXPECT_EQ(model.predict(z), want);
    }
  }
  const HardwareModel quadratic(ModelForm::Quadratic,
                                linalg::Vector{1.0, 2.0, 3.0, 4.0}, 0.0, 0.0);
  EXPECT_THROW((void)quadratic.predict(std::vector<double>{1.0}),
               std::invalid_argument);
}

TEST(HardwareModel, DimensionMismatchThrows) {
  HardwareModel model(ModelForm::Linear, linalg::Vector{1.0, 2.0}, 0.0, 0.0);
  EXPECT_THROW((void)model.predict(std::vector<double>{1.0}),
               std::invalid_argument);
}

TEST(TrainHardwareModel, RecoversNoiselessLinearModel) {
  const SyntheticData data = make_linear_data(60, 0.0, 1);
  HardwareModelOptions opt;
  opt.fit_intercept = false;
  const TrainedHardwareModel m = train_hardware_model(data.z, data.y, opt);
  EXPECT_NEAR(m.model.weights()[0], 0.8, 1e-8);
  EXPECT_NEAR(m.model.weights()[1], 3.0, 1e-8);
  EXPECT_NEAR(m.model.weights()[2], 0.05, 1e-8);
  EXPECT_LT(m.cv.rmspe, 1e-6);
  EXPECT_NEAR(m.cv.r_squared, 1.0, 1e-9);
}

TEST(TrainHardwareModel, CvReportsRealisticErrorUnderNoise) {
  const SyntheticData data = make_linear_data(100, 5.0, 2);
  const TrainedHardwareModel m = train_hardware_model(data.z, data.y);
  EXPECT_GT(m.cv.rmspe, 0.5);
  EXPECT_LT(m.cv.rmspe, 15.0);
  EXPECT_GT(m.model.residual_sd(), 1.0);
  EXPECT_EQ(m.cv.fold_rmspe.size(), 10u);  // paper's 10-fold CV
  EXPECT_EQ(m.sample_count, 100u);
}

TEST(TrainHardwareModel, InterceptImprovesOffsetData) {
  const SyntheticData data = make_linear_data(80, 0.5, 3, /*intercept=*/50.0);
  HardwareModelOptions with;
  with.fit_intercept = true;
  HardwareModelOptions without;
  without.fit_intercept = false;
  const auto m_with = train_hardware_model(data.z, data.y, with);
  const auto m_without = train_hardware_model(data.z, data.y, without);
  EXPECT_LT(m_with.cv.rmspe, m_without.cv.rmspe);
  EXPECT_NEAR(m_with.model.intercept(), 50.0, 5.0);
}

TEST(TrainHardwareModel, QuadraticFitsCurvedData) {
  stats::Rng rng(5);
  SyntheticData data;
  for (std::size_t i = 0; i < 80; ++i) {
    const double f = rng.uniform(20.0, 80.0);
    data.z.push_back({f});
    data.y.push_back(10.0 + 0.02 * f * f);
  }
  HardwareModelOptions linear;
  linear.fit_intercept = true;
  HardwareModelOptions quad = linear;
  quad.form = ModelForm::Quadratic;
  const auto m_lin = train_hardware_model(data.z, data.y, linear);
  const auto m_quad = train_hardware_model(data.z, data.y, quad);
  EXPECT_LT(m_quad.cv.rmspe, m_lin.cv.rmspe);
}

TEST(TrainHardwareModel, ValidatesInput) {
  EXPECT_THROW((void)train_hardware_model({}, {}), std::invalid_argument);
  EXPECT_THROW((void)train_hardware_model({{1.0}}, {1.0, 2.0}),
               std::invalid_argument);
  EXPECT_THROW((void)train_hardware_model({{1.0}, {1.0, 2.0}}, {1.0, 2.0}),
               std::invalid_argument);
  // Fewer samples than folds.
  std::vector<std::vector<double>> z(5, {1.0});
  std::vector<double> y(5, 1.0);
  EXPECT_THROW((void)train_hardware_model(z, y), std::invalid_argument);
}

TEST(TrainHardwareModel, DeterministicForSeed) {
  const SyntheticData data = make_linear_data(50, 2.0, 6);
  const auto a = train_hardware_model(data.z, data.y);
  const auto b = train_hardware_model(data.z, data.y);
  EXPECT_DOUBLE_EQ(a.cv.rmspe, b.cv.rmspe);
  EXPECT_DOUBLE_EQ(a.model.weights()[0], b.model.weights()[0]);
}

TEST(TrainFromProfiles, PowerAndMemoryModels) {
  std::vector<hw::ProfileSample> samples;
  stats::Rng rng(7);
  for (int i = 0; i < 40; ++i) {
    hw::ProfileSample s;
    const double f = rng.uniform(20.0, 80.0);
    s.z = {f};
    s.power_w = 30.0 + 0.5 * f;
    s.memory_mb = 400.0 + 2.0 * f;
    samples.push_back(s);
  }
  const auto power = train_power_model(samples);
  EXPECT_LT(power.cv.rmspe, 0.1);
  const auto memory = train_memory_model(samples);
  ASSERT_TRUE(memory.has_value());
  EXPECT_LT(memory->cv.rmspe, 0.1);
}

TEST(TrainFromProfiles, MemoryModelAbsentWithoutMeasurements) {
  std::vector<hw::ProfileSample> samples;
  for (int i = 0; i < 20; ++i) {
    hw::ProfileSample s;
    s.z = {static_cast<double>(20 + i)};
    s.power_w = 5.0;
    samples.push_back(s);  // no memory_mb (Tegra)
  }
  EXPECT_FALSE(train_memory_model(samples).has_value());
}

}  // namespace
}  // namespace hp::core
