#include "nn/sgd_trainer.hpp"

#include <gtest/gtest.h>

#include "nn/network.hpp"

namespace hp::nn {
namespace {

DataSplit tiny_data(std::uint64_t seed = 42) {
  SyntheticDataOptions opt;
  opt.train_size = 120;
  opt.test_size = 60;
  opt.image_size = 12;
  opt.seed = seed;
  return make_synthetic_mnist(opt);
}

CnnSpec tiny_spec() {
  CnnSpec spec;
  spec.input = {1, 1, 12, 12};
  spec.conv_stages = {{6, 3, 2}};
  spec.dense_stages = {{24}};
  spec.num_classes = 10;
  return spec;
}

TEST(SgdTrainer, ValidatesConfig) {
  TrainingConfig c;
  c.learning_rate = 0.0;
  EXPECT_THROW(SgdTrainer{c}, std::invalid_argument);
  c = {};
  c.momentum = 1.0;
  EXPECT_THROW(SgdTrainer{c}, std::invalid_argument);
  c = {};
  c.weight_decay = -1.0;
  EXPECT_THROW(SgdTrainer{c}, std::invalid_argument);
  c = {};
  c.batch_size = 0;
  EXPECT_THROW(SgdTrainer{c}, std::invalid_argument);
  c = {};
  c.epochs = 0;
  EXPECT_THROW(SgdTrainer{c}, std::invalid_argument);
}

TEST(SgdTrainer, EmptyDatasetThrows) {
  Network net = build_network(tiny_spec());
  TrainingConfig c;
  SgdTrainer trainer(c);
  Dataset empty;
  const DataSplit data = tiny_data();
  EXPECT_THROW((void)trainer.train(net, empty, data.test),
               std::invalid_argument);
}

TEST(SgdTrainer, LearnsSyntheticMnist) {
  const DataSplit data = tiny_data();
  Network net = build_network(tiny_spec());
  stats::Rng rng(1);
  net.initialize(rng);
  TrainingConfig c;
  c.learning_rate = 0.05;
  c.momentum = 0.9;
  c.weight_decay = 1e-4;
  c.epochs = 8;
  c.batch_size = 20;
  c.seed = 2;
  SgdTrainer trainer(c);
  const TrainingResult result = trainer.train(net, data.train, data.test);
  ASSERT_EQ(result.epochs.size(), 8u);
  EXPECT_FALSE(result.diverged);
  // Starts near chance (0.9), must improve clearly.
  EXPECT_LT(result.final_test_error, 0.5);
  // Loss should drop from first to last epoch.
  EXPECT_LT(result.epochs.back().train_loss, result.epochs.front().train_loss);
}

TEST(SgdTrainer, HugeLearningRateDiverges) {
  const DataSplit data = tiny_data();
  Network net = build_network(tiny_spec());
  stats::Rng rng(1);
  net.initialize(rng);
  TrainingConfig c;
  c.learning_rate = 500.0;
  c.epochs = 6;
  SgdTrainer trainer(c);
  const TrainingResult result = trainer.train(net, data.train, data.test);
  EXPECT_TRUE(result.diverged);
  EXPECT_GE(result.final_test_error, 0.8);
  // Divergence stops training early.
  EXPECT_LT(result.epochs.size(), 6u + 1u);
}

TEST(SgdTrainer, CallbackCanStopTraining) {
  const DataSplit data = tiny_data();
  Network net = build_network(tiny_spec());
  stats::Rng rng(1);
  net.initialize(rng);
  TrainingConfig c;
  c.epochs = 10;
  SgdTrainer trainer(c);
  int calls = 0;
  const TrainingResult result =
      trainer.train(net, data.train, data.test, [&](const EpochReport& r) {
        ++calls;
        return r.epoch < 2;  // stop after the third epoch
      });
  EXPECT_TRUE(result.early_stopped);
  EXPECT_EQ(result.epochs.size(), 3u);
  EXPECT_EQ(calls, 3);
}

TEST(SgdTrainer, DeterministicForSeeds) {
  const DataSplit data = tiny_data();
  TrainingConfig c;
  c.epochs = 2;
  c.seed = 11;
  Network a = build_network(tiny_spec());
  Network b = build_network(tiny_spec());
  stats::Rng ra(3), rb(3);
  a.initialize(ra);
  b.initialize(rb);
  SgdTrainer ta(c), tb(c);
  const auto res_a = ta.train(a, data.train, data.test);
  const auto res_b = tb.train(b, data.train, data.test);
  EXPECT_DOUBLE_EQ(res_a.final_test_error, res_b.final_test_error);
  EXPECT_DOUBLE_EQ(res_a.epochs[0].train_loss, res_b.epochs[0].train_loss);
}

TEST(SgdTrainer, EpochReportsAreSequential) {
  const DataSplit data = tiny_data();
  Network net = build_network(tiny_spec());
  stats::Rng rng(5);
  net.initialize(rng);
  TrainingConfig c;
  c.epochs = 4;
  SgdTrainer trainer(c);
  const auto result = trainer.train(net, data.train, data.test);
  for (std::size_t e = 0; e < result.epochs.size(); ++e) {
    EXPECT_EQ(result.epochs[e].epoch, e);
    EXPECT_GE(result.epochs[e].test_error, 0.0);
    EXPECT_LE(result.epochs[e].test_error, 1.0);
  }
}

TEST(SgdTrainer, WeightDecayShrinksWeightNorm) {
  const DataSplit data = tiny_data();
  TrainingConfig c;
  c.learning_rate = 0.01;
  c.epochs = 3;
  c.weight_decay = 0.0;
  Network a = build_network(tiny_spec());
  Network b = build_network(tiny_spec());
  stats::Rng ra(9), rb(9);
  a.initialize(ra);
  b.initialize(rb);
  SgdTrainer ta(c);
  c.weight_decay = 0.1;  // strong decay
  SgdTrainer tb(c);
  (void)ta.train(a, data.train, data.test);
  (void)tb.train(b, data.train, data.test);
  const auto decayed_norm = [](Network& net) {
    double norm = 0.0;
    for (const Parameter* p : net.parameters()) {
      if (!p->decay) continue;
      for (float v : p->value.flat()) {
        norm += static_cast<double>(v) * static_cast<double>(v);
      }
    }
    return norm;
  };
  EXPECT_LT(decayed_norm(b), decayed_norm(a));
}

}  // namespace
}  // namespace hp::nn
