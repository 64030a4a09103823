// Tests for the experiment-driver library every table/figure bench is
// built on: table rendering, number formatting, pair setup (the paper's
// budgets), and run_one determinism.

#include <gtest/gtest.h>

#include "common/experiment.hpp"
#include "common/table.hpp"

namespace hp::bench {
namespace {

TEST(TextTable, RendersAlignedColumnsWithSeparator) {
  TextTable t({"a", "long header", "c"});
  t.add_row({"1", "2", "3"});
  t.add_row({"wide cell", "x", "y"});
  const std::string out = t.render();
  // Header, separator, two rows.
  EXPECT_EQ(std::count(out.begin(), out.end(), '\n'), 4);
  // The separator row is dashes.
  const auto first_nl = out.find('\n');
  const auto second_nl = out.find('\n', first_nl + 1);
  const std::string sep = out.substr(first_nl + 1, second_nl - first_nl - 1);
  EXPECT_EQ(sep.find_first_not_of('-'), std::string::npos);
  // Every line has the same width.
  std::size_t prev = std::string::npos;
  std::size_t start = 0;
  while (start < out.size()) {
    const auto nl = out.find('\n', start);
    const std::size_t width = nl - start;
    if (prev != std::string::npos) {
      EXPECT_EQ(width, prev);
    }
    prev = width;
    start = nl + 1;
  }
}

TEST(TextTable, RejectsRaggedRow) {
  TextTable t({"a", "b"});
  EXPECT_THROW(t.add_row({"only one"}), std::invalid_argument);
}

TEST(Formatting, Percent) {
  EXPECT_EQ(fmt_percent(0.2181), "21.81%");
  EXPECT_EQ(fmt_percent(0.9, 0), "90%");
  EXPECT_EQ(fmt_percent_pm(0.0101, 0.0018), "1.01% (0.18%)");
}

TEST(Formatting, HoursAndSpeedup) {
  EXPECT_EQ(fmt_hours(7704.0), "2.14");
  EXPECT_EQ(fmt_speedup(112.99), "112.99x");
  EXPECT_EQ(fmt_fixed(3.14159, 3), "3.142");
}

TEST(Formatting, OrDash) {
  EXPECT_EQ(fmt_or_dash(std::nullopt, fmt_hours), "-");
  EXPECT_EQ(fmt_or_dash(3600.0, fmt_hours), "1.00");
}

TEST(AsciiSeries, RendersOneRowPerSeries) {
  const std::string out = render_ascii_series(
      "title", {"a", "bb"}, {{0.0, 0.5, 1.0}, {1.0, 1.0, 1.0}}, 12);
  EXPECT_NE(out.find("title"), std::string::npos);
  EXPECT_NE(out.find("a "), std::string::npos);
  EXPECT_NE(out.find("bb"), std::string::npos);
  // min/max annotations present.
  EXPECT_NE(out.find("[0.000 -> 1.000]"), std::string::npos);
}

TEST(AsciiSeries, RejectsLabelMismatch) {
  EXPECT_THROW((void)render_ascii_series("t", {"a"}, {{1.0}, {2.0}}),
               std::invalid_argument);
}

TEST(PairSetup, PaperBudgetsWiredIn) {
  const PairSetup mnist_gtx = make_pair(Dataset::Mnist, Platform::Gtx1070);
  EXPECT_DOUBLE_EQ(*mnist_gtx.budgets.power_w, 85.0);
  EXPECT_TRUE(mnist_gtx.budgets.memory_mb.has_value());
  EXPECT_DOUBLE_EQ(mnist_gtx.time_budget_s, 2 * 3600.0);

  const PairSetup cifar_gtx = make_pair(Dataset::Cifar10, Platform::Gtx1070);
  EXPECT_DOUBLE_EQ(*cifar_gtx.budgets.power_w, 90.0);
  EXPECT_DOUBLE_EQ(cifar_gtx.time_budget_s, 5 * 3600.0);

  // Tegra: 10 W / 12 W and NO memory budget (paper footnote 1).
  const PairSetup mnist_tx1 = make_pair(Dataset::Mnist, Platform::TegraTx1);
  EXPECT_DOUBLE_EQ(*mnist_tx1.budgets.power_w, 10.0);
  EXPECT_FALSE(mnist_tx1.budgets.memory_mb.has_value());
  const PairSetup cifar_tx1 = make_pair(Dataset::Cifar10, Platform::TegraTx1);
  EXPECT_DOUBLE_EQ(*cifar_tx1.budgets.power_w, 12.0);
}

TEST(PairSetup, PaperPairsInTableColumnOrder) {
  const auto pairs = paper_pairs();
  ASSERT_EQ(pairs.size(), 4u);
  EXPECT_EQ(pairs[0].label, "MNIST - GTX 1070");
  EXPECT_EQ(pairs[1].label, "CIFAR-10 - GTX 1070");
  EXPECT_EQ(pairs[2].label, "MNIST - Tegra TX1");
  EXPECT_EQ(pairs[3].label, "CIFAR-10 - Tegra TX1");
}

TEST(TrainModels, MemoryModelOnlyWhereCounterExists) {
  const auto gtx = train_models(make_pair(Dataset::Mnist, Platform::Gtx1070),
                                40, 5);
  EXPECT_TRUE(gtx.power.has_value());
  EXPECT_TRUE(gtx.memory.has_value());
  EXPECT_GE(gtx.profiled_samples, 35u);
  const auto tx1 = train_models(make_pair(Dataset::Mnist, Platform::TegraTx1),
                                40, 5);
  EXPECT_TRUE(tx1.power.has_value());
  EXPECT_FALSE(tx1.memory.has_value());
}

TEST(RunOne, DeterministicForIdenticalSpecs) {
  const PairSetup pair = make_pair(Dataset::Mnist, Platform::Gtx1070);
  const TrainedModels models = train_models(pair, 40, 5);
  RunSpec spec;
  spec.method = core::Method::Rand;
  spec.max_function_evaluations = 3;
  spec.seed = 11;
  const auto a = run_one(pair, models, spec);
  const auto b = run_one(pair, models, spec);
  ASSERT_EQ(a.run.trace.size(), b.run.trace.size());
  for (std::size_t i = 0; i < a.run.trace.size(); ++i) {
    EXPECT_EQ(a.run.trace.records()[i].test_error,
              b.run.trace.records()[i].test_error);
  }
}

TEST(RunOne, RespectsModeAndMethod) {
  const PairSetup pair = make_pair(Dataset::Mnist, Platform::Gtx1070);
  const TrainedModels models = train_models(pair, 40, 5);
  RunSpec spec;
  spec.method = core::Method::RandWalk;
  spec.hyperpower = false;
  spec.max_function_evaluations = 2;
  const auto result = run_one(pair, models, spec);
  EXPECT_EQ(result.method_name, "Rand-Walk");
  EXPECT_FALSE(result.hyperpower_mode);
  EXPECT_EQ(result.run.trace.model_filtered_count(), 0u);
}

TEST(Names, DatasetAndPlatformStrings) {
  EXPECT_EQ(to_string(Dataset::Mnist), "MNIST");
  EXPECT_EQ(to_string(Dataset::Cifar10), "CIFAR-10");
  EXPECT_EQ(to_string(Platform::Gtx1070), "GTX 1070");
  EXPECT_EQ(to_string(Platform::JetsonNano), "Jetson Nano");
}

}  // namespace
}  // namespace hp::bench
