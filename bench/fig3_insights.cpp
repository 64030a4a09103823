// Figure 3 reproduction — the two insights behind HyperPower's
// enhancements:
//  (left)  power during training is essentially constant across epochs
//          while accuracy improves, so power is an a-priori-known,
//          low-cost constraint (MNIST on Tegra TX1, as in the paper);
//  (right) diverging configurations are identifiable after only a few
//          epochs: their test error stays at chance level.

#include <cstdio>
#include <vector>

#include "common/experiment.hpp"
#include "common/report.hpp"
#include "common/table.hpp"
#include "core/early_termination.hpp"
#include "stats/descriptive.hpp"

int main() {
  using namespace hp;
  bench::BenchReport report("fig3_insights");
  std::printf("=== Figure 3: the two HyperPower insights ===\n\n");

  const bench::PairSetup pair =
      bench::make_pair(bench::Dataset::Mnist, bench::Platform::TegraTx1);
  testbed::TestbedObjective objective(
      pair.problem, pair.landscape, pair.device,
      testbed::calibrated_options(pair.problem.name(), pair.device));

  // ---- Left: power vs accuracy across training epochs.
  const core::Configuration config{50, 3, 2, 400, 0.01, 0.9};
  const auto curve = objective.landscape().learning_curve(config, 1);
  std::printf("(left) MNIST on Tegra TX1: inference power measured at epoch "
              "checkpoints\n");
  bench::TextTable left({"epoch", "test accuracy", "measured power"});
  stats::RunningStats power_stats;
  for (std::size_t epoch = 0; epoch < curve.size(); epoch += 4) {
    // Re-measure power through the NVML path at each checkpoint: the
    // network structure (hence power) does not change as weights train.
    const auto m = objective.measure(config);
    power_stats.add(m.power_w);
    left.add_row({std::to_string(epoch + 1),
                  bench::fmt_percent(1.0 - curve[epoch]),
                  bench::fmt_fixed(m.power_w, 3) + " W"});
  }
  std::printf("%s", left.render().c_str());
  report.add_table("power_vs_epochs", left);
  std::printf("power span across checkpoints: %.3f W (%.2f%% of mean) -- "
              "accuracy span: %.1f%%\n",
              power_stats.max() - power_stats.min(),
              100.0 * (power_stats.max() - power_stats.min()) /
                  power_stats.mean(),
              100.0 * (curve.front() - curve.back()));
  std::printf("=> power is independent of training progress: a low-cost, "
              "a-priori constraint.\n\n");

  // ---- Right: learning curves of converging vs diverging configurations.
  std::printf("(right) learning curves: diverging configs identifiable after "
              "a few epochs\n");
  const std::vector<std::pair<const char*, core::Configuration>> cases{
      {"converging (lr 0.01, m 0.85)", {50, 3, 2, 400, 0.010, 0.85}},
      {"converging (lr 0.02, m 0.80)", {60, 4, 2, 500, 0.020, 0.80}},
      {"diverging  (lr 0.08, m 0.95)", {50, 3, 2, 400, 0.080, 0.95}},
      {"diverging  (lr 0.10, m 0.90)", {60, 4, 2, 500, 0.100, 0.90}},
  };
  std::vector<std::string> labels;
  std::vector<std::vector<double>> series;
  for (const auto& [label, cfg] : cases) {
    labels.emplace_back(label);
    series.push_back(objective.landscape().learning_curve(cfg, 1));
  }
  std::printf("%s\n", bench::render_ascii_series(
                          "test error per epoch (dark = high error)", labels,
                          series)
                          .c_str());
  report.add_series("learning_curves", labels, series);

  // Early-termination rule applied to the same curves.
  const core::EarlyTerminationRule& rule = core::kEarlyTermination;
  bench::TextTable right({"configuration", "diverges", "rule fires at epoch",
                          "training cost paid"});
  for (const auto& [label, cfg] : cases) {
    const auto lc = objective.landscape().learning_curve(cfg, 1);
    std::size_t fired = 0;
    for (std::size_t e = 0; e < lc.size(); ++e) {
      if (rule.should_terminate(e + 1, lc[e])) {
        fired = e + 1;
        break;
      }
    }
    right.add_row({label,
                   objective.landscape().diverges(cfg, 1) ? "yes" : "no",
                   fired == 0 ? "never" : std::to_string(fired),
                   fired == 0 ? "100%"
                              : bench::fmt_percent(
                                    static_cast<double>(fired) /
                                        static_cast<double>(lc.size()),
                                    0)});
  }
  std::printf("%s", right.render().c_str());
  report.add_table("early_termination", right);
  std::printf("=> diverging candidates cost ~%d%% of a full training under "
              "the early-termination rule.\n",
              static_cast<int>(100.0 * rule.check_after_epochs() /
                               pair.landscape.total_epochs));
  return 0;
}
