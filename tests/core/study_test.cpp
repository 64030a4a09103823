// Study-layer tests: the ask/tell state machine in isolation, driven by
// hand instead of by the Optimizer. The driver-level behavior (golden
// traces, resume, fleet) is pinned elsewhere; this file covers the
// contract of the interface itself — batch shortening on exhaustion,
// lifecycle ordering, tail dropping, the config re-stamp, and the books
// (counts, incumbent, clock, one definition of a measured violation).

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "core/clock.hpp"
#include "core/grid_search.hpp"
#include "core/random_search.hpp"
#include "core/study.hpp"
#include "core/trace_io.hpp"
#include "fake_objective.hpp"
#include "obs/obs.hpp"

namespace hp::core {
namespace {

using testing::fake_space;

OptimizerOptions batched_options(std::size_t batch_size) {
  OptimizerOptions options;
  options.seed = 7;
  options.batch_size = batch_size;
  options.use_hardware_models = false;
  options.use_early_termination = false;
  return options;
}

EvaluationRecord completed_record(const Trial& trial, double test_error) {
  EvaluationRecord r;
  r.config = trial.config;
  r.index = trial.sample_index;
  r.status = EvaluationStatus::Completed;
  r.test_error = test_error;
  r.measured_power_w = 10.0;
  r.measured_memory_mb = 10.0;
  r.cost_s = 5.0;
  return r;
}

/// Begins + tells every trial of a round with a synthetic completed
/// record; returns how many trials were admitted before a stopping rule
/// cut the tail.
std::size_t tell_round(Study& study, const std::vector<Trial>& trials) {
  std::size_t admitted = 0;
  for (const Trial& trial : trials) {
    if (!study.begin_trial(trial.sample_index)) break;
    if (trial.requires_evaluation) {
      study.tell({trial.sample_index, completed_record(trial, 0.5),
                  /*cost_on_clock=*/false});
    } else {
      study.tell({trial.sample_index, trial.resolved,
                  /*cost_on_clock=*/false});
    }
    ++admitted;
  }
  return admitted;
}

// The satellite regression: a finite proposer that runs out mid-batch
// shortens the round to the points actually produced — and once
// exhausted, ask() returns an empty batch. Padding (wrapped-around or
// repeated proposals) would silently corrupt grid-search semantics.
TEST(Study, ExhaustedProposerShortensThenEmptiesTheBatch) {
  const HyperParameterSpace space = fake_space();
  GridSearchOptions grid;
  grid.levels_per_dimension = 3;  // 3^2 = 9 points, not a multiple of 4
  GridSearchProposer proposer(space, grid);
  Clock clock;
  const OptimizerOptions options = batched_options(4);
  Study study(space, ConstraintBudgets{}, nullptr, options, proposer, clock);
  study.begin();

  std::vector<std::size_t> round_sizes;
  std::vector<Configuration> seen;
  while (!study.finished()) {
    const std::vector<Trial> trials = study.ask(options.batch_size);
    if (trials.empty()) break;
    round_sizes.push_back(trials.size());
    for (const Trial& trial : trials) seen.push_back(trial.config);
    ASSERT_EQ(tell_round(study, trials), trials.size());
  }

  // 9 grid points asked as 4 + 4 + 1: the last round is SHORT, and the
  // study reports finished instead of handing out a padded tenth trial.
  EXPECT_EQ(round_sizes, (std::vector<std::size_t>{4, 4, 1}));
  ASSERT_EQ(seen.size(), 9u);
  for (std::size_t i = 0; i < seen.size(); ++i) {
    for (std::size_t j = i + 1; j < seen.size(); ++j) {
      EXPECT_NE(seen[i], seen[j]) << "grid point repeated: " << i << "," << j;
    }
  }
  EXPECT_TRUE(study.finished());
  EXPECT_TRUE(study.ask(options.batch_size).empty());

  const RunResult result = study.finish();
  EXPECT_EQ(result.trace.size(), 9u);
  EXPECT_FALSE(result.aborted);
}

TEST(Study, AskOnFullyExhaustedProposerReturnsEmptyNotPadded) {
  const HyperParameterSpace space = fake_space();
  GridSearchOptions grid;
  grid.levels_per_dimension = 2;  // 4 points: one exact round of 4
  GridSearchProposer proposer(space, grid);
  Clock clock;
  const OptimizerOptions options = batched_options(4);
  Study study(space, ConstraintBudgets{}, nullptr, options, proposer, clock);
  study.begin();

  const std::vector<Trial> round = study.ask(4);
  ASSERT_EQ(round.size(), 4u);
  ASSERT_EQ(tell_round(study, round), 4u);
  // The grid is spent exactly at the round boundary: no short round, just
  // an immediately-finished study and an empty ask.
  EXPECT_TRUE(study.finished());
  EXPECT_TRUE(study.ask(4).empty());
  EXPECT_EQ(study.finish().trace.size(), 4u);
}

TEST(Study, AskWhileRoundPendingThrows) {
  const HyperParameterSpace space = fake_space();
  RandomSearchProposer proposer(space);
  Clock clock;
  const OptimizerOptions options = batched_options(2);
  Study study(space, ConstraintBudgets{}, nullptr, options, proposer, clock);
  study.begin();

  const std::vector<Trial> trials = study.ask(2);
  ASSERT_EQ(trials.size(), 2u);
  EXPECT_THROW((void)study.ask(2), std::logic_error);
  ASSERT_EQ(tell_round(study, trials), 2u);
  EXPECT_EQ(study.ask(2).size(), 2u);  // legal again once the round is told
}

TEST(Study, LifecycleOrderingIsEnforced) {
  const HyperParameterSpace space = fake_space();
  RandomSearchProposer proposer(space);
  Clock clock;
  const OptimizerOptions options = batched_options(3);
  Study study(space, ConstraintBudgets{}, nullptr, options, proposer, clock);
  study.begin();

  const std::vector<Trial> trials = study.ask(3);
  ASSERT_EQ(trials.size(), 3u);
  // Out of ask order: sample 1 before sample 0.
  EXPECT_THROW((void)study.begin_trial(trials[1].sample_index),
               std::logic_error);
  // Telling an un-begun trial is a driver bug, not a state transition.
  EXPECT_THROW(
      study.tell({trials[0].sample_index, completed_record(trials[0], 0.5),
                  /*cost_on_clock=*/false}),
      std::logic_error);
  ASSERT_TRUE(study.begin_trial(trials[0].sample_index));
  // Telling a different sample than the begun one is equally out of order.
  EXPECT_THROW(
      study.tell({trials[2].sample_index, completed_record(trials[2], 0.5),
                  /*cost_on_clock=*/false}),
      std::logic_error);
  study.tell({trials[0].sample_index, completed_record(trials[0], 0.5),
              /*cost_on_clock=*/false});
  ASSERT_TRUE(study.begin_trial(trials[1].sample_index));
  study.tell({trials[1].sample_index, completed_record(trials[1], 0.5),
              /*cost_on_clock=*/false});
  ASSERT_TRUE(study.begin_trial(trials[2].sample_index));
  study.tell({trials[2].sample_index, completed_record(trials[2], 0.5),
              /*cost_on_clock=*/false});
  EXPECT_EQ(study.finish().trace.size(), 3u);
}

TEST(Study, StoppingRuleDropsTheRoundTail) {
  const HyperParameterSpace space = fake_space();
  RandomSearchProposer proposer(space);
  Clock clock;
  OptimizerOptions options = batched_options(4);
  options.max_function_evaluations = 2;
  Study study(space, ConstraintBudgets{}, nullptr, options, proposer, clock);
  study.begin();

  const std::vector<Trial> trials = study.ask(4);
  ASSERT_EQ(trials.size(), 4u);
  // The budget admits two trials; begin_trial refuses the third and drops
  // the remaining tail in one transition.
  EXPECT_EQ(tell_round(study, trials), 2u);

  EXPECT_TRUE(study.finished());
  EXPECT_FALSE(study.aborted());
  // Nothing is left pending (ask would throw), and nothing more is asked.
  EXPECT_TRUE(study.ask(4).empty());
  const RunResult result = study.finish();
  EXPECT_EQ(result.trace.size(), 2u);
  EXPECT_EQ(result.trace.function_evaluations(), 2u);
  EXPECT_EQ(result.trace.completed_count(), 2u);
}

TEST(Study, TellRestampsConfigFromTheProposalCopy) {
  const HyperParameterSpace space = fake_space();
  RandomSearchProposer proposer(space);
  Clock clock;
  const OptimizerOptions options = batched_options(2);
  Study study(space, ConstraintBudgets{}, nullptr, options, proposer, clock);
  study.begin();

  const std::vector<Trial> trials = study.ask(2);
  ASSERT_EQ(trials.size(), 2u);
  for (const Trial& trial : trials) {
    ASSERT_TRUE(study.begin_trial(trial.sample_index));
    EvaluationRecord record = completed_record(trial, 0.25);
    // Mangle the config the executor hands back (a lossy wire, a worker
    // bug): the study must book its own proposal copy regardless.
    record.config = {-1.0, -1.0};
    study.tell({trial.sample_index, std::move(record),
                /*cost_on_clock=*/false});
  }
  const RunResult result = study.finish();
  ASSERT_EQ(result.trace.size(), 2u);
  for (std::size_t i = 0; i < 2; ++i) {
    EXPECT_EQ(result.trace.records()[i].config, trials[i].config);
  }
}

TEST(Study, BooksTrackClockBestAndCountsAcrossARound) {
  const HyperParameterSpace space = fake_space();
  RandomSearchProposer proposer(space);  // proposal_overhead_s() == 0.5
  Clock clock;
  const OptimizerOptions options = batched_options(2);
  Study study(space, ConstraintBudgets{}, nullptr, options, proposer, clock);
  study.begin();

  const std::vector<Trial> trials = study.ask(2);
  ASSERT_EQ(trials.size(), 2u);

  ASSERT_TRUE(study.begin_trial(trials[0].sample_index));
  EvaluationRecord failed = completed_record(trials[0], 1.0);
  failed.status = EvaluationStatus::Failed;
  failed.failure_kind = FailureKind::Transient;
  study.tell({trials[0].sample_index, std::move(failed),
              /*cost_on_clock=*/false});
  ASSERT_TRUE(study.begin_trial(trials[1].sample_index));
  study.tell({trials[1].sample_index, completed_record(trials[1], 0.5),
              /*cost_on_clock=*/false});

  // Two proposal overheads (2 x 0.5 s) + two evaluation costs (2 x 5 s).
  EXPECT_DOUBLE_EQ(clock.now_s(), 11.0);
  const RunResult result = study.finish();
  EXPECT_FALSE(result.aborted);
  ASSERT_EQ(result.trace.size(), 2u);
  EXPECT_EQ(result.trace.failed_count(), 1u);
  EXPECT_EQ(result.trace.completed_count(), 1u);
  ASSERT_TRUE(result.best.has_value());
  EXPECT_EQ(result.best->test_error, 0.5);
}

/// Keeps the measured-violation field of the progress and done events.
class ViolationFieldSink final : public obs::LogSink {
 public:
  void write(const obs::LogEvent& event) override {
    for (const obs::LogField& field : event.fields) {
      if ((event.name == "optimizer.progress" && field.key == "violations") ||
          (event.name == "optimizer.done" &&
           field.key == "measured_violations")) {
        fields[event.name] = field.value.dump();
      }
    }
  }
  std::map<std::string, std::string> fields;  ///< event name -> JSON value
};

// One definition of a measured violation: a function evaluation (Completed
// or EarlyTerminated) whose measured metrics break a budget. An
// early-terminated training measured over the power budget is one in the
// progress event, the done event, the metric and the trace alike.
TEST(Study, EarlyTerminatedOverBudgetIsOneMeasuredViolationEverywhere) {
  const HyperParameterSpace space = fake_space();
  RandomSearchProposer proposer(space);
  Clock clock;
  const OptimizerOptions options = batched_options(1);
  ConstraintBudgets budgets;
  budgets.power_w = 50.0;
  Study study(space, budgets, nullptr, options, proposer, clock);

  struct ObsOn {
    std::shared_ptr<ViolationFieldSink> sink =
        std::make_shared<ViolationFieldSink>();
    ObsOn() {
      obs::logger().add_sink(sink, obs::LogLevel::kInfo);
      obs::metrics().set_enabled(true);
    }
    ~ObsOn() {
      obs::logger().remove_sink(sink);
      obs::metrics().set_enabled(false);
    }
  } obs_on;
  const obs::Counter& counter =
      obs::metrics().counter("optimizer.measured_violations");
  const std::uint64_t counted_before = counter.value();

  study.begin();
  const std::vector<Trial> trials = study.ask(1);
  ASSERT_EQ(trials.size(), 1u);
  ASSERT_TRUE(study.begin_trial(trials[0].sample_index));
  EvaluationRecord record = completed_record(trials[0], 0.9);
  record.status = EvaluationStatus::EarlyTerminated;
  record.measured_power_w = 80.0;  // over the 50 W budget
  study.tell({trials[0].sample_index, std::move(record),
              /*cost_on_clock=*/false});
  const RunResult result = study.finish();

  EXPECT_EQ(obs_on.sink->fields["optimizer.progress"], "1");
  EXPECT_EQ(obs_on.sink->fields["optimizer.done"], "1");
  EXPECT_EQ(counter.value() - counted_before, 1u);
  EXPECT_EQ(result.trace.measured_violation_count(), 1u);
}

TEST(Study, FinishFinalizesTheJournalWithStudyState) {
  const HyperParameterSpace space = fake_space();
  RandomSearchProposer proposer(space);
  Clock clock;
  OptimizerOptions options = batched_options(2);
  options.journal_path =
      std::string(::testing::TempDir()) + "/study_finalize.hpj";
  Study study(space, ConstraintBudgets{}, nullptr, options, proposer, clock);
  study.begin();
  const std::vector<Trial> trials = study.ask(2);
  ASSERT_EQ(tell_round(study, trials), 2u);
  (void)study.finish();

  const JournalLoadResult loaded = EvalJournal::load(options.journal_path);
  EXPECT_TRUE(loaded.complete());
  EXPECT_EQ(loaded.study_state, "completed");
  EXPECT_EQ(loaded.records.size(), 2u);
  std::remove(options.journal_path.c_str());
}

/// Random search that counts the propose_batch calls its batched rounds
/// go through.
class CountingProposer final : public Proposer {
 public:
  using Proposer::Proposer;

  [[nodiscard]] std::string name() const override { return "Rand"; }
  [[nodiscard]] Configuration propose(stats::Rng& rng) override {
    return space().sample(rng);
  }
  [[nodiscard]] std::vector<Configuration> propose_batch(
      std::size_t first_sample_index, std::size_t count) override {
    ++batches;
    return Proposer::propose_batch(first_sample_index, count);
  }

  std::size_t batches = 0;
};

// A batched resume observes the replayed rounds; it re-proposes only the
// final kept round, which it compares with the journal.
TEST(Study, BatchedResumeProposesOnlyTheFinalKeptRound) {
  const HyperParameterSpace space = fake_space();
  const OptimizerOptions options = batched_options(4);
  std::vector<EvaluationRecord> records;
  std::vector<Configuration> fourth_round;
  {
    CountingProposer proposer(space);
    Clock clock;
    Study study(space, ConstraintBudgets{}, nullptr, options, proposer, clock);
    study.begin();
    for (int round = 0; round < 4; ++round) {
      const std::vector<Trial> trials = study.ask(4);
      ASSERT_EQ(tell_round(study, trials), 4u);
      if (round == 3) {
        for (const Trial& trial : trials) fourth_round.push_back(trial.config);
      }
    }
    ASSERT_EQ(proposer.batches, 4u);
    records = study.finish().trace.records();
  }
  // Three whole rounds and half of the fourth: the half round is dropped.
  records.resize(14);

  CountingProposer proposer(space);
  Clock clock;
  Study study(space, ConstraintBudgets{}, nullptr, options, proposer, clock);
  study.resume(records);
  EXPECT_EQ(proposer.batches, 1u);
  EXPECT_EQ(study.next_sample_index(), 12u);
  // The resumed study asks the fourth round the original asked.
  const std::vector<Trial> trials = study.ask(4);
  ASSERT_EQ(trials.size(), 4u);
  for (std::size_t j = 0; j < trials.size(); ++j) {
    EXPECT_EQ(trials[j].sample_index, 12 + j);
    EXPECT_EQ(trials[j].config, fourth_round[j]);
  }
  EXPECT_EQ(proposer.batches, 2u);
}

TEST(Study, JobsFromTrialsSkipsPreResolvedTrials) {
  std::vector<Trial> trials(3);
  trials[0].sample_index = 10;
  trials[0].config = {0.1, 0.2};
  trials[1].sample_index = 11;
  trials[1].requires_evaluation = false;  // model-filtered
  trials[2].sample_index = 12;
  trials[2].config = {0.3, 0.4};
  const std::vector<RoundJob> jobs = jobs_from_trials(trials);
  ASSERT_EQ(jobs.size(), 2u);
  EXPECT_EQ(jobs[0].sample_index, 10u);
  EXPECT_EQ(jobs[0].config, trials[0].config);
  EXPECT_EQ(jobs[1].sample_index, 12u);
  EXPECT_EQ(jobs[1].config, trials[2].config);
}

}  // namespace
}  // namespace hp::core
