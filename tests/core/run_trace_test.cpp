#include "core/run_trace.hpp"

#include <gtest/gtest.h>

#include <sstream>

namespace hp::core {
namespace {

EvaluationRecord record(EvaluationStatus status, double error, double ts,
                        bool violates = false, bool diverged = false) {
  EvaluationRecord r;
  r.status = status;
  r.test_error = error;
  r.timestamp_s = ts;
  r.violates_constraints = violates;
  r.diverged = diverged;
  return r;
}

RunTrace sample_trace() {
  RunTrace t;
  t.add(record(EvaluationStatus::Completed, 0.30, 100.0));
  t.add(record(EvaluationStatus::ModelFiltered, 1.0, 103.0, true));
  t.add(record(EvaluationStatus::Completed, 0.25, 200.0, true));  // violating
  t.add(record(EvaluationStatus::EarlyTerminated, 0.9, 230.0, false, true));
  t.add(record(EvaluationStatus::Completed, 0.20, 340.0));
  t.add(record(EvaluationStatus::InfeasibleArchitecture, 1.0, 345.0));
  t.add(record(EvaluationStatus::Completed, 0.22, 460.0));
  return t;
}

TEST(RunTrace, Counters) {
  const RunTrace t = sample_trace();
  EXPECT_EQ(t.size(), 7u);
  EXPECT_EQ(t.function_evaluations(), 5u);  // completed + early-terminated
  EXPECT_EQ(t.completed_count(), 4u);
  EXPECT_EQ(t.model_filtered_count(), 1u);
  EXPECT_EQ(t.early_terminated_count(), 1u);
  EXPECT_EQ(t.measured_violation_count(), 1u);  // only the trained violator
}

TEST(RunTrace, BestErrorSeriesPerFunctionEvaluation) {
  const RunTrace t = sample_trace();
  const auto series = t.best_error_per_function_evaluation();
  ASSERT_EQ(series.size(), 5u);
  EXPECT_DOUBLE_EQ(series[0], 0.30);
  EXPECT_DOUBLE_EQ(series[1], 0.30);
  EXPECT_DOUBLE_EQ(series[2], 0.30);
  EXPECT_DOUBLE_EQ(series[3], 0.20);
  EXPECT_DOUBLE_EQ(series[4], 0.20);
}

TEST(RunTrace, ViolationSeriesCumulative) {
  const RunTrace t = sample_trace();
  const auto series = t.violations_per_function_evaluation();
  ASSERT_EQ(series.size(), 5u);
  EXPECT_EQ(series[0], 0u);
  EXPECT_EQ(series[1], 1u);
  EXPECT_EQ(series[4], 1u);
}

TEST(RunTrace, TimeToSampleCount) {
  const RunTrace t = sample_trace();
  EXPECT_FALSE(t.time_to_sample_count(0).has_value());
  EXPECT_DOUBLE_EQ(*t.time_to_sample_count(1), 100.0);
  EXPECT_DOUBLE_EQ(*t.time_to_sample_count(7), 460.0);
  EXPECT_FALSE(t.time_to_sample_count(8).has_value());
}

TEST(RunTrace, TimeToError) {
  const RunTrace t = sample_trace();
  EXPECT_DOUBLE_EQ(*t.time_to_error(0.30), 100.0);
  EXPECT_DOUBLE_EQ(*t.time_to_error(0.21), 340.0);
  EXPECT_FALSE(t.time_to_error(0.1).has_value());
}

TEST(RunTrace, TotalTime) {
  EXPECT_DOUBLE_EQ(sample_trace().total_time_s(), 460.0);
  EXPECT_DOUBLE_EQ(RunTrace{}.total_time_s(), 0.0);
}

TEST(RunTrace, CsvHasHeaderAndOneRowPerRecord) {
  const RunTrace t = sample_trace();
  std::ostringstream os;
  t.write_csv(os);
  const std::string csv = os.str();
  std::size_t lines = 0;
  for (char c : csv) {
    if (c == '\n') ++lines;
  }
  EXPECT_EQ(lines, 8u);  // header + 7 records
  EXPECT_NE(csv.find("model_filtered"), std::string::npos);
  EXPECT_NE(csv.find("early_terminated"), std::string::npos);
}

TEST(RunTrace, EmptyTraceDerivedSeries) {
  const RunTrace t;
  EXPECT_TRUE(t.empty());
  EXPECT_EQ(t.function_evaluations(), 0u);
  EXPECT_EQ(t.measured_violation_count(), 0u);
  EXPECT_TRUE(t.best_error_per_function_evaluation().empty());
  EXPECT_TRUE(t.violations_per_function_evaluation().empty());
  EXPECT_FALSE(t.time_to_sample_count(1).has_value());
  EXPECT_FALSE(t.time_to_error(1.0).has_value());
  std::ostringstream os;
  t.write_csv(os);
  std::size_t lines = 0;
  for (char c : os.str()) {
    if (c == '\n') ++lines;
  }
  EXPECT_EQ(lines, 1u);  // header only
}

TEST(RunTrace, AllSamplesFilteredTrace) {
  // A HyperPower run where the models reject everything: samples exist but
  // no function evaluation ever happens, so the per-evaluation series stay
  // empty while the per-sample queries still work.
  RunTrace t;
  for (int i = 0; i < 3; ++i) {
    t.add(record(EvaluationStatus::ModelFiltered, 1.0, 10.0 * (i + 1), true));
  }
  EXPECT_EQ(t.size(), 3u);
  EXPECT_EQ(t.function_evaluations(), 0u);
  EXPECT_EQ(t.model_filtered_count(), 3u);
  EXPECT_EQ(t.measured_violation_count(), 0u);  // violating by prediction only
  EXPECT_TRUE(t.best_error_per_function_evaluation().empty());
  EXPECT_TRUE(t.violations_per_function_evaluation().empty());
  EXPECT_DOUBLE_EQ(*t.time_to_sample_count(3), 30.0);
  EXPECT_FALSE(t.time_to_error(1.0).has_value());
  EXPECT_DOUBLE_EQ(t.total_time_s(), 30.0);
}

TEST(RunTrace, SingleEarlyTerminatedRecord) {
  RunTrace t;
  t.add(record(EvaluationStatus::EarlyTerminated, 0.9, 42.0, false, true));
  EXPECT_EQ(t.function_evaluations(), 1u);  // it did invoke the objective
  EXPECT_EQ(t.completed_count(), 0u);
  EXPECT_EQ(t.early_terminated_count(), 1u);
  // But it never counts for best: nothing feasible yet.
  const auto series = t.best_error_per_function_evaluation();
  ASSERT_EQ(series.size(), 1u);
  EXPECT_DOUBLE_EQ(series[0], 1.0);
  EXPECT_DOUBLE_EQ(*t.time_to_sample_count(1), 42.0);
  EXPECT_FALSE(t.time_to_error(0.9).has_value());
}

TEST(EvaluationStatus, ToStringCoversAll) {
  EXPECT_EQ(to_string(EvaluationStatus::Completed), "completed");
  EXPECT_EQ(to_string(EvaluationStatus::EarlyTerminated), "early_terminated");
  EXPECT_EQ(to_string(EvaluationStatus::ModelFiltered), "model_filtered");
  EXPECT_EQ(to_string(EvaluationStatus::InfeasibleArchitecture),
            "infeasible_architecture");
}

TEST(EvaluationRecord, CountsForBestRules) {
  EXPECT_TRUE(record(EvaluationStatus::Completed, 0.1, 0).counts_for_best());
  EXPECT_FALSE(
      record(EvaluationStatus::Completed, 0.1, 0, true).counts_for_best());
  EXPECT_FALSE(record(EvaluationStatus::Completed, 0.9, 0, false, true)
                   .counts_for_best());
  EXPECT_FALSE(
      record(EvaluationStatus::EarlyTerminated, 0.9, 0).counts_for_best());
  EXPECT_FALSE(
      record(EvaluationStatus::ModelFiltered, 1.0, 0).counts_for_best());
}

}  // namespace
}  // namespace hp::core
