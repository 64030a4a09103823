// Exception propagation from Objective::evaluate_detached through the
// thread pool under injected faults: the pool's deterministic
// lowest-index-exception rule must hold for real EvalFailures, and no
// record may be lost or duplicated when some indices throw.

#include <gtest/gtest.h>

#include <atomic>
#include <cstddef>
#include <set>
#include <stdexcept>
#include <vector>

#include "core/fault_injection.hpp"
#include "core/objective.hpp"
#include "core/resilience.hpp"
#include "parallel/thread_pool.hpp"

#include "../core/fake_objective.hpp"

namespace hp::parallel {
namespace {

using core::Configuration;
using core::EvalFailure;
using core::EvaluationRecord;
using core::FailureKind;
using core::FaultInjectingObjective;
using core::FaultSpec;
using core::testing::FakeObjective;
using core::testing::fake_space;

std::vector<Configuration> probe_configs(std::size_t n) {
  std::vector<Configuration> configs;
  configs.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    configs.push_back(
        {0.001 * static_cast<double>(i), 1.0 - 0.0007 * static_cast<double>(i)});
  }
  return configs;
}

TEST(FaultPropagation, LowestIndexEvalFailureWinsAtAnyThreadCount) {
  FakeObjective inner(fake_space());
  FaultSpec spec;
  spec.failure_rate = 0.25;
  // Mixed kinds, so the surfaced exception identifies which index won.
  spec.transient_weight = 1.0;
  spec.persistent_weight = 1.0;
  spec.diverged_weight = 1.0;
  FaultInjectingObjective faulty(inner, spec);
  const std::vector<Configuration> configs = probe_configs(64);
  // Predict the schedule: the pool must surface the first scheduled fault.
  std::size_t first_faulty = configs.size();
  for (std::size_t i = 0; i < configs.size(); ++i) {
    if (faulty.scheduled_fault(configs[i], 1)) {
      first_faulty = i;
      break;
    }
  }
  ASSERT_LT(first_faulty, configs.size()) << "probe set scheduled no faults";
  const FailureKind expected_kind =
      *faulty.scheduled_fault(configs[first_faulty], 1);

  for (std::size_t workers : {std::size_t{0}, std::size_t{2}, std::size_t{4}}) {
    ThreadPool pool(workers);
    std::atomic<std::size_t> executed{0};
    bool threw = false;
    try {
      std::vector<EvaluationRecord> records(configs.size());
      pool.parallel_for(configs.size(), [&](std::size_t i) {
        executed.fetch_add(1, std::memory_order_relaxed);
        records[i] = faulty.evaluate_detached(configs[i], nullptr);
      });
    } catch (const EvalFailure& e) {
      threw = true;
      EXPECT_EQ(e.kind(), expected_kind) << "workers=" << workers;
    }
    EXPECT_TRUE(threw) << "workers=" << workers;
    // Every index ran exactly once despite the failures.
    EXPECT_EQ(executed.load(), configs.size()) << "workers=" << workers;
  }
}

TEST(FaultPropagation, SurvivingRecordsAreIdenticalAcrossThreadCounts) {
  // Wrap each index in its own try: the map then completes, and the
  // resulting records must be the same set at every thread count — no
  // index lost, none duplicated, values bit-identical.
  FakeObjective inner(fake_space());
  FaultSpec spec;
  spec.failure_rate = 0.3;
  FaultInjectingObjective faulty(inner, spec);
  const std::vector<Configuration> configs = probe_configs(100);

  const auto run = [&](std::size_t workers) {
    ThreadPool pool(workers);
    std::vector<EvaluationRecord> records(configs.size());
    pool.parallel_for(configs.size(), [&](std::size_t i) {
      EvaluationRecord& record = records[i];
      try {
        record = faulty.evaluate_detached(configs[i], nullptr);
      } catch (const EvalFailure& e) {
        record.config = configs[i];
        record.status = core::EvaluationStatus::Failed;
        record.failure_kind = e.kind();
        record.cost_s = e.cost_s();
      }
      record.index = i;
    });
    return records;
  };

  const std::vector<EvaluationRecord> serial = run(0);
  ASSERT_EQ(serial.size(), configs.size());
  std::set<std::size_t> indices;
  std::size_t failed = 0;
  for (const auto& record : serial) {
    indices.insert(record.index);
    if (record.status == core::EvaluationStatus::Failed) ++failed;
  }
  EXPECT_EQ(indices.size(), configs.size());  // exactly once each
  EXPECT_GT(failed, 10u);
  EXPECT_LT(failed, 60u);

  for (std::size_t workers : {std::size_t{2}, std::size_t{4}}) {
    const std::vector<EvaluationRecord> parallel_records = run(workers);
    ASSERT_EQ(parallel_records.size(), serial.size()) << "workers=" << workers;
    for (std::size_t i = 0; i < serial.size(); ++i) {
      EXPECT_EQ(parallel_records[i].index, serial[i].index);
      EXPECT_EQ(parallel_records[i].status, serial[i].status);
      EXPECT_EQ(parallel_records[i].test_error, serial[i].test_error);
      EXPECT_EQ(parallel_records[i].cost_s, serial[i].cost_s);
      EXPECT_EQ(parallel_records[i].failure_kind, serial[i].failure_kind);
    }
  }
}

TEST(FaultPropagation, NonEvalFailureExceptionsAlsoPropagate) {
  ThreadPool pool(3);
  std::vector<int> out(16);
  EXPECT_THROW(pool.parallel_for(out.size(),
                                 [&](std::size_t i) {
                                   if (i == 5) throw std::logic_error("bug");
                                   out[i] = static_cast<int>(i);
                                 }),
               std::logic_error);
}

}  // namespace
}  // namespace hp::parallel
