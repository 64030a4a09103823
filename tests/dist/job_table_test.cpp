#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <optional>
#include <random>
#include <stdexcept>
#include <vector>

#include "dist/job_table.hpp"

namespace hp::dist {
namespace {

/// The id of the first Queued job, in the order the scheduler scans
/// JobTable::jobs(), or nullopt.
std::optional<std::uint64_t> next_queued(const JobTable& table) {
  for (const Job& job : table.jobs()) {
    if (job.state == JobState::Queued) return job.id;
  }
  return std::nullopt;
}

JobTable table_with(std::size_t n) {
  JobTable table;
  for (std::size_t i = 0; i < n; ++i) {
    table.add(i + 1, i, core::Configuration{0.5, 0.5});
  }
  return table;
}

TEST(JobTable, HappyPathLifecycle) {
  JobTable table = table_with(2);
  EXPECT_FALSE(table.all_terminal());
  ASSERT_TRUE(next_queued(table).has_value());
  EXPECT_EQ(*next_queued(table), 1u);

  table.mark_dispatched(1, 0);
  EXPECT_EQ(table.job(1).state, JobState::Dispatched);
  EXPECT_EQ(table.job(1).dispatch_attempts, 1u);
  EXPECT_EQ(table.job(1).worker_slot, 0);
  EXPECT_EQ(*next_queued(table), 2u);

  table.mark_running(1);
  table.mark_running(1);  // heartbeat repetition is idempotent
  EXPECT_EQ(table.job(1).state, JobState::Running);

  core::EvaluationRecord record;
  record.test_error = 0.25;
  table.mark_done(1, record);
  EXPECT_EQ(table.job(1).state, JobState::Done);
  EXPECT_EQ(table.job(1).record.test_error, 0.25);

  table.mark_dispatched(2, 1);
  table.mark_done(2, record);  // result can arrive before the first beat
  EXPECT_TRUE(table.all_terminal());
  EXPECT_FALSE(next_queued(table).has_value());
}

TEST(JobTable, LostRequeueIncrementsDispatchAttempts) {
  JobTable table = table_with(1);
  table.mark_dispatched(1, 0);
  table.mark_lost(1);
  EXPECT_EQ(table.job(1).state, JobState::Lost);
  table.requeue(1);
  EXPECT_EQ(table.job(1).state, JobState::Queued);
  ASSERT_TRUE(next_queued(table).has_value());

  table.mark_dispatched(1, 2);
  EXPECT_EQ(table.job(1).dispatch_attempts, 2u);
  table.mark_running(1);
  table.mark_lost(1);  // Running -> Lost (missed beats, blown deadline)
  core::EvaluationRecord failed;
  failed.status = core::EvaluationStatus::Failed;
  table.mark_failed(1, failed);  // Lost -> Failed when retries exhausted
  EXPECT_EQ(table.job(1).state, JobState::Failed);
  EXPECT_TRUE(table.all_terminal());
}

TEST(JobTable, IllegalTransitionsThrow) {
  JobTable table = table_with(1);
  core::EvaluationRecord record;
  // Queued jobs are not in flight: nothing to run, finish, or lose.
  EXPECT_THROW(table.mark_running(1), std::logic_error);
  EXPECT_THROW(table.mark_done(1, record), std::logic_error);
  EXPECT_THROW(table.mark_lost(1), std::logic_error);
  EXPECT_THROW(table.requeue(1), std::logic_error);

  table.mark_dispatched(1, 0);
  EXPECT_THROW(table.mark_dispatched(1, 1), std::logic_error);
  EXPECT_THROW(table.requeue(1), std::logic_error);  // only Lost requeues

  table.mark_done(1, record);
  // Terminal states are final.
  EXPECT_THROW(table.mark_running(1), std::logic_error);
  EXPECT_THROW(table.mark_lost(1), std::logic_error);
  EXPECT_THROW(table.mark_done(1, record), std::logic_error);
  EXPECT_THROW(table.mark_failed(1, record), std::logic_error);
}

TEST(JobTable, ReturnUnstartedUndoesTheDispatchAttempt) {
  JobTable table = table_with(1);
  table.mark_dispatched(1, 3);
  table.return_unstarted(1);
  EXPECT_EQ(table.job(1).state, JobState::Queued);
  EXPECT_EQ(table.job(1).dispatch_attempts, 0u);
  EXPECT_EQ(table.job(1).worker_slot, -1);
  table.mark_dispatched(1, 0);
  EXPECT_EQ(table.job(1).dispatch_attempts, 1u);  // the same attempt again
  table.mark_running(1);
  // A job with a heartbeat has started: only Lost may take it back.
  EXPECT_THROW(table.return_unstarted(1), std::logic_error);
}

/// The lifecycle as a reference state machine: which operation is legal
/// from which state, where it leads, and what it does to the attempts.
enum class Op { Dispatch, Running, Done, Failed, Lost, Requeue, Return };
constexpr std::array<Op, 7> kOps = {Op::Dispatch, Op::Running, Op::Done,
                                    Op::Failed,   Op::Lost,    Op::Requeue,
                                    Op::Return};

struct ModelJob {
  JobState state = JobState::Queued;
  std::size_t attempts = 0;
  int slot = -1;
  double error = 0.0;  ///< the record's test_error in Done/Failed
};

/// The state @p op leads to from @p from, or nullopt when it is illegal.
std::optional<JobState> model_step(JobState from, Op op) {
  const bool in_flight =
      from == JobState::Dispatched || from == JobState::Running;
  switch (op) {
    case Op::Dispatch:
      if (from == JobState::Queued) return JobState::Dispatched;
      break;
    case Op::Running:
      if (in_flight) return JobState::Running;
      break;
    case Op::Done:
      if (in_flight) return JobState::Done;
      break;
    case Op::Failed:
      if (in_flight || from == JobState::Lost) return JobState::Failed;
      break;
    case Op::Lost:
      if (in_flight) return JobState::Lost;
      break;
    case Op::Requeue:
      if (from == JobState::Lost) return JobState::Queued;
      break;
    case Op::Return:
      if (from == JobState::Dispatched) return JobState::Queued;
      break;
  }
  return std::nullopt;
}

void apply(JobTable& table, std::uint64_t id, Op op, int slot, double error) {
  core::EvaluationRecord record;
  record.test_error = error;
  switch (op) {
    case Op::Dispatch:
      table.mark_dispatched(id, slot);
      break;
    case Op::Running:
      table.mark_running(id);
      break;
    case Op::Done:
      table.mark_done(id, record);
      break;
    case Op::Failed:
      table.mark_failed(id, record);
      break;
    case Op::Lost:
      table.mark_lost(id);
      break;
    case Op::Requeue:
      table.requeue(id);
      break;
    case Op::Return:
      table.return_unstarted(id);
      break;
  }
}

TEST(JobTable, RandomSequencesMatchTheReferenceStateMachine) {
  constexpr std::size_t kJobs = 4;
  std::mt19937_64 rng(2718);
  std::size_t legal_steps[kOps.size()] = {};
  std::size_t illegal_steps = 0;
  for (std::size_t sequence = 0; sequence < 300; ++sequence) {
    JobTable table = table_with(kJobs);  // ids 1..kJobs
    std::vector<ModelJob> model(kJobs);
    for (std::size_t step = 0; step < 60; ++step) {
      // Ids past kJobs are unknown, which every operation must reject.
      const std::uint64_t id = 1 + rng() % (kJobs + 2);
      const Op op = kOps[rng() % kOps.size()];
      const int slot = static_cast<int>(rng() % 3);
      const double error = static_cast<double>(step) / 64.0;
      if (id > kJobs) {
        EXPECT_THROW(apply(table, id, op, slot, error), std::logic_error);
        continue;
      }
      ModelJob& expect = model[id - 1];
      const std::optional<JobState> next = model_step(expect.state, op);
      if (!next) {
        EXPECT_THROW(apply(table, id, op, slot, error), std::logic_error)
            << to_string(expect.state) << " op " << static_cast<int>(op);
        ++illegal_steps;
      } else {
        ASSERT_NO_THROW(apply(table, id, op, slot, error))
            << to_string(expect.state) << " op " << static_cast<int>(op);
        ++legal_steps[static_cast<std::size_t>(op)];
        if (op == Op::Dispatch) {
          ++expect.attempts;
          expect.slot = slot;
        }
        if (op == Op::Return) --expect.attempts;
        if (*next != JobState::Dispatched && *next != JobState::Running) {
          expect.slot = -1;
        }
        if (op == Op::Done || op == Op::Failed) expect.error = error;
        expect.state = *next;
      }
      // The whole table agrees with the model after every step, the
      // illegal ones included.
      bool all_terminal = true;
      std::optional<std::uint64_t> first_queued;
      for (std::size_t j = 0; j < kJobs; ++j) {
        const Job& job = table.job(j + 1);
        const ModelJob& m = model[j];
        ASSERT_EQ(job.state, m.state) << "job " << j + 1;
        ASSERT_EQ(job.dispatch_attempts, m.attempts) << "job " << j + 1;
        ASSERT_EQ(job.worker_slot, m.slot) << "job " << j + 1;
        if (m.state == JobState::Done || m.state == JobState::Failed) {
          ASSERT_EQ(job.record.test_error, m.error) << "job " << j + 1;
        } else {
          all_terminal = false;
        }
        if (!first_queued && m.state == JobState::Queued) first_queued = j + 1;
      }
      ASSERT_EQ(table.all_terminal(), all_terminal);
      ASSERT_EQ(next_queued(table), first_queued);
    }
  }
  // Every operation took its legal edges, and the illegal ones were tried.
  for (std::size_t op = 0; op < kOps.size(); ++op) {
    EXPECT_GT(legal_steps[op], 0u) << "op " << op;
  }
  EXPECT_GT(illegal_steps, 0u);
}

TEST(JobTable, UnknownAndDuplicateIdsThrow) {
  JobTable table = table_with(1);
  EXPECT_THROW(table.mark_dispatched(99, 0), std::logic_error);
  EXPECT_THROW((void)table.job(99), std::logic_error);
  EXPECT_THROW(table.add(1, 5, core::Configuration{}), std::logic_error);
}

TEST(JobTable, StateNamesAreStable) {
  EXPECT_STREQ(to_string(JobState::Queued), "queued");
  EXPECT_STREQ(to_string(JobState::Dispatched), "dispatched");
  EXPECT_STREQ(to_string(JobState::Running), "running");
  EXPECT_STREQ(to_string(JobState::Done), "done");
  EXPECT_STREQ(to_string(JobState::Failed), "failed");
  EXPECT_STREQ(to_string(JobState::Lost), "lost");
}

}  // namespace
}  // namespace hp::dist
