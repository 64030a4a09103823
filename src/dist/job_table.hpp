#pragma once
// The fleet scheduler's job table: one row per candidate of the round in
// flight, with an explicit lifecycle state machine (DESIGN.md §15):
//
//   Queued -> Dispatched -> Running -> { Done, Failed }
//    ^  ^        |   |         |
//    |  +--------+   |         |      (return: never started)
//    |               v         v
//    +------------- Lost <-----+      (requeue, per RetryPolicy)
//
// Dispatched marks the job written to a worker's pipe; Running marks the
// first heartbeat naming it. Lost covers every way a worker stops
// answering for the job it was running — death, missed beats, a blown
// deadline, a corrupt reply — and re-enters Queued through requeue. A
// job still queued in a lost worker's pipe behind that one never started:
// it returns to Queued directly, its dispatch attempt undone. Done and
// Failed are terminal and carry the job's record (Failed rows synthesize
// one after dispatch attempts are exhausted).
//
// The table is pure bookkeeping: no I/O, no clocks, no locks — it runs on
// the scheduler's event-loop thread, and illegal transitions throw
// std::logic_error (a scheduler bug, not an environment failure), which
// is what makes the state machine unit-testable without processes.

#include <cstddef>
#include <cstdint>
#include <optional>
#include <stdexcept>
#include <vector>

#include "core/objective.hpp"

namespace hp::dist {

enum class JobState { Queued, Dispatched, Running, Done, Failed, Lost };

[[nodiscard]] const char* to_string(JobState state) noexcept;

/// One job row. worker_slot is meaningful in Dispatched/Running; record is
/// meaningful in Done/Failed.
struct Job {
  std::uint64_t id = 0;
  std::size_t sample_index = 0;
  core::Configuration config;
  JobState state = JobState::Queued;
  /// Times this job has been written to a worker (1-based after the first
  /// dispatch) — the chaos-schedule and requeue-budget key.
  std::size_t dispatch_attempts = 0;
  int worker_slot = -1;
  core::EvaluationRecord record;
};

class JobTable {
 public:
  /// Adds a Queued job; ids are assigned by the caller (the scheduler
  /// numbers jobs monotonically across rounds so stale replies from a
  /// previous round can never alias a live job).
  void add(std::uint64_t id, std::size_t sample_index,
           core::Configuration config);

  // Transitions; each throws std::logic_error when the job is missing or
  // not in a legal source state.
  void mark_dispatched(std::uint64_t id, int worker_slot);
  void mark_running(std::uint64_t id);  ///< idempotent while Running
  void mark_done(std::uint64_t id, core::EvaluationRecord record);
  void mark_failed(std::uint64_t id, core::EvaluationRecord record);
  void mark_lost(std::uint64_t id);
  void requeue(std::uint64_t id);  ///< Lost -> Queued
  /// Dispatched -> Queued for a job its worker never started; undoes the
  /// dispatch attempt, so the job's next dispatch carries the same one.
  void return_unstarted(std::uint64_t id);

  [[nodiscard]] const Job& job(std::uint64_t id) const;
  [[nodiscard]] const std::vector<Job>& jobs() const noexcept { return jobs_; }

  /// True when every job is Done or Failed.
  [[nodiscard]] bool all_terminal() const noexcept;

 private:
  [[nodiscard]] Job& find(std::uint64_t id);

  std::vector<Job> jobs_;
};

}  // namespace hp::dist
