#pragma once
// FleetScheduler: the RoundDispatcher implementation behind `--workers N`
// (DESIGN.md §15). It owns a WorkerSupervisor (the process fleet) and a
// JobTable per round, and runs a single-threaded poll(2) event loop on the
// driver thread: dispatch queued jobs to idle ready workers, drain worker
// frames, transition the table on results/heartbeats, and enforce wall-
// clock deadlines and missed-beat detection by SIGKILL + reap. The job
// deadline is the system's only wall-clock deadline on an evaluation (the
// in-process path has none): the killed worker is *gone*, so nothing
// keeps running past it.
//
// Failure handling routes through the EvalFailure taxonomy: a worker
// death, missed heartbeat, blown deadline, or corrupt reply marks the
// in-flight job Lost with a FailureKind, and the seeded dispatch
// RetryPolicy decides requeue vs a synthesized Failed record. Requeue
// backoff is a pure function of (run seed, sample index, dispatch
// attempt) and is waited in *real* seconds — the virtual clock only ever
// sees worker-computed record costs, so the trace stays a pure function
// of (seed, batch_size).
//
// Concurrency (§14 TSA regime): the event loop, supervisor, and job table
// are confined to the driver thread and hold no locks. The one mutex here
// is stats_mutex_ — a leaf-ranked hp::Mutex guarding the Stats snapshot
// so tests and progress reporters may read counters from other threads.
// It is never held across supervisor calls, waits, or any other lock.

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/dispatch.hpp"
#include "core/resilience.hpp"
#include "core/thread_annotations.hpp"
#include "dist/job_table.hpp"
#include "dist/worker_supervisor.hpp"

namespace hp::dist {

struct FleetOptions {
  /// Supervisor configuration (worker binary, shared argv, fleet size,
  /// respawn budget).
  WorkerSupervisor::Options supervisor;
  /// Wall-clock seconds a dispatched job may take before its worker is
  /// killed and the job goes Lost with FailureKind::Timeout (also the
  /// grace for worker startup). Must be > 0; +infinity disables it.
  double job_deadline_s = 120.0;
  /// The workers' heartbeat period (must match the --heartbeat-interval
  /// the workers were launched with). Must be finite and > 0.
  double heartbeat_interval_s = 0.5;
  /// Missed consecutive beats before an in-flight worker is declared lost.
  std::size_t missed_beat_limit = 8;
  /// Garbage frames tolerated per worker incarnation before it is demoted
  /// (killed + respawned against the respawn budget).
  std::size_t worker_garbage_budget = 3;
  /// Requeue policy for Lost/errored jobs: max_attempts bounds dispatches
  /// per job, backoff_* shape the real-seconds requeue delay. Backoff here
  /// is waited for real (scheduling hygiene), never charged to the
  /// virtual clock. Validated at construction (RetryPolicy::validate).
  core::RetryPolicy dispatch_retry{};
  /// Seeds the requeue-backoff jitter streams (pure per sample/attempt).
  std::uint64_t run_seed = 1;
};

class FleetScheduler final : public core::RoundDispatcher {
 public:
  /// Throws std::invalid_argument on an out-of-range or NaN timing option
  /// or an invalid dispatch_retry.
  explicit FleetScheduler(FleetOptions options);
  ~FleetScheduler() override;

  FleetScheduler(const FleetScheduler&) = delete;
  FleetScheduler& operator=(const FleetScheduler&) = delete;

  /// Blocks until every job is Done or Failed; returns records in job
  /// order. Workers are spawned lazily on the first round. Throws
  /// std::runtime_error only when the fleet itself is unrecoverable
  /// (every slot dead past the respawn budget with jobs outstanding).
  [[nodiscard]] std::vector<core::EvaluationRecord> evaluate_round(
      std::vector<core::RoundJob> jobs) override;

  /// Graceful fleet stop (quit, grace, SIGKILL stragglers, reap). Also
  /// run by the destructor; idempotent.
  void shutdown();

  /// Fleet-level counters, for the CLI summary and the chaos CI job's
  /// "a worker really died" assertion.
  struct Stats {
    std::size_t dispatched = 0;       ///< job frames written
    std::size_t completed = 0;        ///< jobs finished with a record
    std::size_t lost = 0;             ///< Lost transitions
    std::size_t requeued = 0;         ///< Lost -> Queued transitions
    std::size_t failed_jobs = 0;      ///< synthesized Failed records
    std::size_t worker_deaths = 0;    ///< EOF/kill events observed
    std::size_t respawns = 0;         ///< supervisor respawns
    std::size_t garbage_frames = 0;   ///< undecodable/unparseable lines
  };
  [[nodiscard]] Stats stats() const;

 private:
  /// Mutable per-incarnation worker state the event loop tracks alongside
  /// the supervisor's slots.
  struct WorkerState {
    bool ready = false;  ///< hello received from this incarnation
    std::optional<std::uint64_t> job;
    /// Wall-clock ticks (steady, seconds) of the last frame / dispatch.
    double last_activity_s = 0.0;
    double dispatch_s = 0.0;
    std::size_t garbage = 0;
  };

  void ensure_started();
  void dispatch_queued(JobTable& table);
  void handle_line(JobTable& table, std::size_t slot, const std::string& line);
  void handle_worker_death(JobTable& table, std::size_t slot,
                           core::FailureKind kind, const char* reason);
  void check_deadlines(JobTable& table);
  /// Lost -> requeue-or-fail for the job (if any) in flight on @p slot.
  void lose_in_flight(JobTable& table, std::size_t slot,
                      core::FailureKind kind, const char* reason);
  void note_garbage(JobTable& table, std::size_t slot);
  /// Seeded real-seconds backoff before dispatch attempt @p attempt + 1.
  [[nodiscard]] double requeue_backoff_s(std::size_t sample_index,
                                         std::size_t attempt) const;
  /// Terminal Failed record for a job whose dispatches are exhausted.
  [[nodiscard]] static core::EvaluationRecord failed_record(
      const Job& job, core::FailureKind kind);
  /// True when no worker can ever serve jobs again.
  [[nodiscard]] bool fleet_unrecoverable();

  FleetOptions options_;
  std::unique_ptr<WorkerSupervisor> supervisor_;
  std::vector<WorkerState> workers_;
  std::uint64_t next_job_id_ = 1;
  /// Earliest steady-clock second each requeued job may redispatch.
  std::vector<std::pair<std::uint64_t, double>> not_before_;
  bool shut_down_ = false;

  /// Leaf lock (§14): guards only the stats snapshot; never held across
  /// supervisor calls, polls, or any other acquisition.
  mutable hp::Mutex stats_mutex_;
  Stats stats_ HP_GUARDED_BY(stats_mutex_);
};

}  // namespace hp::dist
