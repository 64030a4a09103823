#include "dist/job_scheduler.hpp"

#include <chrono>
#include <cmath>
#include <stdexcept>
#include <string>
#include <utility>

#include "dist/wire.hpp"
#include "obs/obs.hpp"
#include "stats/rng.hpp"

namespace hp::dist {

namespace {

/// Wall-clock seconds on the steady clock — deadline/backoff bookkeeping
/// only; the virtual evaluation clock never sees these.
double steady_now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Salt keeping the requeue-backoff streams independent of the evaluation
/// backoff streams (resilience.cpp) under the same run seed.
constexpr std::uint64_t kRequeueBackoffSalt = 0x7f4a7c159e3779b9ULL;

/// Event-loop poll granularity; bounds deadline-detection latency.
constexpr int kPollTimeoutMs = 50;

}  // namespace

FleetScheduler::FleetScheduler(FleetOptions options)
    : options_(std::move(options)) {
  // Negated comparisons so NaN lands in the throw: a NaN heartbeat spins
  // the event loop, and a NaN deadline silently never fires.
  if (!(std::isfinite(options_.heartbeat_interval_s) &&
        options_.heartbeat_interval_s > 0.0)) {
    throw std::invalid_argument(
        "FleetScheduler: heartbeat_interval_s must be finite and > 0");
  }
  if (!(options_.job_deadline_s > 0.0)) {
    throw std::invalid_argument(
        "FleetScheduler: job_deadline_s must be > 0 (not NaN)");
  }
  if (options_.missed_beat_limit == 0) {
    throw std::invalid_argument(
        "FleetScheduler: missed_beat_limit must be > 0");
  }
  options_.dispatch_retry.validate();
}

FleetScheduler::~FleetScheduler() { shutdown(); }

void FleetScheduler::shutdown() {
  if (shut_down_) return;
  shut_down_ = true;
  if (supervisor_) supervisor_->shutdown();
}

FleetScheduler::Stats FleetScheduler::stats() const {
  hp::MutexLock lock(stats_mutex_);
  return stats_;
}

void FleetScheduler::ensure_started() {
  if (shut_down_) {
    throw std::logic_error("FleetScheduler: evaluate_round after shutdown");
  }
  if (supervisor_) return;
  supervisor_ = std::make_unique<WorkerSupervisor>(options_.supervisor);
  supervisor_->start();
  workers_.assign(supervisor_->size(), WorkerState{});
  const double now = steady_now_s();
  for (WorkerState& state : workers_) state.last_activity_s = now;
  obs::logger().info(
      "fleet.started",
      {{"workers", obs::JsonValue(supervisor_->size())},
       {"binary", obs::JsonValue(options_.supervisor.worker_binary)}});
}

std::vector<core::EvaluationRecord> FleetScheduler::evaluate_round(
    std::vector<core::RoundJob> jobs) {
  ensure_started();
  JobTable table;
  std::vector<std::uint64_t> order;
  order.reserve(jobs.size());
  for (core::RoundJob& job : jobs) {
    const std::uint64_t id = next_job_id_++;
    table.add(id, job.sample_index, std::move(job.config));
    order.push_back(id);
  }
  not_before_.clear();

  while (!table.all_terminal()) {
    dispatch_queued(table);
    supervisor_->poll_lines(
        kPollTimeoutMs,
        [&](std::size_t slot, const std::string& line) {
          handle_line(table, slot, line);
        },
        [&](std::size_t slot) {
          handle_worker_death(table, slot, core::FailureKind::Transient,
                              "worker exited");
        });
    check_deadlines(table);
    if (!table.all_terminal() && fleet_unrecoverable()) {
      throw std::runtime_error(
          "fleet: every worker is dead past the respawn budget with jobs "
          "outstanding");
    }
  }

  std::vector<core::EvaluationRecord> records;
  records.reserve(order.size());
  for (const std::uint64_t id : order) {
    records.push_back(table.job(id).record);
  }
  return records;
}

void FleetScheduler::dispatch_queued(JobTable& table) {
  const double now = steady_now_s();
  const auto eligible = [&](std::uint64_t id) {
    for (const auto& [job_id, earliest_s] : not_before_) {
      if (job_id == id) return now >= earliest_s;
    }
    return true;
  };
  for (std::size_t slot = 0; slot < workers_.size(); ++slot) {
    if (!supervisor_->alive(slot)) continue;
    WorkerState& state = workers_[slot];
    if (!state.ready || state.job) continue;

    const Job* next = nullptr;
    for (const Job& job : table.jobs()) {
      if (job.state == JobState::Queued && eligible(job.id)) {
        next = &job;
        break;
      }
    }
    if (next == nullptr) return;  // nothing dispatchable right now

    JobRequest request;
    request.job_id = next->id;
    request.sample_index = next->sample_index;
    request.dispatch_attempt = next->dispatch_attempts + 1;
    request.config = next->config;
    if (!supervisor_->send(slot, encode_job(request))) {
      // EPIPE: the worker died under us; its in-flight state is empty, so
      // the job stays Queued and redispatches elsewhere.
      handle_worker_death(table, slot, core::FailureKind::Transient,
                          "job write failed");
      continue;
    }
    table.mark_dispatched(next->id, static_cast<int>(slot));
    state.job = next->id;
    state.dispatch_s = now;
    state.last_activity_s = now;
    {
      hp::MutexLock lock(stats_mutex_);
      ++stats_.dispatched;
    }
    if (obs::tracer().enabled()) {
      obs::tracer().instant("job.dispatch",
                            {{"job", next->id},
                             {"sample", next->sample_index},
                             {"slot", slot},
                             {"attempt", next->dispatch_attempts}});
    }
  }
}

void FleetScheduler::handle_line(JobTable& table, std::size_t slot,
                                 const std::string& line) {
  const auto payload = decode_frame(line);
  if (!payload) {
    note_garbage(table, slot);
    return;
  }
  auto message = parse_worker_message(*payload);
  if (!message) {
    note_garbage(table, slot);
    return;
  }
  WorkerState& state = workers_[slot];
  state.last_activity_s = steady_now_s();
  switch (message->kind) {
    case WorkerMessage::Kind::Hello:
      state.ready = true;
      obs::logger().info("fleet.worker_ready",
                         {{"slot", obs::JsonValue(slot)},
                          {"pid", obs::JsonValue(message->pid)}});
      break;
    case WorkerMessage::Kind::Beat:
      if (message->job_id && state.job && *message->job_id == *state.job) {
        table.mark_running(*state.job);
        if (obs::tracer().enabled()) {
          obs::tracer().instant("job.heartbeat",
                                {{"job", *state.job}, {"slot", slot}});
        }
      }
      break;
    case WorkerMessage::Kind::Result: {
      if (!state.job || !message->job_id || *message->job_id != *state.job) {
        // A result for a job this incarnation does not own is as
        // untrustworthy as a torn frame.
        note_garbage(table, slot);
        break;
      }
      const std::uint64_t id = *state.job;
      state.job.reset();
      table.mark_done(id, std::move(message->record));
      hp::MutexLock lock(stats_mutex_);
      ++stats_.completed;
      break;
    }
    case WorkerMessage::Kind::JobError:
      if (!state.job || !message->job_id || *message->job_id != *state.job) {
        note_garbage(table, slot);
        break;
      }
      obs::logger().warn("fleet.job_error",
                         {{"slot", obs::JsonValue(slot)},
                          {"job", obs::JsonValue(*state.job)},
                          {"error", obs::JsonValue(message->error)}});
      lose_in_flight(table, slot, core::FailureKind::Transient,
                     "worker job error");
      break;
  }
}

void FleetScheduler::note_garbage(JobTable& table, std::size_t slot) {
  WorkerState& state = workers_[slot];
  ++state.garbage;
  {
    hp::MutexLock lock(stats_mutex_);
    ++stats_.garbage_frames;
  }
  obs::logger().warn("fleet.garbage_frame",
                     {{"slot", obs::JsonValue(slot)},
                      {"count", obs::JsonValue(state.garbage)}});
  lose_in_flight(table, slot, core::FailureKind::Transient, "corrupt reply");
  if (state.garbage > options_.worker_garbage_budget) {
    // Demotion: an incarnation that keeps emitting garbage is replaced —
    // its respawn counts against the fleet budget like any other loss.
    handle_worker_death(table, slot, core::FailureKind::Transient,
                        "garbage budget exhausted");
  }
}

void FleetScheduler::handle_worker_death(JobTable& table, std::size_t slot,
                                         core::FailureKind kind,
                                         const char* reason) {
  {
    hp::MutexLock lock(stats_mutex_);
    ++stats_.worker_deaths;
  }
  obs::logger().warn("fleet.worker_death",
                     {{"slot", obs::JsonValue(slot)},
                      {"reason", obs::JsonValue(std::string(reason))}});
  lose_in_flight(table, slot, kind, reason);
  workers_[slot] = WorkerState{};
  workers_[slot].last_activity_s = steady_now_s();
  (void)supervisor_->respawn(slot);  // kills first when still alive
  hp::MutexLock lock(stats_mutex_);
  stats_.respawns = supervisor_->respawns();
}

void FleetScheduler::check_deadlines(JobTable& table) {
  const double now = steady_now_s();
  const double beat_budget_s =
      options_.heartbeat_interval_s *
      static_cast<double>(options_.missed_beat_limit);
  for (std::size_t slot = 0; slot < workers_.size(); ++slot) {
    if (!supervisor_->alive(slot)) continue;
    WorkerState& state = workers_[slot];
    if (state.job) {
      if (now - state.dispatch_s > options_.job_deadline_s) {
        // The run's one wall-clock deadline. Kill + reap: the process is
        // gone, so nothing of the hung attempt keeps running.
        handle_worker_death(table, slot, core::FailureKind::Timeout,
                            "job deadline exceeded");
      } else if (now - state.last_activity_s > beat_budget_s) {
        handle_worker_death(table, slot, core::FailureKind::Transient,
                            "missed heartbeats");
      }
    } else if (!state.ready &&
               now - state.last_activity_s > options_.job_deadline_s) {
      handle_worker_death(table, slot, core::FailureKind::Transient,
                          "worker never became ready");
    }
  }
}

void FleetScheduler::lose_in_flight(JobTable& table, std::size_t slot,
                                    core::FailureKind kind,
                                    const char* reason) {
  WorkerState& state = workers_[slot];
  if (!state.job) return;
  const std::uint64_t id = *state.job;
  state.job.reset();
  table.mark_lost(id);
  const Job& job = table.job(id);
  {
    hp::MutexLock lock(stats_mutex_);
    ++stats_.lost;
  }
  if (obs::tracer().enabled()) {
    obs::tracer().instant("job.lost", {{"job", id},
                                       {"sample", job.sample_index},
                                       {"attempt", job.dispatch_attempts},
                                       {"reason", reason}});
  }
  obs::logger().warn("fleet.job_lost",
                     {{"job", obs::JsonValue(id)},
                      {"sample", obs::JsonValue(job.sample_index)},
                      {"attempt", obs::JsonValue(job.dispatch_attempts)},
                      {"reason", obs::JsonValue(std::string(reason))}});
  if (job.dispatch_attempts >= options_.dispatch_retry.max_attempts ||
      !options_.dispatch_retry.retryable(kind)) {
    table.mark_failed(id, failed_record(job, kind));
    hp::MutexLock lock(stats_mutex_);
    ++stats_.failed_jobs;
    return;
  }
  table.requeue(id);
  not_before_.emplace_back(
      id, steady_now_s() +
              requeue_backoff_s(job.sample_index, job.dispatch_attempts));
  hp::MutexLock lock(stats_mutex_);
  ++stats_.requeued;
}

double FleetScheduler::requeue_backoff_s(std::size_t sample_index,
                                         std::size_t attempt) const {
  // Fresh stream advanced attempt times: the delay before dispatch k+1 is
  // a pure function of (run seed, sample, k) no matter how the losses
  // interleaved across workers.
  stats::Rng rng(stats::stream_seed(options_.run_seed ^ kRequeueBackoffSalt,
                                    sample_index));
  double backoff_s = 0.0;
  for (std::size_t k = 1; k <= attempt; ++k) {
    backoff_s = options_.dispatch_retry.backoff_s(k, rng);
  }
  return backoff_s;
}

core::EvaluationRecord FleetScheduler::failed_record(const Job& job,
                                                     core::FailureKind kind) {
  core::EvaluationRecord record;
  record.status = core::EvaluationStatus::Failed;
  record.test_error = 1.0;
  record.diverged = false;
  record.violates_constraints = false;
  record.cost_s = 0.0;
  record.measured = false;
  record.attempts = job.dispatch_attempts;
  record.failure_kind = kind;
  return record;
}

bool FleetScheduler::fleet_unrecoverable() {
  if (supervisor_->live_count() > 0) return false;
  for (std::size_t slot = 0; slot < workers_.size(); ++slot) {
    if (supervisor_->respawn(slot)) {
      workers_[slot] = WorkerState{};
      workers_[slot].last_activity_s = steady_now_s();
      hp::MutexLock lock(stats_mutex_);
      stats_.respawns = supervisor_->respawns();
      return false;
    }
  }
  return true;
}

}  // namespace hp::dist
