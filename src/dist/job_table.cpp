#include "dist/job_table.hpp"

#include <string>
#include <utility>

namespace hp::dist {

const char* to_string(JobState state) noexcept {
  switch (state) {
    case JobState::Queued:
      return "queued";
    case JobState::Dispatched:
      return "dispatched";
    case JobState::Running:
      return "running";
    case JobState::Done:
      return "done";
    case JobState::Failed:
      return "failed";
    case JobState::Lost:
      return "lost";
  }
  return "?";
}

namespace {

[[noreturn]] void illegal(std::uint64_t id, JobState from, const char* to) {
  throw std::logic_error("job table: illegal transition of job " +
                         std::to_string(id) + ": " + to_string(from) + " -> " +
                         to);
}

}  // namespace

void JobTable::add(std::uint64_t id, std::size_t sample_index,
                   core::Configuration config) {
  for (const Job& job : jobs_) {
    if (job.id == id) {
      throw std::logic_error("job table: duplicate job id " +
                             std::to_string(id));
    }
  }
  Job job;
  job.id = id;
  job.sample_index = sample_index;
  job.config = std::move(config);
  jobs_.push_back(std::move(job));
}

Job& JobTable::find(std::uint64_t id) {
  for (Job& job : jobs_) {
    if (job.id == id) return job;
  }
  throw std::logic_error("job table: unknown job id " + std::to_string(id));
}

const Job& JobTable::job(std::uint64_t id) const {
  return const_cast<JobTable*>(this)->find(id);
}

void JobTable::mark_dispatched(std::uint64_t id, int worker_slot) {
  Job& job = find(id);
  if (job.state != JobState::Queued) illegal(id, job.state, "dispatched");
  job.state = JobState::Dispatched;
  job.worker_slot = worker_slot;
  ++job.dispatch_attempts;
}

void JobTable::mark_running(std::uint64_t id) {
  Job& job = find(id);
  if (job.state == JobState::Running) return;  // repeat heartbeat
  if (job.state != JobState::Dispatched) illegal(id, job.state, "running");
  job.state = JobState::Running;
}

void JobTable::mark_done(std::uint64_t id, core::EvaluationRecord record) {
  Job& job = find(id);
  if (job.state != JobState::Dispatched && job.state != JobState::Running) {
    illegal(id, job.state, "done");
  }
  job.state = JobState::Done;
  job.worker_slot = -1;
  job.record = std::move(record);
}

void JobTable::mark_failed(std::uint64_t id, core::EvaluationRecord record) {
  Job& job = find(id);
  // Failed is reachable from Lost (requeue budget exhausted) as well as
  // from the in-flight states (a worker's jerr reply past the budget); a
  // Queued job has had no attempt to fail.
  if (job.state == JobState::Queued || job.state == JobState::Done ||
      job.state == JobState::Failed) {
    illegal(id, job.state, "failed");
  }
  job.state = JobState::Failed;
  job.worker_slot = -1;
  job.record = std::move(record);
}

void JobTable::mark_lost(std::uint64_t id) {
  Job& job = find(id);
  if (job.state != JobState::Dispatched && job.state != JobState::Running) {
    illegal(id, job.state, "lost");
  }
  job.state = JobState::Lost;
  job.worker_slot = -1;
}

void JobTable::requeue(std::uint64_t id) {
  Job& job = find(id);
  if (job.state != JobState::Lost) illegal(id, job.state, "queued");
  job.state = JobState::Queued;
}

void JobTable::return_unstarted(std::uint64_t id) {
  Job& job = find(id);
  // A job with a heartbeat has started; only Lost may take it back.
  if (job.state != JobState::Dispatched) illegal(id, job.state, "queued");
  job.state = JobState::Queued;
  job.worker_slot = -1;
  --job.dispatch_attempts;
}

bool JobTable::all_terminal() const noexcept {
  for (const Job& job : jobs_) {
    if (job.state != JobState::Done && job.state != JobState::Failed) {
      return false;
    }
  }
  return true;
}

}  // namespace hp::dist
