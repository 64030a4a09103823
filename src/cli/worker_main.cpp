#include "cli/worker_main.hpp"

#include <signal.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "cli/args.hpp"
#include "cli/objective_setup.hpp"
#include "core/resilience.hpp"
#include "core/thread_annotations.hpp"
#include "dist/wire.hpp"

namespace hp::cli {

namespace {

/// Periodic heartbeat sender. Owns the protocol-write lock: beats and
/// results share one mutex so frames never interleave on the pipe. The
/// lock is a leaf (§14) — held only around a write or a timed wait, never
/// while evaluating.
class HeartbeatThread {
 public:
  HeartbeatThread(int fd, double interval_s)
      : fd_(fd), interval_s_(interval_s), thread_([this] { loop(); }) {}

  ~HeartbeatThread() {
    {
      hp::MutexLock lock(mutex_);
      stop_ = true;
    }
    cv_.notify_all();
    thread_.join();
  }

  HeartbeatThread(const HeartbeatThread&) = delete;
  HeartbeatThread& operator=(const HeartbeatThread&) = delete;

  void set_job(std::optional<std::uint64_t> job) {
    hp::MutexLock lock(mutex_);
    job_ = job;
  }

  /// Hang-fault support: stop beating without stopping the thread, so the
  /// scheduler's missed-beat detector fires.
  void suspend() {
    hp::MutexLock lock(mutex_);
    suspended_ = true;
  }

  /// Serialized write of one already-framed line.
  [[nodiscard]] bool write_frame_line(const std::string& line) {
    hp::MutexLock lock(mutex_);
    return dist::write_all(fd_, line);
  }

 private:
  void loop() {
    hp::MutexLock lock(mutex_);
    while (!stop_) {
      const auto status = cv_.wait_for(
          mutex_, std::chrono::duration<double>(interval_s_));
      if (stop_ || suspended_ || status != std::cv_status::timeout) continue;
      // A failed beat write means the scheduler is gone; the main thread
      // will see EOF/EPIPE on its own and exit — nothing to do here.
      (void)dist::write_all(fd_, dist::encode_frame(dist::encode_beat(job_)));
    }
  }

  const int fd_;
  const double interval_s_;
  hp::Mutex mutex_;
  hp::CondVar cv_;
  std::optional<std::uint64_t> job_ HP_GUARDED_BY(mutex_);
  bool stop_ HP_GUARDED_BY(mutex_) = false;
  bool suspended_ HP_GUARDED_BY(mutex_) = false;
  std::thread thread_;
};

/// Reads one '\n'-terminated line from @p fd (blocking), buffering across
/// calls. Returns false on EOF/error.
bool read_line(int fd, std::string& buffer, std::string& line) {
  for (;;) {
    const auto newline = buffer.find('\n');
    if (newline != std::string::npos) {
      line = buffer.substr(0, newline);
      buffer.erase(0, newline + 1);
      return true;
    }
    char chunk[4096];
    const ssize_t n = ::read(fd, chunk, sizeof chunk);
    if (n > 0) {
      buffer.append(chunk, static_cast<std::size_t>(n));
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    return false;  // EOF or hard error
  }
}

std::vector<std::string> worker_flags() {
  std::vector<std::string> flags = evaluation_stack_flags();
  flags.push_back("heartbeat-interval");
  flags.push_back("worker-slot");
  return flags;
}

int serve(const Args& args) {
  const double heartbeat_s = args.get_double_or("heartbeat-interval", 0.5);
  if (!(std::isfinite(heartbeat_s) && heartbeat_s > 0.0)) {
    // A NaN or non-positive period would spin the heartbeat thread.
    throw std::invalid_argument(
        "--heartbeat-interval must be a finite number of seconds > 0");
  }
  auto stack = build_evaluation_stack(args);
  const EvaluationPolicy policy = evaluation_policy(args);
  const core::EarlyTerminationRule* rule =
      policy.use_early_termination ? &core::kEarlyTermination : nullptr;
  core::ResilientEvaluator evaluator(stack->search_objective(), policy.retry,
                                     policy.seed);

  HeartbeatThread heartbeat(STDOUT_FILENO, heartbeat_s);
  if (!heartbeat.write_frame_line(
          dist::encode_frame(dist::encode_hello(::getpid())))) {
    return 1;
  }

  std::string buffer;
  std::string line;
  while (read_line(STDIN_FILENO, buffer, line)) {
    const auto payload = dist::decode_frame(line);
    if (!payload) continue;  // torn scheduler frame: skip, await the next
    if (*payload == "quit") return 0;
    const auto job = dist::parse_job(*payload);
    if (!job) continue;

    const auto fault = core::scheduled_worker_fault(
        stack->fault_spec, job->sample_index, job->dispatch_attempt);
    if (fault == core::WorkerFault::Kill) {
      // Chaos: die exactly as a crashed training process would — no
      // unwinding, no goodbye; the scheduler sees EOF and requeues.
      ::raise(SIGKILL);
    }
    heartbeat.set_job(job->job_id);
    if (fault == core::WorkerFault::Hang) {
      // Chaos: wedge silently. Beats stop; the scheduler's job deadline or
      // missed-beat detector, whichever fires first, SIGKILLs the process.
      heartbeat.suspend();
      std::this_thread::sleep_for(std::chrono::hours(1));
      return 1;  // unreachable in practice: the scheduler kills us first
    }

    std::string reply;
    try {
      core::ResilientOutcome outcome =
          evaluator.evaluate(job->config, rule, job->sample_index,
                             /*detached=*/true);
      reply = dist::encode_frame(
          dist::encode_result(job->job_id, outcome.record));
    } catch (const std::exception& e) {
      // evaluate() never throws on evaluation failure; this is a worker
      // bug or resource exhaustion — report and stay alive.
      reply = dist::encode_frame(
          dist::encode_job_error(job->job_id, e.what()));
    }
    if (fault == core::WorkerFault::CorruptReply) {
      // Chaos: flip one payload byte after the checksum was computed, so
      // the scheduler's frame validation must catch it.
      const auto comma = reply.rfind(',');
      if (comma != std::string::npos && comma + 1 < reply.size()) {
        reply[comma + 1] = reply[comma + 1] == 'x' ? 'y' : 'x';
      }
    }
    heartbeat.set_job(std::nullopt);
    if (!heartbeat.write_frame_line(reply)) return 1;
  }
  return 0;  // scheduler closed our stdin: clean shutdown
}

}  // namespace

int worker_main(int argc, const char* const* argv) {
  // A dying scheduler must surface as a failed write, not SIGPIPE death.
  ::signal(SIGPIPE, SIG_IGN);
  try {
    const Args args(argc, argv);
    args.require_known(worker_flags());
    return serve(args);
  } catch (const std::invalid_argument& e) {
    std::fprintf(stderr, "hpo-worker: bad arguments: %s\n", e.what());
    return 2;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "hpo-worker: %s\n", e.what());
    return 1;
  }
}

}  // namespace hp::cli
