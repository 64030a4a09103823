// End-to-end fleet tests against the real hpo-worker binary (path baked in
// via HYPERPOWER_WORKER_BIN). The golden-trace guarantee under test: a
// fleet run — including chaos runs that SIGKILL workers mid-round — merges
// into a trace bit-identical to the in-process batched run, and the
// supervisor reaps every process it ever spawned (no zombies).

#include <gtest/gtest.h>

#include <sys/wait.h>

#include <cerrno>
#include <cstdlib>
#include <limits>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "cli/objective_setup.hpp"
#include "core/framework.hpp"
#include "dist/job_scheduler.hpp"
#include "dist/worker_supervisor.hpp"
#include "obs/log.hpp"

namespace hp::dist {
namespace {

/// Owns the token storage behind a cli::Args (which keeps string_views of
/// argv alive only for the constructor call, but needs stable argv).
class ArgvBuilder {
 public:
  explicit ArgvBuilder(std::vector<std::string> tokens)
      : storage_(std::move(tokens)) {
    pointers_.push_back("test");
    for (const std::string& token : storage_) {
      pointers_.push_back(token.c_str());
    }
  }

  [[nodiscard]] cli::Args args() const {
    return cli::Args(static_cast<int>(pointers_.size()), pointers_.data());
  }

 private:
  std::vector<std::string> storage_;
  std::vector<const char*> pointers_;
};

/// The evaluation-stack flags shared by the in-process reference run and
/// the fleet workers — identical values are what makes traces comparable.
std::vector<std::string> stack_flags() {
  return {"--problem",       "tiny_mnist", "--device",        "GTX 1070",
          "--power-budget",  "90",         "--memory-budget", "720",
          "--seed",          "7"};
}

core::FrameworkOptions run_options() {
  core::FrameworkOptions options;
  options.method = core::Method::HwIeci;
  options.hyperpower_mode = true;
  options.optimizer.seed = 7;
  options.optimizer.max_function_evaluations = 10;
  options.optimizer.batch_size = 4;
  options.optimizer.num_threads = 2;
  return options;
}

std::string trace_csv(const core::FrameworkResult& result) {
  std::ostringstream os;
  result.run.trace.write_csv(os);
  return os.str();
}

std::string reference_trace() {
  const ArgvBuilder argv(stack_flags());
  const auto stack = cli::build_evaluation_stack(argv.args());
  return trace_csv(stack->framework->optimize(run_options()));
}

FleetOptions fleet_options(std::size_t workers,
                           std::vector<std::string> chaos_flags) {
  FleetOptions options;
  options.supervisor.worker_binary = HYPERPOWER_WORKER_BIN;
  options.supervisor.workers = workers;
  options.supervisor.worker_args = stack_flags();
  for (std::string& flag : chaos_flags) {
    options.supervisor.worker_args.push_back(std::move(flag));
  }
  options.heartbeat_interval_s = 0.1;
  options.supervisor.worker_args.push_back("--heartbeat-interval");
  options.supervisor.worker_args.push_back("0.1");
  // Real-seconds requeue backoff: keep retries prompt in tests.
  options.dispatch_retry.max_attempts = 3;
  options.dispatch_retry.backoff_initial_s = 0.01;
  options.run_seed = 7;
  return options;
}

struct FleetRun {
  std::string trace;
  FleetScheduler::Stats stats;
};

FleetRun fleet_run(std::size_t workers, std::vector<std::string> chaos_flags,
                   FleetOptions (*tweak)(FleetOptions) = nullptr) {
  const ArgvBuilder argv(stack_flags());
  const auto stack = cli::build_evaluation_stack(argv.args());
  FleetOptions options = fleet_options(workers, std::move(chaos_flags));
  if (tweak != nullptr) options = tweak(std::move(options));
  FleetScheduler scheduler(std::move(options));
  core::FrameworkOptions framework_options = run_options();
  framework_options.optimizer.dispatcher = &scheduler;
  FleetRun run;
  run.trace = trace_csv(stack->framework->optimize(framework_options));
  scheduler.shutdown();
  run.stats = scheduler.stats();
  return run;
}

void expect_no_zombie_children() {
  errno = 0;
  EXPECT_EQ(::waitpid(-1, nullptr, WNOHANG), -1);
  EXPECT_EQ(errno, ECHILD);
}

/// Keeps the reason field of every fleet.worker_death event.
class WorkerDeathSink final : public obs::LogSink {
 public:
  void write(const obs::LogEvent& event) override {
    if (event.name != "fleet.worker_death") return;
    for (const obs::LogField& field : event.fields) {
      if (field.key == "reason") reasons.push_back(field.value.dump());
    }
  }
  std::vector<std::string> reasons;  ///< JSON-quoted strings
};

TEST(FleetScheduler, MatchesInProcessTraceBitExactly) {
  const std::string reference = reference_trace();
  const FleetRun fleet = fleet_run(3, {});
  EXPECT_EQ(fleet.trace, reference);
  // The engine dispatches whole rounds (3 x batch 4 here) and truncates
  // the trace to the evaluation budget, so completions exceed 10.
  EXPECT_GE(fleet.stats.completed, 10u);
  EXPECT_EQ(fleet.stats.worker_deaths, 0u);
  EXPECT_EQ(fleet.stats.failed_jobs, 0u);
  expect_no_zombie_children();
}

TEST(FleetScheduler, SurvivesWorkerKillsAndReproducesTrace) {
  const std::string reference = reference_trace();
  // Chaos: each dispatch draws from the seeded schedule; at these rates
  // the (deterministic) schedule kills several workers mid-round while no
  // job exhausts its dispatch attempts — the requeued retries all land.
  const FleetRun fleet =
      fleet_run(4, {"--worker-kill-rate", "0.2", "--reply-corrupt-rate",
                    "0.15"});
  EXPECT_EQ(fleet.trace, reference);
  // A SIGKILL'd worker's in-flight jobs go Lost and are requeued per the
  // dispatch RetryPolicy; the study still completes with every record.
  EXPECT_GE(fleet.stats.worker_deaths, 1u);
  EXPECT_GE(fleet.stats.lost, 1u);
  EXPECT_GE(fleet.stats.requeued, 1u);
  EXPECT_EQ(fleet.stats.respawns, fleet.stats.worker_deaths);
  EXPECT_GE(fleet.stats.completed, 10u);
  EXPECT_EQ(fleet.stats.failed_jobs, 0u);
  expect_no_zombie_children();
}

TEST(FleetScheduler, SurvivesHangingWorkersViaMissedBeats) {
  const std::string reference = reference_trace();
  const FleetRun fleet = fleet_run(3, {"--worker-hang-rate", "0.25"},
                                   [](FleetOptions options) {
                                     options.missed_beat_limit = 4;
                                     return options;
                                   });
  EXPECT_EQ(fleet.trace, reference);
  EXPECT_GE(fleet.stats.worker_deaths, 1u);  // hung workers are killed
  EXPECT_GE(fleet.stats.requeued, 1u);
  EXPECT_GE(fleet.stats.completed, 10u);
  expect_no_zombie_children();
}

TEST(FleetScheduler, KillsHungJobsAtTheJobDeadline) {
  const std::string reference = reference_trace();
  auto sink = std::make_shared<WorkerDeathSink>();
  obs::logger().add_sink(sink, obs::LogLevel::kWarn);
  // 100 missed beats at 0.1 s is a 10 s beat budget, so the 1 s job
  // deadline is what must kill every wedged worker.
  const FleetRun fleet = fleet_run(3, {"--worker-hang-rate", "0.25"},
                                   [](FleetOptions options) {
                                     options.job_deadline_s = 1.0;
                                     options.missed_beat_limit = 100;
                                     return options;
                                   });
  obs::logger().remove_sink(sink);
  EXPECT_EQ(fleet.trace, reference);
  EXPECT_GE(fleet.stats.worker_deaths, 1u);
  EXPECT_GE(fleet.stats.requeued, 1u);
  EXPECT_EQ(sink->reasons.size(), fleet.stats.worker_deaths);
  for (const std::string& reason : sink->reasons) {
    EXPECT_EQ(reason, "\"job deadline exceeded\"");
  }
  expect_no_zombie_children();
}

TEST(FleetScheduler, RejectsBadTimingAndRetryOptionsAtConstruction) {
  constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
  constexpr double kInf = std::numeric_limits<double>::infinity();
  struct Case {
    const char* name;
    void (*tweak)(FleetOptions&);
  };
  const Case cases[] = {
      {"NaN job deadline", [](FleetOptions& o) { o.job_deadline_s = kNaN; }},
      {"zero job deadline", [](FleetOptions& o) { o.job_deadline_s = 0.0; }},
      {"NaN heartbeat",
       [](FleetOptions& o) { o.heartbeat_interval_s = kNaN; }},
      {"infinite heartbeat",
       [](FleetOptions& o) { o.heartbeat_interval_s = kInf; }},
      {"zero heartbeat",
       [](FleetOptions& o) { o.heartbeat_interval_s = 0.0; }},
      {"NaN requeue backoff",
       [](FleetOptions& o) { o.dispatch_retry.backoff_initial_s = kNaN; }},
  };
  for (const Case& c : cases) {
    FleetOptions options;
    c.tweak(options);
    EXPECT_THROW(FleetScheduler{std::move(options)}, std::invalid_argument)
        << c.name;
  }
  FleetOptions no_deadline;  // +infinity switches the job deadline off
  no_deadline.job_deadline_s = kInf;
  EXPECT_NO_THROW(FleetScheduler{std::move(no_deadline)});
}

TEST(FleetScheduler, MissingWorkerBinaryThrows) {
  FleetOptions options;
  options.supervisor.worker_binary = "/no/such/hpo-worker";
  options.supervisor.workers = 1;
  FleetScheduler scheduler(std::move(options));
  std::vector<core::RoundJob> jobs;
  jobs.push_back(core::RoundJob{0, core::Configuration{0.5, 0.5}});
  EXPECT_THROW((void)scheduler.evaluate_round(std::move(jobs)),
               std::runtime_error);
}

TEST(WorkerSupervisor, SpawnsQuitsAndReapsEverything) {
  WorkerSupervisor::Options options;
  options.worker_binary = HYPERPOWER_WORKER_BIN;
  options.worker_args = stack_flags();
  options.workers = 2;
  WorkerSupervisor supervisor(options);
  supervisor.start();
  EXPECT_EQ(supervisor.live_count(), 2u);
  supervisor.shutdown();
  EXPECT_EQ(supervisor.live_count(), 0u);
  EXPECT_TRUE(supervisor.all_reaped());
  expect_no_zombie_children();
}

TEST(WorkerSupervisor, KilledWorkerRespawnsWithinBudget) {
  WorkerSupervisor::Options options;
  options.worker_binary = HYPERPOWER_WORKER_BIN;
  options.worker_args = stack_flags();
  options.workers = 2;
  options.respawn_budget = 1;
  WorkerSupervisor supervisor(options);
  supervisor.start();
  supervisor.kill_worker(0);
  EXPECT_FALSE(supervisor.alive(0));
  EXPECT_EQ(supervisor.live_count(), 1u);

  EXPECT_TRUE(supervisor.respawn(0));
  EXPECT_TRUE(supervisor.alive(0));
  EXPECT_EQ(supervisor.respawns(), 1u);

  // Budget exhausted: the next loss retires the slot instead.
  supervisor.kill_worker(0);
  EXPECT_FALSE(supervisor.respawn(0));
  EXPECT_TRUE(supervisor.retired(0));
  EXPECT_EQ(supervisor.live_count(), 1u);

  supervisor.shutdown();
  EXPECT_TRUE(supervisor.all_reaped());
  expect_no_zombie_children();
}

TEST(HpoWorker, BadHeartbeatIntervalExitsTwo) {
  // A NaN or non-positive period would spin the heartbeat thread; the
  // worker must refuse it as a bad argument before serving anything.
  for (const char* interval : {"nan", "0", "-0.5", "inf"}) {
    const std::string command = std::string("'") + HYPERPOWER_WORKER_BIN +
                                "' --problem tiny_mnist "
                                "--heartbeat-interval " +
                                interval + " </dev/null >/dev/null 2>&1";
    const int status = std::system(command.c_str());
    ASSERT_TRUE(WIFEXITED(status)) << interval;
    EXPECT_EQ(WEXITSTATUS(status), 2) << interval;
  }
  expect_no_zombie_children();
}

}  // namespace
}  // namespace hp::dist
