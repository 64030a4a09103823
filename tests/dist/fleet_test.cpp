// End-to-end fleet tests against the real hpo-worker binary (path baked in
// via HYPERPOWER_WORKER_BIN). The golden-trace guarantee under test: a
// fleet run — including chaos runs that SIGKILL workers mid-round — merges
// into a trace bit-identical to the in-process batched run, and the
// supervisor reaps every process it ever spawned (no zombies).

#include <gtest/gtest.h>

#include <sys/wait.h>

#include <cerrno>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <map>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "cli/objective_setup.hpp"
#include "core/fault_injection.hpp"
#include "core/framework.hpp"
#include "dist/job_scheduler.hpp"
#include "dist/wire.hpp"
#include "dist/worker_supervisor.hpp"
#include "obs/log.hpp"
#include "obs/trace.hpp"

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

/// One study: the run options and the evaluation-stack flags that both
/// the in-process reference and the fleet workers are built from.
struct Scenario {
  std::vector<std::string> flags = stack_flags();
  core::FrameworkOptions options = run_options();
};

/// The default scenario at 8 candidates per round: over 2 workers, each
/// holds up to 4 jobs, so a lost head has jobs queued behind it.
Scenario pipelined_scenario() {
  Scenario scenario;
  scenario.options.optimizer.batch_size = 8;
  scenario.options.optimizer.max_function_evaluations = 16;
  return scenario;
}

std::string reference_trace(const Scenario& scenario = {}) {
  const ArgvBuilder argv(scenario.flags);
  const auto stack = cli::build_evaluation_stack(argv.args());
  return trace_csv(stack->framework->optimize(scenario.options));
}

FleetOptions fleet_options(std::size_t workers,
                           std::vector<std::string> chaos_flags,
                           const Scenario& scenario) {
  FleetOptions options;
  options.supervisor.worker_binary = HYPERPOWER_WORKER_BIN;
  options.supervisor.workers = workers;
  options.supervisor.worker_args = scenario.flags;
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
                   FleetOptions (*tweak)(FleetOptions) = nullptr,
                   const Scenario& scenario = {}) {
  const ArgvBuilder argv(scenario.flags);
  const auto stack = cli::build_evaluation_stack(argv.args());
  FleetOptions options =
      fleet_options(workers, std::move(chaos_flags), scenario);
  if (tweak != nullptr) options = tweak(std::move(options));
  FleetScheduler scheduler(std::move(options));
  core::FrameworkOptions framework_options = scenario.options;
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

TEST(FleetScheduler, BatchAtMostWorkersKeepsOneJobPerWorker) {
  // With batch <= workers every worker's share is one job: nothing ever
  // queues behind a running job, which is dispatch without pipelining.
  const std::string reference = reference_trace();
  const FleetRun fleet = fleet_run(4, {});
  EXPECT_EQ(fleet.trace, reference);
  EXPECT_EQ(fleet.stats.max_in_flight, 1u);
  EXPECT_EQ(fleet.stats.returned, 0u);
}

TEST(FleetScheduler, PipelinedRoundHandsEachWorkerItsShare) {
  const Scenario scenario = pipelined_scenario();
  const FleetRun fleet = fleet_run(2, {}, nullptr, scenario);
  EXPECT_EQ(fleet.trace, reference_trace(scenario));
  EXPECT_EQ(fleet.stats.max_in_flight, 4u);  // ceil(8 jobs / 2 workers)
  EXPECT_EQ(fleet.stats.worker_deaths, 0u);
  EXPECT_EQ(fleet.stats.returned, 0u);
  expect_no_zombie_children();
}

TEST(FleetScheduler, PipelinedKillsAndCorruptRepliesReturnQueuedJobs) {
  // A killed worker's head job is lost and charged an attempt; the jobs
  // behind it in its pipe never started and go back uncharged. Each
  // sample then meets the chaos schedule's faults at the same attempts as
  // with one job per worker, so the trace still matches.
  const Scenario scenario = pipelined_scenario();
  const FleetRun fleet = fleet_run(
      2, {"--worker-kill-rate", "0.2", "--reply-corrupt-rate", "0.15"},
      nullptr, scenario);
  EXPECT_EQ(fleet.trace, reference_trace(scenario));
  EXPECT_GE(fleet.stats.worker_deaths, 1u);
  EXPECT_GE(fleet.stats.requeued, 1u);
  EXPECT_GE(fleet.stats.garbage_frames, 1u);
  EXPECT_GE(fleet.stats.returned, 1u);
  EXPECT_EQ(fleet.stats.failed_jobs, 0u);
  expect_no_zombie_children();
}

TEST(FleetScheduler, PipelinedHangsViaMissedBeatsReturnQueuedJobs) {
  const Scenario scenario = pipelined_scenario();
  const FleetRun fleet = fleet_run(2, {"--worker-hang-rate", "0.2"},
                                   [](FleetOptions options) {
                                     options.missed_beat_limit = 4;
                                     return options;
                                   },
                                   scenario);
  EXPECT_EQ(fleet.trace, reference_trace(scenario));
  EXPECT_GE(fleet.stats.worker_deaths, 1u);
  EXPECT_GE(fleet.stats.requeued, 1u);
  EXPECT_GE(fleet.stats.returned, 1u);
  EXPECT_EQ(fleet.stats.failed_jobs, 0u);
  expect_no_zombie_children();
}

TEST(FleetScheduler, PipelinedHangsAtTheJobDeadlineReturnQueuedJobs) {
  // As KillsHungJobsAtTheJobDeadline, with jobs queued behind each hung
  // head: the deadline kills the worker, charges the head only, and the
  // rest go back uncharged.
  const Scenario scenario = pipelined_scenario();
  auto sink = std::make_shared<WorkerDeathSink>();
  obs::logger().add_sink(sink, obs::LogLevel::kWarn);
  const FleetRun fleet = fleet_run(2, {"--worker-hang-rate", "0.2"},
                                   [](FleetOptions options) {
                                     options.job_deadline_s = 1.0;
                                     options.missed_beat_limit = 100;
                                     return options;
                                   },
                                   scenario);
  obs::logger().remove_sink(sink);
  EXPECT_EQ(fleet.trace, reference_trace(scenario));
  EXPECT_GE(fleet.stats.worker_deaths, 1u);
  EXPECT_GE(fleet.stats.returned, 1u);
  EXPECT_EQ(fleet.stats.failed_jobs, 0u);
  EXPECT_EQ(sink->reasons.size(), fleet.stats.worker_deaths);
  for (const std::string& reason : sink->reasons) {
    EXPECT_EQ(reason, "\"job deadline exceeded\"");
  }
  expect_no_zombie_children();
}

/// The unsigned argument @p key of a trace event (0 when it has none).
std::uint64_t trace_arg(const obs::TraceEvent& event, const char* key) {
  for (std::uint8_t i = 0; i < event.num_args; ++i) {
    if (std::strcmp(event.args[i].key, key) == 0) return event.args[i].u;
  }
  return 0;
}

TEST(FleetScheduler, JobLostTwiceWaitsItsSecondBackoff) {
  // Rand in default mode dispatches every sample, so the chaos schedule
  // alone says which jobs come back corrupt: take the smallest
  // corrupt-reply rate at which some sample's first two dispatches are
  // lost and no sample loses all three.
  Scenario scenario;
  scenario.flags.push_back("--default-mode");
  scenario.options.method = core::Method::Rand;
  scenario.options.hyperpower_mode = false;
  scenario.options.optimizer.max_function_evaluations = 8;
  core::FaultSpec spec;
  spec.seed = 1234;  // the workers' --fault-seed default
  const auto corrupt = [&spec](std::size_t sample, std::size_t attempt) {
    return core::scheduled_worker_fault(spec, sample, attempt) ==
           core::WorkerFault::CorruptReply;
  };
  std::string rate;
  for (int percent = 5; percent < 100 && rate.empty(); percent += 5) {
    spec.reply_corrupt_rate = percent / 100.0;
    bool twice = false;
    bool thrice = false;
    for (std::size_t sample = 0; sample < 8; ++sample) {
      if (corrupt(sample, 1) && corrupt(sample, 2)) {
        (corrupt(sample, 3) ? thrice : twice) = true;
      }
    }
    if (twice && !thrice) rate = std::to_string(percent / 100.0);
  }
  ASSERT_FALSE(rate.empty());

  obs::TraceConfig config;
  config.ring_kb = 1024;
  obs::tracer().start(config);
  const FleetRun fleet =
      fleet_run(2, {"--reply-corrupt-rate", rate},
                [](FleetOptions options) {
                  // Backoffs of 0.045-0.055 s, then 0.09-0.11 s.
                  options.dispatch_retry.backoff_initial_s = 0.05;
                  return options;
                },
                scenario);
  obs::tracer().stop();
  EXPECT_EQ(fleet.trace, reference_trace(scenario));
  EXPECT_EQ(fleet.stats.failed_jobs, 0u);

  // Per job: when its second dispatch was lost, and when its third went.
  std::map<std::uint64_t, double> second_loss_s;
  std::map<std::uint64_t, double> third_dispatch_s;
  for (const obs::TraceEventView& view : obs::tracer().snapshot()) {
    const obs::TraceEvent& event = view.event;
    if (!event.instant || event.name == nullptr) continue;
    const std::uint64_t job = trace_arg(event, "job");
    const std::uint64_t attempt = trace_arg(event, "attempt");
    if (std::strcmp(event.name, "job.lost") == 0 && attempt == 2) {
      second_loss_s[job] = event.start_s;
    }
    if (std::strcmp(event.name, "job.dispatch") == 0 && attempt == 3 &&
        third_dispatch_s.count(job) == 0) {
      third_dispatch_s[job] = event.start_s;
    }
  }
  obs::tracer().reset();
  ASSERT_FALSE(second_loss_s.empty());
  for (const auto& [job, lost_s] : second_loss_s) {
    SCOPED_TRACE("job " + std::to_string(job));
    ASSERT_EQ(third_dispatch_s.count(job), 1u);
    // The second backoff is at least 0.05 * 2 * (1 - jitter 0.1) s.
    EXPECT_GE(third_dispatch_s[job] - lost_s, 0.09 - 1e-6);
  }
  expect_no_zombie_children();
}

TEST(FleetScheduler, OneWorkerRoundLargerThanItsPipeCompletes) {
  // Rand in default mode dispatches every candidate of a round, and 1024
  // CIFAR-10 frames (thirteen hyper-parameters each) outgrow a default
  // 64 KiB pipe about twice over.
  constexpr std::size_t kBatch = 1024;
  Scenario scenario;
  scenario.flags = {"--problem", "cifar10",      "--device", "GTX 1070",
                    "--seed",    "7",            "--power-budget", "90",
                    "--default-mode"};
  scenario.options.method = core::Method::Rand;
  scenario.options.hyperpower_mode = false;
  scenario.options.optimizer.batch_size = kBatch;
  scenario.options.optimizer.max_function_evaluations = kBatch;
  const ArgvBuilder argv(scenario.flags);
  const auto stack = cli::build_evaluation_stack(argv.args());
  const core::FrameworkResult reference =
      stack->framework->optimize(scenario.options);

  WorkerSupervisor::Options probe;
  probe.worker_binary = HYPERPOWER_WORKER_BIN;
  probe.worker_args = scenario.flags;
  probe.workers = 1;
  WorkerSupervisor supervisor(probe);
  supervisor.start();
  const std::size_t capacity = supervisor.pipe_capacity(0);
  supervisor.shutdown();
  const std::vector<core::EvaluationRecord>& records =
      reference.run.trace.records();
  ASSERT_GE(records.size(), kBatch);
  std::size_t round_bytes = 0;  // the first round's frames
  for (std::size_t i = 0; i < kBatch; ++i) {
    round_bytes += encode_frame(encode_job(JobRequest{
                                    i + 1, i, 1, records[i].config}))
                       .size();
  }
  if (round_bytes <= capacity) {
    GTEST_SKIP() << "a " << capacity << "-byte pipe holds the whole "
                 << round_bytes << "-byte round";
  }

  const FleetRun fleet = fleet_run(1, {}, nullptr, scenario);
  EXPECT_EQ(fleet.trace, trace_csv(reference));
  // A round went out in more than one write, each within the pipe.
  EXPECT_LT(fleet.stats.max_in_flight, kBatch);
  EXPECT_GT(fleet.stats.max_in_flight, 1u);
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
  EXPECT_FALSE(supervisor.respawn(0));  // retired: the slot stays down
  EXPECT_FALSE(supervisor.alive(0));
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
