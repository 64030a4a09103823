// hyperpower — command-line front end to the framework.
//
// Subcommands:
//   profile   profile random architectures on a device, print/export CSV
//   train     fit the power/memory models and save them to files
//   optimize  run a constrained search (any method, both modes)
//   pareto    run a search and print its error/power Pareto front
//   devices   list the built-in device database
//
// Examples:
//   hyperpower profile --problem cifar10 --device "GTX 1070" --samples 100
//   hyperpower train --problem mnist --device "Tegra TX1"
//       --power-model /tmp/power.hpm
//   hyperpower optimize --problem cifar10 --device "GTX 1070"
//       --method hw-ieci --power-budget 90 --memory-budget 720
//       --hours 5 --seed 1 --trace /tmp/trace.csv
//   hyperpower pareto --problem cifar10 --device "GTX 1070" --hours 2

#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <memory>
#include <mutex>

#include <signal.h>
#include <unistd.h>

#include "cli/args.hpp"
#include "cli/objective_setup.hpp"
#include "core/contracts.hpp"
#include "core/framework.hpp"
#include "core/model_io.hpp"
#include "core/pareto.hpp"
#include "core/trace_io.hpp"
#include "dist/job_scheduler.hpp"
#include "hw/profiler.hpp"
#include "obs/obs.hpp"

namespace {

using namespace hp;

int usage() {
  std::fprintf(stderr, R"(usage: hyperpower <command> [options]

commands:
  profile   --problem mnist|cifar10 --device NAME [--samples N] [--seed S]
            [--csv PATH]
  train     --problem P --device NAME [--samples N] [--seed S]
            [--power-model PATH] [--memory-model PATH]
  optimize  --problem P --device NAME --method rand|rand-walk|hw-cwei|hw-ieci
            [--power-budget W] [--memory-budget MB] [--hours H | --evals N]
            [--default-mode] [--seed S] [--trace PATH]
            [--batch K] [--threads T]   (batched parallel evaluation;
            T threads also score BO acquisition candidates)
            [--retries N]                      (fault tolerance)
            [--journal PATH] [--resume]        (crash-safe checkpointing)
            [--fault-rate R] [--fault-seed S] [--sensor-fault-rate R]
            [--workers N] [--worker-bin PATH]  (multi-process fleet;
            requires --batch > 1; traces stay bit-identical to in-process)
            [--job-deadline S] [--heartbeat-interval S] [--dispatch-retries N]
            [--worker-kill-rate R] [--worker-hang-rate R]
            [--reply-corrupt-rate R]           (fleet chaos injection)
  pareto    --problem P --device NAME [--power-budget W] [--hours H] [--seed S]
  devices

observability (any command):
  --log-level L   stderr log verbosity: trace|debug|info|warn|error|off
                  (default warn)
  --log-file P    write every event >= the log level as JSON lines to P
  --metrics P     count the run's work (samples, GP factorizations,
                  acquisition argmaxes, pool jobs, ...) and write the
                  counters as JSON to P; wall time is in --trace-out
  --progress      force the live progress line (optimize; default on a tty)
  --quiet         suppress the live progress line
  --trace-out P   record a causal span trace of the run and write it to P
                  as Chrome trace-event JSON (load in Perfetto or
                  chrome://tracing); optimize also prints a per-phase
                  self-time table
  --trace-ring-kb K
                  per-thread trace ring capacity in KiB (default 1024;
                  wrapping drops the oldest spans)
  --flight-recorder
                  arm the crash flight recorder: the most recent trace
                  events are dumped to stderr on a contract violation, a
                  consecutive-failure abort, or a fatal signal

exit codes:
  0  success (optimize: a best feasible configuration was found)
  1  no feasible configuration found, contract violation, or internal error
  2  bad arguments
  3  run aborted after repeated evaluation failures
)");
  return 2;
}

/// Flags shared by every subcommand.
const std::vector<std::string> kObsFlags = {
    "log-level", "log-file",      "metrics",         "progress",
    "quiet",     "trace-out",     "trace-ring-kb",   "flight-recorder"};

std::vector<std::string> with_obs_flags(std::vector<std::string> known) {
  known.insert(known.end(), kObsFlags.begin(), kObsFlags.end());
  return known;
}

/// Configures the process-wide logger/metrics from --log-level, --log-file
/// and --metrics, and tears them down (flush, metrics dump) on scope exit —
/// including when the command throws.
class ObsScope {
 public:
  explicit ObsScope(const cli::Args& args) {
    const std::string level_name = args.get_or("log-level", "warn");
    const auto level = obs::log_level_from_string(level_name);
    if (!level) {
      throw std::invalid_argument("bad --log-level '" + level_name +
                                  "' (trace|debug|info|warn|error|off)");
    }
    if (*level != obs::LogLevel::kOff) {
      obs::logger().add_sink(std::make_shared<obs::StderrSink>(), *level);
      if (const auto path = args.get("log-file")) {
        obs::logger().add_sink(std::make_shared<obs::JsonlSink>(*path),
                               *level);
      }
    }
    if (const auto path = args.get("metrics")) {
      metrics_path_ = *path;
      obs::metrics().set_enabled(true);
    }
    if (const auto path = args.get("trace-out")) trace_out_ = *path;
    const bool flight = args.has("flight-recorder");
    if (!trace_out_.empty() || flight) {
      obs::TraceConfig config;
      config.ring_kb = args.get_uint_or("trace-ring-kb", 1024);
      config.flight_recorder = flight;
      obs::tracer().start(config);
      if (flight) obs::flight_recorder().install_fatal_signal_handlers();
    }
  }

  ~ObsScope() {
    obs::logger().flush();
    obs::logger().clear_sinks();
    // The flight recorder stays armed past this scope on purpose: main()'s
    // ContractViolation handler still wants to dump it.
    obs::tracer().stop();
    if (!trace_out_.empty()) {
      try {
        std::ofstream os(trace_out_);
        if (!os) throw std::runtime_error("cannot open " + trace_out_);
        obs::tracer().write_chrome_trace(os);
        const auto dropped =
            static_cast<unsigned long long>(obs::tracer().dropped_events());
        if (dropped > 0) {
          std::fprintf(stderr,
                       "wrote trace to %s (%llu events dropped by ring "
                       "wrap; raise --trace-ring-kb)\n",
                       trace_out_.c_str(), dropped);
        } else {
          std::fprintf(stderr, "wrote trace to %s\n", trace_out_.c_str());
        }
      } catch (const std::exception& e) {
        std::fprintf(stderr, "error writing %s: %s\n", trace_out_.c_str(),
                     e.what());
      }
    }
    if (!metrics_path_.empty()) {
      try {
        obs::metrics().write_json_file(metrics_path_);
        std::fprintf(stderr, "wrote metrics to %s\n", metrics_path_.c_str());
      } catch (const std::exception& e) {
        std::fprintf(stderr, "error writing %s: %s\n", metrics_path_.c_str(),
                     e.what());
      }
      obs::metrics().set_enabled(false);
    }
  }

  ObsScope(const ObsScope&) = delete;
  ObsScope& operator=(const ObsScope&) = delete;

 private:
  std::string metrics_path_;
  std::string trace_out_;
};

/// Live one-line progress renderer for `optimize`: consumes the
/// "optimizer.progress" events the run recorder emits per sample and redraws
/// a single \r-terminated stderr line (evals, filtered count, best error,
/// ETA from the fraction of the evaluation/time budget consumed).
class ProgressSink final : public obs::LogSink {
 public:
  void write(const obs::LogEvent& event) override {
    if (event.name != "optimizer.progress") return;
    double evals = 0.0, filtered = 0.0, best = -1.0, clock_s = 0.0;
    double max_evals = 0.0, max_runtime_s = 0.0;
    for (const auto& f : event.fields) {
      if (f.key == "evals") evals = f.value.number_or(0.0);
      else if (f.key == "filtered") filtered = f.value.number_or(0.0);
      else if (f.key == "best_error") best = f.value.number_or(-1.0);
      else if (f.key == "clock_s") clock_s = f.value.number_or(0.0);
      else if (f.key == "max_evals") max_evals = f.value.number_or(0.0);
      else if (f.key == "max_runtime_s")
        max_runtime_s = f.value.number_or(0.0);
    }
    double fraction = 0.0;
    if (max_evals > 0.0) fraction = std::max(fraction, evals / max_evals);
    if (max_runtime_s > 0.0) {
      fraction = std::max(fraction, clock_s / max_runtime_s);
    }
    fraction = std::min(fraction, 1.0);

    std::lock_guard<std::mutex> lock(mutex_);
    if (!started_) {
      started_ = true;
      start_ = std::chrono::steady_clock::now();
    }
    char line[160];
    int n;
    if (max_evals > 0.0) {
      n = std::snprintf(line, sizeof line, "  %.0f/%.0f evals", evals,
                        max_evals);
    } else {
      n = std::snprintf(line, sizeof line, "  %.0f evals", evals);
    }
    std::size_t pos = n > 0 ? static_cast<std::size_t>(n) : 0;
    const auto append = [&](const char* fmt, auto... v) {
      if (pos >= sizeof line) return;
      const int m = std::snprintf(line + pos, sizeof line - pos, fmt, v...);
      if (m > 0) pos += static_cast<std::size_t>(m);
    };
    append(" | %.0f filtered", filtered);
    if (best >= 0.0) append(" | best %.2f%%", best * 100.0);
    const double wall_s = std::chrono::duration<double>(
                              std::chrono::steady_clock::now() - start_)
                              .count();
    if (fraction > 0.0 && fraction < 1.0 && wall_s > 0.5) {
      const double eta_s = wall_s * (1.0 - fraction) / fraction;
      if (eta_s >= 60.0) {
        append(" | ETA %.0fm%02.0fs", std::floor(eta_s / 60.0),
               std::fmod(eta_s, 60.0));
      } else {
        append(" | ETA %.0fs", eta_s);
      }
    }
    // Pad over the previous (possibly longer) line before the carriage
    // return so stale characters never linger.
    std::string out(line, std::min(pos, sizeof line - 1));
    if (out.size() < last_len_) out.append(last_len_ - out.size(), ' ');
    last_len_ = std::min(pos, sizeof line - 1);
    std::fprintf(stderr, "\r%s", out.c_str());
    std::fflush(stderr);
    drawn_ = true;
  }

  /// Ends the progress line (call before printing the summary).
  void finish() {
    std::lock_guard<std::mutex> lock(mutex_);
    if (drawn_) {
      std::fputc('\n', stderr);
      std::fflush(stderr);
      drawn_ = false;
    }
  }

 private:
  std::mutex mutex_;
  bool started_ = false;
  bool drawn_ = false;
  std::size_t last_len_ = 0;
  std::chrono::steady_clock::time_point start_;
};

/// Adds the evaluation-stack flags (problem/device/budgets/faults/models)
/// shared with the hpo-worker to a command's known-flag list.
std::vector<std::string> with_stack_flags(std::vector<std::string> known) {
  const std::vector<std::string> stack = cli::evaluation_stack_flags();
  known.insert(known.end(), stack.begin(), stack.end());
  return known;
}

/// Default --worker-bin: the hpo-worker binary installed next to this
/// executable (both are built into the same directory).
std::string sibling_worker_binary() {
  char path[4096];
  const ssize_t n = ::readlink("/proc/self/exe", path, sizeof path - 1);
  if (n <= 0) return "hpo-worker";
  path[n] = '\0';
  const std::string self(path);
  const auto slash = self.rfind('/');
  if (slash == std::string::npos) return "hpo-worker";
  return self.substr(0, slash + 1) + "hpo-worker";
}

core::Method method_by_name(const std::string& name) {
  if (name == "rand") return core::Method::Rand;
  if (name == "rand-walk") return core::Method::RandWalk;
  if (name == "hw-cwei") return core::Method::HwCwei;
  if (name == "hw-ieci") return core::Method::HwIeci;
  throw std::invalid_argument("unknown method '" + name +
                              "' (rand|rand-walk|hw-cwei|hw-ieci)");
}

std::vector<hw::ProfileSample> run_profiling(const core::BenchmarkProblem& problem,
                                             const hw::DeviceSpec& device,
                                             std::size_t samples,
                                             std::uint64_t seed) {
  hw::GpuSimulator simulator(device, seed ^ 0xbeefULL);
  hw::InferenceProfiler profiler(simulator);
  stats::Rng rng(seed);
  std::vector<nn::CnnSpec> specs;
  std::size_t attempts = 0;
  while (specs.size() < samples && attempts < 20 * samples) {
    ++attempts;
    const auto config = problem.space().sample(rng);
    const auto spec = problem.to_cnn_spec(config);
    if (nn::is_feasible(spec)) specs.push_back(spec);
  }
  return profiler.profile_all(specs);
}

int cmd_devices() {
  std::printf("%-12s %5s %8s %8s %8s %s\n", "name", "SMs", "TFLOPS", "TDP",
              "idle", "memory counter");
  for (const hw::DeviceSpec& d : hw::all_devices()) {
    std::printf("%-12s %5zu %8.2f %6.0f W %6.1f W %s\n", d.name.c_str(),
                d.sm_count, d.fp32_tflops, d.tdp_w, d.idle_power_w,
                d.supports_memory_query ? "yes" : "no");
  }
  return 0;
}

int cmd_profile(const cli::Args& args) {
  args.require_known(
      with_obs_flags({"problem", "device", "samples", "seed", "csv"}));
  ObsScope obs_scope(args);
  const auto problem = cli::problem_by_name(args.get_or("problem", "mnist"));
  const auto device = cli::device_by_name(args.get_or("device", "GTX 1070"));
  const auto samples = run_profiling(
      problem, device, static_cast<std::size_t>(args.get_int_or("samples", 50)),
      static_cast<std::uint64_t>(args.get_int_or("seed", 2018)));
  std::printf("profiled %zu configurations on %s\n", samples.size(),
              device.name.c_str());
  const auto emit = [&](std::ostream& os) {
    os << "power_w,memory_mb,latency_ms";
    for (const auto& p : problem.space().parameters()) {
      if (p.structural) os << ',' << p.name;
    }
    os << '\n';
    for (const auto& s : samples) {
      os << s.power_w << ',';
      if (s.memory_mb) os << *s.memory_mb;
      os << ',' << s.latency_ms;
      for (double z : s.z) os << ',' << z;
      os << '\n';
    }
  };
  if (const auto path = args.get("csv")) {
    std::ofstream os(*path);
    if (!os) throw std::runtime_error("cannot open " + *path);
    emit(os);
    std::printf("wrote %s\n", path->c_str());
  } else {
    emit(std::cout);
  }
  return 0;
}

int cmd_train(const cli::Args& args) {
  args.require_known(with_obs_flags(
      {"problem", "device", "samples", "seed", "power-model", "memory-model"}));
  ObsScope obs_scope(args);
  const auto problem = cli::problem_by_name(args.get_or("problem", "mnist"));
  const auto device = cli::device_by_name(args.get_or("device", "GTX 1070"));
  const auto samples = run_profiling(
      problem, device,
      static_cast<std::size_t>(args.get_int_or("samples", 100)),
      static_cast<std::uint64_t>(args.get_int_or("seed", 2018)));
  const auto power = core::train_power_model(samples);
  std::printf("power model: RMSPE %.2f%% over %zu samples\n", power.cv.rmspe,
              power.sample_count);
  if (const auto path = args.get("power-model")) {
    core::save_hardware_model_file(power.model, *path);
    std::printf("wrote %s\n", path->c_str());
  }
  if (const auto memory = core::train_memory_model(samples)) {
    std::printf("memory model: RMSPE %.2f%%\n", memory->cv.rmspe);
    if (const auto path = args.get("memory-model")) {
      core::save_hardware_model_file(memory->model, *path);
      std::printf("wrote %s\n", path->c_str());
    }
  } else {
    std::printf("memory model: platform exposes no memory counter\n");
  }
  return 0;
}

int cmd_optimize(const cli::Args& args) {
  args.require_known(with_obs_flags(with_stack_flags(
      {"method", "hours", "evals", "trace", "batch", "threads", "journal",
       "resume", "workers", "worker-bin", "heartbeat-interval", "job-deadline",
       "dispatch-retries"})));
  ObsScope obs_scope(args);
  // The evaluation stack (problem, device, testbed objective, fault
  // decorator, hardware models) is built by the same code path the
  // hpo-worker runs, so fleet workers evaluate bit-identically.
  const std::unique_ptr<cli::EvaluationStack> stack =
      cli::build_evaluation_stack(args);
  core::HyperPowerFramework& framework = *stack->framework;
  const cli::EvaluationPolicy policy = cli::evaluation_policy(args);

  core::FrameworkOptions options;
  options.method = method_by_name(args.get_or("method", "hw-ieci"));
  options.hyperpower_mode = stack->hyperpower_mode;
  options.optimizer.seed = policy.seed;
  options.optimizer.retry = policy.retry;
  if (const auto hours = args.get_double("hours")) {
    options.optimizer.max_runtime_s = *hours * 3600.0;
  }
  if (const auto evals = args.get_int("evals")) {
    options.optimizer.max_function_evaluations =
        static_cast<std::size_t>(*evals);
  }
  if (!args.has("hours") && !args.has("evals")) {
    options.optimizer.max_function_evaluations = 20;
  }
  options.optimizer.batch_size = args.get_uint_or("batch", 1);
  options.optimizer.num_threads =
      args.get_uint_or("threads", options.optimizer.batch_size);
  if (const auto journal = args.get("journal")) {
    options.optimizer.journal_path = *journal;
  }
  if (args.has("resume") && options.optimizer.journal_path.empty()) {
    throw std::invalid_argument("--resume requires --journal PATH");
  }

  if (stack->trained_models) {
    std::printf("trained hardware models from %zu profiled configs "
                "(power RMSPE %.2f%%)\n",
                stack->profiled_configs, framework.power_model()->cv.rmspe);
  } else if (framework.power_model() || framework.memory_model()) {
    std::printf("loaded hardware models from disk\n");
  }

  // --workers: evaluate rounds in a supervised fleet of hpo-worker
  // processes (DESIGN.md §15). Fleet mode reuses the batched per-sample
  // RNG streams, so the trace stays a pure function of (seed, batch) —
  // never of worker count, scheduling, or injected worker faults.
  std::unique_ptr<dist::FleetScheduler> fleet;
  const std::size_t workers = args.get_uint_or("workers", 0);
  if (workers > 0) {
    if (options.optimizer.batch_size <= 1) {
      throw std::invalid_argument(
          "--workers requires --batch > 1 (fleet mode dispatches whole "
          "rounds)");
    }
    dist::FleetOptions fleet_options;
    fleet_options.supervisor.workers = workers;
    fleet_options.supervisor.worker_binary =
        args.get_or("worker-bin", sibling_worker_binary());
    const double heartbeat_s = args.get_double_or("heartbeat-interval", 0.5);
    fleet_options.heartbeat_interval_s = heartbeat_s;
    fleet_options.job_deadline_s = args.get_double_or("job-deadline", 120.0);
    fleet_options.dispatch_retry.max_attempts =
        args.get_uint_or("dispatch-retries", 2) + 1;
    // Requeue backoff burns real seconds (never the simulated clock), so
    // keep it short: lost jobs should retry promptly.
    fleet_options.dispatch_retry.backoff_initial_s = 0.05;
    fleet_options.run_seed = options.optimizer.seed;
    // Workers rebuild the evaluation stack from the exact flag values this
    // process parsed — forward them verbatim.
    for (const std::string& flag : cli::evaluation_stack_flags()) {
      if (!args.has(flag)) continue;
      fleet_options.supervisor.worker_args.push_back("--" + flag);
      if (const auto value = args.get(flag)) {
        fleet_options.supervisor.worker_args.push_back(*value);
      }
    }
    char heartbeat_text[32];
    std::snprintf(heartbeat_text, sizeof heartbeat_text, "%.17g", heartbeat_s);
    fleet_options.supervisor.worker_args.push_back("--heartbeat-interval");
    fleet_options.supervisor.worker_args.push_back(heartbeat_text);
    fleet = std::make_unique<dist::FleetScheduler>(std::move(fleet_options));
    options.optimizer.dispatcher = fleet.get();
  }

  // Live progress line: on by default when stderr is a terminal, forced by
  // --progress, suppressed by --quiet. Rendered from the optimizer's
  // "optimizer.progress" events (the stderr pretty-printer skips those).
  const bool tty = isatty(fileno(stderr)) != 0;
  std::shared_ptr<ProgressSink> progress;
  if (!args.has("quiet") && (args.has("progress") || tty)) {
    progress = std::make_shared<ProgressSink>();
    obs::logger().add_sink(progress, obs::LogLevel::kInfo);
  }

  // --resume: replay the journal's completed evaluations, then continue.
  // A missing or unreadable journal degrades to a fresh run (with a
  // warning) so restart scripts can pass --resume unconditionally.
  std::optional<core::JournalLoadResult> journal;
  if (args.has("resume")) {
    try {
      journal = core::EvalJournal::load(options.optimizer.journal_path);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "warning: cannot resume from %s (%s); "
                   "starting a fresh run\n",
                   options.optimizer.journal_path.c_str(), e.what());
    }
  }
  core::FrameworkResult result;
  if (journal) {
    std::unique_ptr<core::Optimizer> optimizer = framework.make_optimizer(options);
    if (journal->header.method != optimizer->name() ||
        journal->header.seed != options.optimizer.seed ||
        journal->header.batch_size != options.optimizer.batch_size) {
      throw std::invalid_argument(
          "--resume: journal " + options.optimizer.journal_path +
          " was written by " + journal->header.method + "/seed " +
          std::to_string(journal->header.seed) + "/batch " +
          std::to_string(journal->header.batch_size) +
          ", which does not match this invocation");
    }
    if (journal->complete()) {
      std::fprintf(stderr,
                   "note: journal %s is finalized (study state \"%s\", "
                   "%zu records); resuming past its recorded end\n",
                   options.optimizer.journal_path.c_str(),
                   journal->study_state.c_str(), journal->records.size());
    }
    result.method_name = optimizer->name();
    result.hyperpower_mode = options.hyperpower_mode;
    result.run = optimizer->resume(journal->records);
  } else {
    result = framework.optimize(options);
  }
  if (progress) {
    progress->finish();
    obs::logger().remove_sink(progress);
  }

  const auto& trace = result.run.trace;
  const std::size_t infeasible =
      trace.size() - trace.completed_count() - trace.model_filtered_count() -
      trace.early_terminated_count() - trace.failed_count();
  std::printf("\n%s [%s] run summary\n", result.method_name.c_str(),
              result.hyperpower_mode ? "HyperPower" : "default");
  std::printf("  %-24s %zu\n", "samples queried", trace.size());
  std::printf("  %-24s %zu\n", "function evaluations",
              trace.function_evaluations());
  std::printf("  %-24s %zu\n", "trained to completion",
              trace.completed_count());
  std::printf("  %-24s %zu\n", "model-filtered", trace.model_filtered_count());
  std::printf("  %-24s %zu\n", "early-terminated",
              trace.early_terminated_count());
  std::printf("  %-24s %zu\n", "infeasible architectures", infeasible);
  std::printf("  %-24s %zu\n", "measured violations",
              trace.measured_violation_count());
  std::printf("  %-24s %.2f h\n", "simulated runtime",
              trace.total_time_s() / 3600.0);
  // End-of-run failure summary (all zero on a healthy run).
  if (trace.failed_count() > 0 || trace.total_retries() > 0 ||
      trace.fallback_count() > 0) {
    std::printf("  %-24s %zu\n", "failed after retries", trace.failed_count());
    std::printf("  %-24s %zu\n", "evaluation retries", trace.total_retries());
    std::printf("  %-24s %zu\n", "sensor fallbacks", trace.fallback_count());
  }
  if (stack->faulty != nullptr && !fleet) {
    // Fleet runs inject faults inside the workers; this process's counter
    // would read zero, so only report it for in-process evaluation.
    std::printf("  %-24s %zu\n", "injected faults",
                stack->faulty->injected_failures());
  }
  if (fleet) {
    fleet->shutdown();  // reap every worker before reporting
    const dist::FleetScheduler::Stats fs = fleet->stats();
    std::printf("  %-24s %zu\n", "fleet jobs dispatched", fs.dispatched);
    std::printf("  %-24s %zu\n", "fleet jobs lost", fs.lost);
    std::printf("  %-24s %zu\n", "fleet jobs requeued", fs.requeued);
    std::printf("  %-24s %zu\n", "fleet jobs returned", fs.returned);
    std::printf("  %-24s %zu\n", "fleet max jobs/worker", fs.max_in_flight);
    std::printf("  %-24s %zu\n", "fleet jobs failed", fs.failed_jobs);
    std::printf("  %-24s %zu\n", "fleet worker deaths", fs.worker_deaths);
    std::printf("  %-24s %zu\n", "fleet worker respawns", fs.respawns);
    std::printf("  %-24s %zu\n", "fleet garbage frames", fs.garbage_frames);
  }
  if (result.run.aborted) {
    std::printf("run aborted: %s\n", result.run.abort_reason.c_str());
  }
  if (result.run.best) {
    const auto& best = *result.run.best;
    std::printf("  %-24s %.2f%%\n", "best feasible error",
                best.test_error * 100.0);
    if (best.measured_power_w) {
      std::printf("  %-24s %.1f W\n", "best power", *best.measured_power_w);
    }
    if (best.measured_memory_mb) {
      std::printf("  %-24s %.0f MB\n", "best memory",
                  *best.measured_memory_mb);
    }
    std::printf("architecture: %s\n",
                stack->problem.to_cnn_spec(best.config).to_string().c_str());
  } else {
    std::printf("no feasible configuration found\n");
  }
  if (obs::tracer().enabled()) {
    // The run is over and the pool joined, so the rings are quiescent and
    // safe to snapshot.
    const std::vector<obs::TraceEventView> events = obs::tracer().snapshot();
    const std::vector<obs::PhaseStat> phases = obs::phase_self_times(events);
    std::size_t retry_instants = 0;
    std::size_t fault_instants = 0;
    for (const obs::TraceEventView& view : events) {
      if (!view.event.instant || view.event.name == nullptr) continue;
      if (std::strcmp(view.event.name, "eval.retry") == 0 ||
          std::strcmp(view.event.name, "eval.failed") == 0) {
        ++retry_instants;
      } else if (std::strcmp(view.event.name, "fault.injected") == 0) {
        ++fault_instants;
      }
    }
    const std::size_t shown = std::min<std::size_t>(phases.size(), 10);
    std::printf("\ntrace phases (top %zu by self time)\n", shown);
    std::printf("  %-28s %8s %12s %12s\n", "phase", "count", "self [ms]",
                "total [ms]");
    for (std::size_t i = 0; i < shown; ++i) {
      const obs::PhaseStat& p = phases[i];
      std::printf("  %-28s %8zu %12.3f %12.3f\n", p.name.c_str(), p.count,
                  p.self_s * 1e3, p.total_s * 1e3);
    }
    std::printf("  %-28s %zu\n", "retry/failure instants", retry_instants);
    std::printf("  %-28s %zu\n", "fault instants", fault_instants);
  }
  if (const auto path = args.get("trace")) {
    std::ofstream os(*path);
    if (!os) throw std::runtime_error("cannot open " + *path);
    trace.write_csv(os);
    std::printf("wrote %s\n", path->c_str());
  }
  if (result.run.aborted) return 3;
  return result.run.best ? 0 : 1;
}

int cmd_pareto(const cli::Args& args) {
  args.require_known(with_obs_flags(with_stack_flags({"hours"})));
  ObsScope obs_scope(args);
  const std::unique_ptr<cli::EvaluationStack> stack =
      cli::build_evaluation_stack(args);
  core::FrameworkOptions options;
  options.method = core::Method::HwIeci;
  options.hyperpower_mode = stack->budgets.any();
  options.optimizer.max_runtime_s = args.get_double_or("hours", 2.0) * 3600.0;
  options.optimizer.seed = cli::evaluation_policy(args).seed;
  const auto result = stack->framework->optimize(options);
  const auto front = core::pareto_front(result.run.trace);
  std::printf("error/power Pareto front (%zu points):\n", front.size());
  std::printf("%10s %10s  architecture\n", "power [W]", "error");
  for (const auto& p : front) {
    std::printf("%10.1f %9.2f%%  %s\n", p.power_w, p.test_error * 100.0,
                stack->problem.to_cnn_spec(p.config).to_string().c_str());
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  // A fleet worker dying mid-write must surface as EPIPE on the scheduler's
  // pipe (classified as a transient EvalFailure), never as SIGPIPE death.
  ::signal(SIGPIPE, SIG_IGN);
  try {
    if (argc < 2) return usage();
    const std::string command = argv[1];
    const cli::Args args(argc - 1, argv + 1);
    if (command == "devices") return cmd_devices();
    if (command == "profile") return cmd_profile(args);
    if (command == "train") return cmd_train(args);
    if (command == "optimize") return cmd_optimize(args);
    if (command == "pareto") return cmd_pareto(args);
    std::fprintf(stderr, "unknown command '%s'\n", command.c_str());
    return usage();
  } catch (const core::ContractViolation& e) {
    // A violated invariant: dump the flight recorder (if armed) for
    // post-mortem context before reporting the internal error.
    std::fprintf(stderr, "error: %s\n", e.what());
    if (obs::flight_recorder().enabled()) {
      obs::flight_recorder().dump_to_stderr("ContractViolation");
    }
    return 1;
  } catch (const std::invalid_argument& e) {
    // Bad arguments (unknown flags, malformed values, mismatched journal).
    std::fprintf(stderr, "error: %s\n", e.what());
    return 2;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}
