// perfbench — end-to-end benchmark of the HyperPower driver.
//
// Runs one workload through the code path `hyperpower optimize` runs: every
// study gets a fresh stack from cli::build_evaluation_stack (problem,
// device, testbed objective, hardware models), HyperPowerFramework drives
// the EvaluationEngine over a core::Study, and fleet_rand dispatches rounds
// to real hpo-worker processes through dist::FleetScheduler. The benchmark
// adds no driver loop of its own: it only times public calls and wraps the
// Objective and RoundDispatcher seams (probes.hpp).
//
// An untraced run (--trace 0) runs a fixed set of study seeds, each a fixed
// number of times, and reports the end-to-end metrics. The set is sized
// from --seconds and the workload's nominal pass cost, never from measured
// time, so a faster program measures exactly the same inputs. A traced run
// (--trace 1) runs a fixed number of passes, each study once untraced and
// once under the span tracer, and reports the per-layer split. Every pass
// checks its outputs: trace digests against the ones stored for the
// default and held-out seeds, traced against untraced, fleet against
// in-process, and resumed against original. perfbench/README.md documents
// every metric.
//
// Usage: perfbench --workload bo_fig6|fleet_rand --seed N
//                  --seconds S --trace 0|1 --digests FILE --work-dir DIR

#include <sys/resource.h>
#include <sys/vfs.h>
#include <unistd.h>

#include <algorithm>
#include <csignal>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "cli/args.hpp"
#include "cli/objective_setup.hpp"
#include "core/framework.hpp"
#include "core/trace_io.hpp"
#include "dist/job_scheduler.hpp"
#include "obs/obs.hpp"
#include "probes.hpp"

namespace {

using namespace hp;
using perfbench::Interval;
using perfbench::now_s;
using perfbench::TimedDispatcher;
using perfbench::TimedObjective;

/// The seed the quoted figures are for, and the one kept out of
/// development for claims; digests are stored for both.
constexpr std::uint64_t kDefaultSeed = 42;
constexpr std::uint64_t kHeldOutSeed = 7;
/// A run's study seeds are `seed * 1000 + i` for i below this; digests
/// are stored for all of them.
constexpr std::size_t kDistinctPasses = 32;
/// Per-thread span ring of a traced study: large enough that no event of
/// any workload's study is overwritten (trace.dropped_events == 0).
constexpr std::size_t kTraceRingKb = 8192;
constexpr const char* kDevice = "GTX 1070";
constexpr std::size_t kFleetWorkers = 3;

/// One workload's study settings, as `hyperpower optimize` flags.
struct Scenario {
  const char* problem;
  const char* power_budget_w;
  double hours = 0.0;     ///< virtual time budget; 0 = none
  std::size_t evals = 0;  ///< function-evaluation budget; 0 = none
  std::size_t batch = 1;
  std::size_t threads = 1;
};

constexpr Scenario kFig6{"cifar10", "90", 5.0, 0, 4, 4};
constexpr Scenario kFleet{"mnist", "85", 0.0, 5000, 8, 4};

/// One `hyperpower optimize` invocation.
struct StudySpec {
  std::string name;  ///< study type and digest key, e.g. "HW-IECI/hyperpower"
  const Scenario* scenario = nullptr;
  core::Method method = core::Method::Rand;
  std::uint64_t seed = 1;
  bool default_mode = false;
  bool fleet = false;        ///< --workers kFleetWorkers
  std::string journal_path;  ///< --journal; empty = none

  /// The evaluation-stack flags, which the CLI also forwards verbatim to
  /// fleet workers.
  [[nodiscard]] std::vector<std::string> stack_flags() const {
    std::vector<std::string> flags{"--problem",      scenario->problem,
                                   "--device",       kDevice,
                                   "--power-budget", scenario->power_budget_w,
                                   "--seed",         std::to_string(seed)};
    if (default_mode) flags.emplace_back("--default-mode");
    return flags;
  }
};

cli::Args parse_flags(const std::vector<std::string>& flags) {
  std::vector<const char*> argv{"perfbench"};
  for (const std::string& flag : flags) argv.push_back(flag.c_str());
  return cli::Args(static_cast<int>(argv.size()), argv.data());
}

std::optional<core::HardwareModel> model_of(
    const std::optional<core::TrainedHardwareModel>& trained) {
  if (!trained) return std::nullopt;
  return trained->model;
}

/// A fresh evaluation stack, built by cli::build_evaluation_stack from the
/// study's flags, with a framework that evaluates through a TimedObjective
/// and holds the stack's hardware models. Fresh per study because the
/// testbed objective's virtual clock runs on from study to study.
struct BenchStack {
  explicit BenchStack(const std::vector<std::string>& flags)
      : args(parse_flags(flags)),
        stack(cli::build_evaluation_stack(args)),
        objective(std::make_unique<TimedObjective>(stack->search_objective())),
        framework(std::make_unique<core::HyperPowerFramework>(
            stack->problem, *objective, stack->budgets)) {
    const core::HyperPowerFramework& cli_framework = *stack->framework;
    if (cli_framework.has_hardware_models()) {
      framework->set_hardware_models(model_of(cli_framework.power_model()),
                                     model_of(cli_framework.memory_model()));
    }
  }

  /// The FrameworkOptions `hyperpower optimize` derives from its flags.
  [[nodiscard]] core::FrameworkOptions options(const StudySpec& spec) const {
    const cli::EvaluationPolicy policy = cli::evaluation_policy(args);
    core::FrameworkOptions options;
    options.method = spec.method;
    options.hyperpower_mode = stack->hyperpower_mode;
    options.optimizer.seed = policy.seed;
    options.optimizer.retry = policy.retry;
    if (spec.scenario->hours > 0.0) {
      options.optimizer.max_runtime_s = spec.scenario->hours * 3600.0;
    }
    if (spec.scenario->evals > 0) {
      options.optimizer.max_function_evaluations = spec.scenario->evals;
    }
    options.optimizer.batch_size = spec.scenario->batch;
    options.optimizer.num_threads = spec.scenario->threads;
    options.optimizer.journal_path = spec.journal_path;
    return options;
  }

  cli::Args args;
  std::unique_ptr<cli::EvaluationStack> stack;
  std::unique_ptr<TimedObjective> objective;
  std::unique_ptr<core::HyperPowerFramework> framework;
};

/// The fleet `hyperpower optimize --workers N` starts: the same deadlines,
/// heartbeat and dispatch retries, the stack flags forwarded verbatim.
std::unique_ptr<dist::FleetScheduler> make_fleet(const StudySpec& spec) {
  dist::FleetOptions options;
  options.supervisor.workers = kFleetWorkers;
  options.supervisor.worker_binary = PERFBENCH_WORKER_BIN;
  options.supervisor.worker_args = spec.stack_flags();
  options.supervisor.worker_args.emplace_back("--heartbeat-interval");
  options.supervisor.worker_args.emplace_back("0.5");
  options.heartbeat_interval_s = 0.5;
  options.job_deadline_s = 120.0;
  options.dispatch_retry.max_attempts = 3;
  options.dispatch_retry.backoff_initial_s = 0.05;
  options.run_seed = spec.seed;
  return std::make_unique<dist::FleetScheduler>(std::move(options));
}

/// Expected trace digests, one line per study:
/// `<workload> <seed> <pass> <study> <crc32>`.
class DigestBook {
 public:
  explicit DigestBook(const std::string& path) {
    std::ifstream is(path);
    if (!is) throw std::runtime_error("cannot read digests from " + path);
    std::string workload, study, digest;
    std::uint64_t seed = 0;
    std::size_t pass = 0;
    while (is >> workload >> seed >> pass >> study >> digest) {
      expected_[key(workload, seed, pass, study)] = digest;
      seeds_.insert(workload + " " + std::to_string(seed));
    }
  }

  /// False when this workload and seed have stored digests and @p digest
  /// is not the one stored for the study.
  [[nodiscard]] bool matches(const std::string& workload, std::uint64_t seed,
                             std::size_t pass, const std::string& study,
                             const std::string& digest) const {
    if (seeds_.count(workload + " " + std::to_string(seed)) == 0) return true;
    const auto it = expected_.find(key(workload, seed, pass, study));
    return it != expected_.end() && it->second == digest;
  }

 private:
  static std::string key(const std::string& workload, std::uint64_t seed,
                         std::size_t pass, const std::string& study) {
    return workload + " " + std::to_string(seed) + " " + std::to_string(pass) +
           " " + study;
  }

  std::map<std::string, std::string> expected_;
  std::set<std::string> seeds_;
};

/// Trials attempted and failures found: failed trials plus every failed
/// output check.
struct Outcome {
  std::size_t attempted = 0;
  std::size_t failed = 0;

  void book(const core::RunResult& result, const std::string& study) {
    attempted += result.trace.size();
    failed += result.trace.failed_count();
    check(!result.aborted, study + " aborted: " + result.abort_reason);
  }

  void check(bool ok, const std::string& what) {
    if (ok) return;
    ++failed;
    std::fprintf(stderr, "perfbench: check failed: %s\n", what.c_str());
  }
};

/// Per-layer totals over the traced studies of a run.
struct Layers {
  std::map<std::string, obs::PhaseStat> phases;
  double eval_busy_s = 0.0;
  std::size_t eval_calls = 0;
  double pool_round_s = 0.0;
  std::vector<double> dist_round_s;
  double dist_first_round_s = 0.0;
  dist::FleetScheduler::Stats fleet;
  std::size_t samples = 0;
  std::size_t filtered = 0;
  double journal_load_s = 0.0;
  double replay_s = 0.0;
  double model_train_s = 0.0;
  std::uint64_t dropped_events = 0;
  double traced_wall_s = 0.0;
  double untraced_wall_s = 0.0;

  void add_spans(const std::vector<obs::TraceEventView>& events,
                 bool in_process) {
    for (const obs::PhaseStat& phase : obs::phase_self_times(events)) {
      if (in_process && phase.name == "optimize.round_evaluate") {
        pool_round_s += phase.total_s;
      }
      obs::PhaseStat& sum = phases[phase.name];
      sum.count += phase.count;
      sum.total_s += phase.total_s;
      sum.self_s += phase.self_s;
    }
  }

  [[nodiscard]] const obs::PhaseStat& phase(const std::string& name) const {
    static const obs::PhaseStat kNone;
    const auto it = phases.find(name);
    return it == phases.end() ? kNone : it->second;
  }
};

struct StudyRun {
  core::RunResult result;
  double setup_s = 0.0;  ///< stack (and fleet) construction
  double wall_s = 0.0;   ///< the study itself
  std::string digest;
  /// Executions handed to evaluators: pool rounds, or fleet rounds.
  std::vector<Interval> executions;
};

/// Runs one study as `hyperpower optimize` does. With @p layers set, the
/// tracer records it and its spans and probes add to the layer totals.
StudyRun run_study(const StudySpec& spec, Layers* layers, Outcome& outcome) {
  StudyRun run;
  const std::vector<std::string> flags = spec.stack_flags();
  const double setup_start_s = now_s();
  BenchStack bench(flags);
  std::unique_ptr<dist::FleetScheduler> fleet;
  if (spec.fleet) fleet = make_fleet(spec);
  run.setup_s = now_s() - setup_start_s;
  if (layers != nullptr && !spec.default_mode) {
    // Model training's share of set-up: the same stack in default mode
    // trains nothing.
    const double plain_start_s = now_s();
    std::vector<std::string> plain_flags = flags;
    plain_flags.emplace_back("--default-mode");
    const BenchStack plain(plain_flags);
    layers->model_train_s +=
        std::max(0.0, run.setup_s - (now_s() - plain_start_s));
  }

  core::FrameworkOptions options = bench.options(spec);
  std::optional<TimedDispatcher> timed;
  if (fleet) options.optimizer.dispatcher = &timed.emplace(*fleet);
  if (layers != nullptr) {
    obs::TraceConfig config;
    config.ring_kb = kTraceRingKb;
    obs::tracer().start(config);
  }
  const double start_s = now_s();
  run.result = bench.framework->optimize(options).run;
  run.wall_s = now_s() - start_s;
  if (layers != nullptr) obs::tracer().stop();
  if (fleet) fleet->shutdown();  // reap every worker before reporting
  run.digest = perfbench::trace_digest(run.result.trace);
  outcome.book(run.result, spec.name);
  dist::FleetScheduler::Stats fleet_stats;
  if (fleet) {
    // No faults are injected, so the fleet must lose and garble nothing.
    fleet_stats = fleet->stats();
    outcome.check(fleet_stats.lost == 0 && fleet_stats.requeued == 0 &&
                      fleet_stats.garbage_frames == 0,
                  spec.name + ": the fleet lost, requeued or garbled a job");
  }

  const std::vector<Interval> calls = bench.objective->take_calls();
  if (timed) {
    run.executions = timed->take_rounds();
  } else {
    bool consistent = true;
    run.executions = perfbench::executions_by_round(
        calls, run.result.trace, options.optimizer.batch_size, consistent);
    outcome.check(consistent,
                  spec.name + ": evaluation calls do not match the trace");
  }
  if (layers == nullptr) return run;

  layers->add_spans(obs::tracer().snapshot(), !fleet);
  layers->dropped_events += obs::tracer().dropped_events();
  outcome.check(obs::tracer().dropped_events() == 0,
                spec.name + ": the tracer's ring overflowed");
  for (const Interval& call : calls) layers->eval_busy_s += call.length_s();
  layers->eval_calls += calls.size();
  layers->samples += run.result.trace.size();
  layers->filtered += run.result.trace.model_filtered_count();
  if (fleet) {
    layers->fleet.dispatched += fleet_stats.dispatched;
    layers->fleet.lost += fleet_stats.lost;
    layers->fleet.requeued += fleet_stats.requeued;
    layers->fleet.garbage_frames += fleet_stats.garbage_frames;
    for (const Interval& round : run.executions) {
      layers->dist_round_s.push_back(round.length_s());
    }
    if (!run.executions.empty()) {
      layers->dist_first_round_s += run.executions.front().length_s();
    }
  }
  return run;
}

/// Deletes the journals a run leaves in @p dir.
void remove_journals(const std::string& dir) {
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    const std::string name = entry.path().filename().string();
    if (name.rfind("journal-", 0) == 0 && entry.path().extension() == ".hpj") {
      std::filesystem::remove(entry.path());
    }
  }
}

struct Context {
  std::string workload;
  std::uint64_t seed = 0;
  const DigestBook* digests = nullptr;
  std::string work_dir;
  std::size_t journals = 0;
  Layers* layers = nullptr;  ///< non-null in a traced run
  Outcome outcome;

  /// A journal path not used before in this run. No journal is truncated
  /// or deleted while a run measures: on a filesystem mounted with
  /// `discard`, freed blocks slow the fsyncs that follow.
  std::string fresh_journal() {
    return work_dir + "/journal-" + std::to_string(journals++) + ".hpj";
  }

  /// Runs the study untraced and, in a traced run, again under the tracer;
  /// both must produce the same trace. Returns the untraced run.
  StudyRun measure(const StudySpec& spec) {
    StudyRun run = run_study(spec, nullptr, outcome);
    if (layers != nullptr) {
      StudySpec traced_spec = spec;
      if (!spec.journal_path.empty()) {
        traced_spec.journal_path = fresh_journal();
      }
      const StudyRun traced = run_study(traced_spec, layers, outcome);
      outcome.check(traced.digest == run.digest,
                    spec.name + ": traced run differs from the untraced run");
      layers->untraced_wall_s += run.wall_s;
      layers->traced_wall_s += traced.wall_s;
    }
    return run;
  }

  /// Prints the digest and checks it against the stored one.
  void check_digest(std::size_t pass, const std::string& study,
                    const std::string& digest) {
    std::fprintf(stderr, "digest %s %llu %zu %s %s\n", workload.c_str(),
                 static_cast<unsigned long long>(seed), pass, study.c_str(),
                 digest.c_str());
    outcome.check(digests->matches(workload, seed, pass, study, digest),
                  workload + " pass " + std::to_string(pass) + " " + study +
                      ": digest " + digest + " differs from the stored one");
  }

  /// Restores the study from @p records the way `--resume` does, in a
  /// fresh stack, and checks the restored trace against @p expected.
  /// Returns the seconds the restore took, stack construction excluded.
  double resume(const StudySpec& spec,
                const std::vector<core::EvaluationRecord>& records,
                const std::string& expected) {
    BenchStack bench(spec.stack_flags());
    const double start_s = now_s();
    const std::unique_ptr<core::Optimizer> optimizer =
        bench.framework->make_optimizer(bench.options(spec));
    const core::RunResult resumed = optimizer->resume(records);
    const double resume_s = now_s() - start_s;
    outcome.book(resumed, spec.name + " resumed");
    outcome.check(perfbench::trace_digest(resumed.trace) == expected,
                  spec.name + ": resumed state differs from the original");
    if (layers != nullptr) layers->replay_s += resume_s;
    return resume_s;
  }
};

struct PassResult {
  double setup_s = 0.0;
  double wall_s = 0.0;
  double resume_s = 0.0;
  /// Idle gaps by study type (StudySpec::name).
  std::map<std::string, std::vector<double>> idle_gaps_s;

  void add(const StudySpec& spec, const StudyRun& run) {
    setup_s += run.setup_s;
    wall_s += run.wall_s;
    idle_gaps_s[spec.name] = perfbench::idle_gaps_s(run.executions);
  }
};

/// Restarts @p spec's study from its journal as `hyperpower optimize
/// --journal PATH --resume` does, except that the restored study rewrites a
/// fresh journal file instead of truncating the one it loaded. Returns the
/// load plus restore seconds.
double restart_from_journal(Context& ctx, const StudySpec& spec,
                            const StudyRun& run) {
  const double load_start_s = now_s();
  const core::JournalLoadResult journal =
      core::EvalJournal::load(spec.journal_path);
  const double load_s = now_s() - load_start_s;
  ctx.outcome.check(journal.complete() && journal.header.seed == spec.seed &&
                        journal.header.batch_size == spec.scenario->batch,
                    spec.name + ": journal header or epilogue is wrong");
  if (ctx.layers != nullptr) ctx.layers->journal_load_s += load_s;
  StudySpec restart = spec;
  restart.journal_path = ctx.fresh_journal();
  return load_s + ctx.resume(restart, journal.records, run.digest);
}

/// bo_fig6: the paper's Fig. 6 scenario, {HW-IECI, HW-CWEI} x {HyperPower,
/// default} on one study seed.
PassResult fig6_pass(Context& ctx, std::size_t pass, std::uint64_t seed) {
  PassResult result;
  for (const bool default_mode : {false, true}) {
    for (const core::Method method :
         {core::Method::HwIeci, core::Method::HwCwei}) {
      StudySpec spec;
      spec.name = core::to_string(method) +
                  (default_mode ? "/default" : "/hyperpower");
      spec.scenario = &kFig6;
      spec.method = method;
      spec.seed = seed;
      spec.default_mode = default_mode;
      // Restoring a BO study replays every proposal, so one study per pass
      // keeps a journal and is restarted from it: the HyperPower HW-IECI
      // one.
      const bool restarted = !default_mode && method == core::Method::HwIeci;
      if (restarted) spec.journal_path = ctx.fresh_journal();
      const StudyRun run = ctx.measure(spec);
      ctx.check_digest(pass, spec.name, run.digest);
      result.add(spec, run);
      if (restarted) result.resume_s = restart_from_journal(ctx, spec, run);
    }
  }
  return result;
}

/// fleet_rand: Rand in default mode on 3 hpo-worker processes, checked
/// against the in-process batched run and a replay.
PassResult fleet_pass(Context& ctx, std::size_t pass, std::uint64_t seed) {
  StudySpec spec;
  spec.name = "Rand/default";
  spec.scenario = &kFleet;
  spec.seed = seed;
  spec.default_mode = true;
  spec.fleet = true;
  const StudyRun run = ctx.measure(spec);
  ctx.check_digest(pass, spec.name, run.digest);
  PassResult result;
  result.add(spec, run);

  // The fleet must reproduce the in-process batched run byte for byte.
  StudySpec local = spec;
  local.name = spec.name + "/in-process";
  local.fleet = false;
  const StudyRun reference = ctx.measure(local);
  ctx.outcome.check(
      reference.digest == run.digest,
      spec.name + ": fleet trace differs from the in-process run");

  result.resume_s =
      ctx.resume(local, run.result.trace.records(), run.digest);
  return result;
}

struct Workload {
  const char* name;
  PassResult (*run_pass)(Context&, std::size_t, std::uint64_t);
  /// About how long one untraced pass takes on a 4-core box; with
  /// --seconds it fixes how many study seeds an untraced run measures.
  double nominal_pass_s;
  /// Untraced passes per study seed. bo_fig6's cost varies far more from
  /// seed to seed (about 30%) than between repeats of a seed (about 10%),
  /// so it spends its passes on distinct seeds; fleet_rand's seeds cost
  /// about the same, so it repeats each one.
  std::size_t repeats;
  /// Passes of a traced run: fixed, so its counts repeat exactly.
  std::size_t traced_passes;
};

constexpr Workload kWorkloads[] = {
    {"bo_fig6", fig6_pass, 2.0, 1, 13},
    {"fleet_rand", fleet_pass, 0.38, 4, 70},
};

const char* filesystem_name(const std::string& path) {
  struct statfs fs {};
  if (::statfs(path.c_str(), &fs) != 0) return "unknown";
  switch (static_cast<unsigned long>(fs.f_type)) {
    case 0xEF53UL:
      return "ext4";
    case 0x01021994UL:
      return "tmpfs";
    case 0x794C7630UL:
      return "overlayfs";
    case 0x58465342UL:
      return "xfs";
    case 0x9123683EUL:
      return "btrfs";
    case 0x6969UL:
      return "nfs";
    default:
      return "other";
  }
}

double peak_rss_mb() {
  struct rusage usage {};
  ::getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

/// One reported metric: printed on its own line for people, and in the
/// final JSON line for tools.
struct Metric {
  std::string name;
  double value;
  std::string unit;
  std::string note;
};

void print_result(const Outcome& outcome, const std::vector<Metric>& metrics) {
  for (const Metric& m : metrics) {
    std::printf("  %-24s %14.6g %-6s %s\n", m.name.c_str(), m.value,
                m.unit.c_str(), m.note.c_str());
  }
  std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, "
              "\"metrics\": {",
              outcome.failed == 0 ? "true" : "false", outcome.attempted,
              outcome.failed);
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", metrics[i].name.c_str(), metrics[i].value,
                metrics[i].unit.c_str());
  }
  std::printf("}}\n");
}

/// Mean over the study seeds of each seed's median over its repeats. Pass
/// p ran seed p % @p seeds. A pass slowed by other load drops out of its own
/// seed's median; every seed always counts.
double mean_of_seed_medians(const std::vector<double>& by_pass,
                            std::size_t seeds) {
  double sum = 0.0;
  for (std::size_t seed = 0; seed < seeds; ++seed) {
    std::vector<double> repeats;
    for (std::size_t p = seed; p < by_pass.size(); p += seeds) {
      repeats.push_back(by_pass[p]);
    }
    sum += perfbench::median(repeats);
  }
  return sum / static_cast<double>(seeds);
}

std::vector<Metric> end_to_end_metrics(const std::vector<PassResult>& passes,
                                       std::size_t seeds) {
  std::vector<double> wall, setup, resume;
  for (const PassResult& pass : passes) {
    wall.push_back(pass.wall_s);
    setup.push_back(pass.setup_s);
    resume.push_back(pass.resume_s);
  }
  const std::string of_seeds =
      "mean over " + std::to_string(seeds) + " seeds of the median of " +
      std::to_string(passes.size() / seeds) + " passes";
  return {
      {"wall_s", mean_of_seed_medians(wall, seeds), "s", of_seeds},
      {"setup_s", perfbench::median(setup), "s",
       "median of " + std::to_string(passes.size()) + " passes"},
      {"peak_rss_mb", peak_rss_mb(), "MB", "driver process"},
      {"resume_s", mean_of_seed_medians(resume, seeds), "s", of_seeds},
  };
}

/// Idle gaps of the untraced studies. Each study type's gaps are pooled over
/// the passes, and the percentile is the mean over the workload's study
/// types, so how many rounds each type happens to run does not move it.
std::vector<Metric> idle_gap_metrics(const std::vector<PassResult>& passes) {
  std::map<std::string, std::vector<double>> gaps_ms;
  std::size_t gap_count = 0;
  for (const PassResult& pass : passes) {
    for (const auto& [study, gaps] : pass.idle_gaps_s) {
      for (const double gap : gaps) gaps_ms[study].push_back(gap * 1e3);
      gap_count += gaps.size();
    }
  }
  const auto gap_percentile = [&gaps_ms](double q) {
    double sum = 0.0;
    for (const auto& [study, gaps] : gaps_ms) {
      sum += perfbench::percentile(gaps, q);
    }
    return gaps_ms.empty() ? 0.0 : sum / static_cast<double>(gaps_ms.size());
  };
  const std::string of_gaps = "of " + std::to_string(gap_count) +
                              " gaps, mean over " +
                              std::to_string(gaps_ms.size()) + " study types";
  return {
      {"idle_gap_ms.p50", gap_percentile(0.5), "ms", "p50 " + of_gaps},
      {"idle_gap_ms.p90", gap_percentile(0.9), "ms", "p90 " + of_gaps},
  };
}

std::vector<Metric> per_layer_metrics(const Layers& l,
                                      const std::vector<PassResult>& passes) {
  const auto count = [](std::size_t n) { return static_cast<double>(n); };
  const obs::PhaseStat& acq = l.phase("bo.acq_argmax");
  const obs::PhaseStat& fit = l.phase("bo.gp_fit");
  const obs::PhaseStat& chol = l.phase("gp.cholesky");
  const obs::PhaseStat& fsync = l.phase("journal.fsync");
  const obs::PhaseStat& round = l.phase("optimizer.round");
  std::vector<double> round_ms;
  double round_s = 0.0;
  for (const double s : l.dist_round_s) {
    round_ms.push_back(s * 1e3);
    round_s += s;
  }
  const std::string rounds =
      "of " + std::to_string(round_ms.size()) + " rounds";
  std::vector<Metric> metrics = idle_gap_metrics(passes);
  metrics.insert(metrics.end(), {
      {"bo.acq_argmax_s", acq.self_s, "s", "self"},
      {"bo.acq_argmax_calls", count(acq.count), "count", ""},
      {"bo.gp_fit_s", fit.self_s, "s", "self"},
      {"bo.gp_fit_calls", count(fit.count), "count", ""},
      {"bo.liar_s",
       l.phase("bo.constant_liar_fill").self_s +
           l.phase("bo.constant_liar_pop").self_s,
       "s", "self"},
      {"gp.cholesky_s", chol.self_s, "s", "self"},
      {"gp.cholesky_calls", count(chol.count), "count", ""},
      {"gp.cholesky_per_fit",
       fit.count == 0 ? 0.0 : count(chol.count) / count(fit.count), "count",
       ""},
      {"study.ask_s", round.self_s + l.phase("optimize.propose").self_s, "s",
       "self"},
      {"study.tell_s",
       l.phase("optimize.merge").self_s +
           l.phase("optimizer.sample.finalize").self_s,
       "s", "self"},
      {"study.rounds", count(round.count), "count", ""},
      {"study.samples", count(l.samples), "count", ""},
      {"study.filtered_frac",
       l.samples == 0 ? 0.0 : count(l.filtered) / count(l.samples), "frac",
       ""},
      {"journal.append_s", fsync.total_s, "s", "total"},
      {"journal.appends", count(fsync.count), "count", ""},
      {"journal.load_s", l.journal_load_s, "s", ""},
      {"study.replay_s", l.replay_s, "s", ""},
      {"dist.round_s", round_s, "s", "total"},
      {"dist.round_ms.p50", perfbench::percentile(round_ms, 0.5), "ms",
       "p50 " + rounds},
      {"dist.round_ms.p90", perfbench::percentile(round_ms, 0.9), "ms",
       "p90 " + rounds},
      {"dist.first_round_s", l.dist_first_round_s, "s", "incl. worker spawn"},
      {"dist.jobs", count(l.fleet.dispatched), "count", ""},
      {"dist.lost", count(l.fleet.lost), "count", ""},
      {"dist.requeued", count(l.fleet.requeued), "count", ""},
      {"dist.garbage_frames", count(l.fleet.garbage_frames), "count", ""},
      {"eval.busy_s", l.eval_busy_s, "s", "summed over threads"},
      {"eval.calls", count(l.eval_calls), "count", ""},
      {"pool.round_s", l.pool_round_s, "s", "total"},
      {"hw.model_train_s", l.model_train_s, "s", ""},
      {"trace.dropped_events", static_cast<double>(l.dropped_events), "count",
       ""},
      {"trace.overhead_frac",
       l.untraced_wall_s > 0.0 ? l.traced_wall_s / l.untraced_wall_s - 1.0
                               : 0.0,
       "frac", "traced vs untraced study wall"},
  });
  return metrics;
}

int run(const cli::Args& args) {
  args.require_known(
      {"workload", "seed", "seconds", "trace", "digests", "work-dir"});
  const std::string name = args.get_or("workload", "");
  const Workload* workload = nullptr;
  for (const Workload& w : kWorkloads) {
    if (name == w.name) workload = &w;
  }
  if (workload == nullptr) {
    throw std::invalid_argument("unknown --workload '" + name +
                                "' (bo_fig6|fleet_rand)");
  }
  if (std::strcmp(PERFBENCH_BUILD_TYPE, "Release") != 0 || HP_CONTRACTS != 0) {
    std::fprintf(stderr,
                 "perfbench: refusing to time a %s build with HP_CONTRACTS=%d; "
                 "build Release with -DHYPERPOWER_CONTRACTS=OFF\n",
                 PERFBENCH_BUILD_TYPE, HP_CONTRACTS);
    return 2;
  }
  const bool traced = args.get_int_or("trace", 0) != 0;
  const double seconds = args.get_double_or("seconds", 10.0);
  if (!(seconds > 0.0)) {
    throw std::invalid_argument("--seconds must be positive");
  }
  const DigestBook digests(args.get_or("digests", "perfbench/digests.txt"));

  Context ctx;
  ctx.workload = workload->name;
  ctx.seed = static_cast<std::uint64_t>(args.get_int_or("seed", kDefaultSeed));
  ctx.digests = &digests;
  ctx.work_dir = args.get_or("work-dir", ".bench_build/perfbench/work");
  Layers layers;
  if (traced) ctx.layers = &layers;
  // An earlier run's journals go, and their freed blocks are flushed,
  // before anything is timed.
  std::filesystem::create_directories(ctx.work_dir);
  remove_journals(ctx.work_dir);
  ::sync();

  const char* filesystem = filesystem_name(ctx.work_dir);
  std::printf("perfbench %s seed %llu (default %llu, held out %llu), %s run\n",
              workload->name, static_cast<unsigned long long>(ctx.seed),
              static_cast<unsigned long long>(kDefaultSeed),
              static_cast<unsigned long long>(kHeldOutSeed),
              traced ? "traced" : "untraced");
  std::printf("  build %s, HP_CONTRACTS=%d, compiler %s, nproc %u, "
              "journal filesystem %s\n",
              PERFBENCH_BUILD_TYPE, HP_CONTRACTS, __VERSION__,
              std::thread::hardware_concurrency(), filesystem);

  // An untraced run cycles through its seeds `repeats` times, so each
  // seed's repeats are spread over the run.
  std::size_t seeds = kDistinctPasses;
  std::size_t pass_count = workload->traced_passes;
  if (!traced) {
    const double per_seed_s =
        static_cast<double>(workload->repeats) * workload->nominal_pass_s;
    seeds = std::clamp<std::size_t>(
        static_cast<std::size_t>(seconds / per_seed_s), 1, kDistinctPasses);
    pass_count = seeds * workload->repeats;
  }
  std::vector<PassResult> passes;
  for (std::size_t pass = 0; pass < pass_count; ++pass) {
    const std::size_t index = pass % seeds;
    const std::uint64_t study_seed = ctx.seed * 1000 + index;
    const PassResult& result =
        passes.emplace_back(workload->run_pass(ctx, index, study_seed));
    std::fprintf(stderr,
                 "pass %zu study seed %llu: setup %.6f s, wall %.6f s, "
                 "resume %.6f s\n",
                 pass, static_cast<unsigned long long>(study_seed),
                 result.setup_s, result.wall_s, result.resume_s);
  }
  remove_journals(ctx.work_dir);
  print_result(ctx.outcome,
               traced ? per_layer_metrics(layers, passes)
                      : end_to_end_metrics(passes, seeds));
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  // As in the CLI: a dying fleet worker must surface as EPIPE, not kill us.
  ::signal(SIGPIPE, SIG_IGN);
  obs::logger().add_sink(std::make_shared<obs::StderrSink>(),
                         obs::LogLevel::kWarn);
  int status = 1;
  try {
    status = run(cli::Args(argc, argv));
  } catch (const std::invalid_argument& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    status = 2;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    status = 1;
  }
  obs::logger().flush();
  obs::logger().clear_sinks();
  return status;
}
