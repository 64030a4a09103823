#include "core/study.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>
#include <utility>

#include "core/proposer.hpp"
#include "obs/obs.hpp"

namespace hp::core {

namespace {

/// Virtual cost of a model-filtered candidate: generating its network
/// prototxt plus the a-priori check's two dot products, in seconds.
constexpr double kModelFilterCostS = 3.0;

/// Per-sample counters; process-global, fetched once. The virtual clock
/// is read here only as an event field.
struct SampleMetrics {
  obs::Counter& samples;
  obs::Counter& function_evaluations;
  obs::Counter& completed;
  obs::Counter& model_filtered;
  obs::Counter& early_terminated;
  obs::Counter& infeasible;
  obs::Counter& failed;
  obs::Counter& measured_violations;
  obs::Counter& retries;
  obs::Counter& fallbacks;

  static SampleMetrics& get() {
    obs::MetricsRegistry& m = obs::metrics();
    static SampleMetrics instance{
        m.counter("optimizer.samples"),
        m.counter("optimizer.function_evaluations"),
        m.counter("optimizer.completed"),
        m.counter("optimizer.model_filtered"),
        m.counter("optimizer.early_terminated"),
        m.counter("optimizer.infeasible_architectures"),
        m.counter("optimizer.failed"),
        m.counter("optimizer.measured_violations"),
        m.counter("optimizer.eval_retries"),
        m.counter("optimizer.sensor_fallbacks"),
    };
    return instance;
  }
};

/// A live sample's observability tail: the optimizer.* metrics plus the
/// "optimizer.sample" / "optimizer.progress" events. @p trace already
/// holds @p record, and @p incumbent is updated for it.
void emit_sample_events(const EvaluationRecord& record, const RunTrace& trace,
                        const std::optional<EvaluationRecord>& incumbent,
                        const OptimizerOptions& options) {
  if (obs::metrics().enabled()) {
    SampleMetrics& m = SampleMetrics::get();
    m.samples.add(1);
    switch (record.status) {
      case EvaluationStatus::Completed:
        m.function_evaluations.add(1);
        m.completed.add(1);
        break;
      case EvaluationStatus::EarlyTerminated:
        m.function_evaluations.add(1);
        m.early_terminated.add(1);
        break;
      case EvaluationStatus::ModelFiltered:
        m.model_filtered.add(1);
        break;
      case EvaluationStatus::InfeasibleArchitecture:
        m.infeasible.add(1);
        break;
      case EvaluationStatus::Failed:
        m.failed.add(1);
        break;
    }
    if (record.measured_violation()) m.measured_violations.add(1);
    if (record.attempts > 1) m.retries.add(record.attempts - 1);
    if (!record.measured &&
        (record.measured_power_w || record.measured_memory_mb)) {
      m.fallbacks.add(1);
    }
  }

  obs::Logger& log = obs::logger();
  if (log.enabled(obs::LogLevel::kDebug)) {
    log.debug("optimizer.sample",
              {{"index", obs::JsonValue(record.index)},
               {"status", obs::JsonValue(to_string(record.status))},
               {"error", obs::JsonValue(record.test_error)},
               {"cost_s", obs::JsonValue(record.cost_s)},
               {"clock_s", obs::JsonValue(record.timestamp_s)},
               {"attempts", obs::JsonValue(record.attempts)},
               {"violates", obs::JsonValue(record.violates_constraints)}});
  }
  if (log.enabled(obs::LogLevel::kInfo)) {
    std::vector<obs::LogField> fields{
        {"samples", obs::JsonValue(trace.size())},
        {"evals", obs::JsonValue(trace.function_evaluations())},
        {"filtered", obs::JsonValue(trace.model_filtered_count())},
        {"early_terminated", obs::JsonValue(trace.early_terminated_count())},
        {"violations", obs::JsonValue(trace.measured_violation_count())},
        {"clock_s", obs::JsonValue(record.timestamp_s)},
    };
    if (trace.failed_count() > 0) {
      fields.push_back({"failed", obs::JsonValue(trace.failed_count())});
    }
    if (incumbent) {
      fields.push_back({"best_error", obs::JsonValue(incumbent->test_error)});
    }
    if (options.max_function_evaluations !=
        std::numeric_limits<std::size_t>::max()) {
      fields.push_back(
          {"max_evals", obs::JsonValue(options.max_function_evaluations)});
    }
    if (std::isfinite(options.max_runtime_s)) {
      fields.push_back(
          {"max_runtime_s", obs::JsonValue(options.max_runtime_s)});
    }
    log.info("optimizer.progress", std::move(fields));
  }
}

}  // namespace

Study::Study(const HyperParameterSpace& space, ConstraintBudgets budgets,
             const HardwareConstraints* apriori_constraints,
             const OptimizerOptions& options, Proposer& proposer, Clock& clock)
    : space_(space),
      budgets_(budgets),
      apriori_constraints_(apriori_constraints),
      options_(options),
      proposer_(proposer),
      clock_(clock) {}

const HardwareConstraints* Study::active_constraints() const noexcept {
  return options_.use_hardware_models ? apriori_constraints_ : nullptr;
}

void Study::begin(parallel::ThreadPool* pool) { start_run(nullptr, pool); }

void Study::resume(const std::vector<EvaluationRecord>& completed,
                   parallel::ThreadPool* pool) {
  start_run(&completed, pool);
}

void Study::start_run(const std::vector<EvaluationRecord>* replay,
                      parallel::ThreadPool* pool) {
  trace_ = RunTrace{};
  incumbent_.reset();
  consecutive_failures_ = 0;
  pending_.clear();
  stopped_ = aborted_ = false;
  abort_reason_.clear();

  ProposerRunContext context;
  context.budgets = &budgets_;
  context.active_constraints = active_constraints();
  context.incumbent = &incumbent_;
  context.seed = options_.seed;
  context.pool = pool;
  proposer_.begin_run(context);

  obs::Logger& log = obs::logger();
  if (log.enabled(obs::LogLevel::kInfo)) {
    log.info("optimizer.run",
             {{"method", obs::JsonValue(proposer_.name())},
              {"mode", obs::JsonValue(options_.batch_size > 1
                                          ? std::string("batched")
                                          : std::string("sequential"))},
              {"seed", obs::JsonValue(options_.seed)},
              {"batch_size", obs::JsonValue(options_.batch_size)},
              {"num_threads", obs::JsonValue(options_.num_threads)},
              {"resumed", obs::JsonValue(replay != nullptr)}});
  }

  // Batched mode replays only whole rounds: round r's proposals (and the
  // constant-liar surrogate state behind them) are a function of rounds
  // 0..r-1, so a partial round cannot be re-aligned — it is dropped and
  // re-evaluated instead (index-pure evaluations make the records come
  // out identical).
  std::vector<EvaluationRecord> kept;
  if (replay != nullptr) {
    kept = *replay;
    if (options_.batch_size > 1) {
      kept.resize(kept.size() / options_.batch_size * options_.batch_size);
    }
  }

  journal_ = EvalJournal{};
  shared_rng_ = stats::Rng(options_.seed);
  if (!kept.empty()) {
    replay_records(kept);
    log.info("optimizer.resume",
             {{"replayed", obs::JsonValue(kept.size())},
              {"dropped", obs::JsonValue(replay->size() - kept.size())},
              {"clock_s", obs::JsonValue(clock_.now_s())}});
  }
  // The journal is touched only once the replay accepted every kept
  // record: a resume rejected under other options leaves it as it was.
  if (!options_.journal_path.empty()) {
    const JournalHeader header{proposer_.name(), options_.seed,
                               options_.batch_size};
    journal_ = replay != nullptr
                   ? EvalJournal::rewrite(options_.journal_path, header,
                                          trace_.records())
                   : EvalJournal::create(options_.journal_path, header);
  }
  next_sample_ = trace_.size();
}

void Study::replay_one(EvaluationRecord record) {
  if (record.index != trace_.size()) {
    throw std::runtime_error(
        "resume: journal records are not a contiguous prefix (record index " +
        std::to_string(record.index) + " at position " +
        std::to_string(trace_.size()) + ")");
  }
  // ask() filters a candidate exactly when the a-priori models predict it
  // breaks a budget, so every record must get its verdict again. This
  // checks the rounds a batched replay does not re-propose.
  const HardwareConstraints* filter =
      options_.filter_before_training ? active_constraints() : nullptr;
  const bool filtered =
      filter != nullptr &&
      !filter->predicted_feasible(space_.structural_vector(record.config));
  if (filtered != (record.status == EvaluationStatus::ModelFiltered)) {
    throw std::runtime_error(
        "resume: the a-priori models' verdict diverges from the journal at "
        "sample " +
        std::to_string(record.index) +
        " (journal written with different budgets/models/mode?)");
  }
  const double delta = record.timestamp_s - clock_.now_s();
  if (delta > 0.0) clock_.advance(delta);
  (void)record_sample(std::move(record), /*live=*/false);
}

void Study::replay_records(std::vector<EvaluationRecord>& kept) {
  const auto mismatch = [](std::size_t index) {
    throw std::runtime_error(
        "resume: replayed proposal diverges from the journal at sample " +
        std::to_string(index) +
        " (journal written with different seed/method/options?)");
  };
  if (options_.batch_size == 1) {
    // The sequential loop consumes one propose() per record from a single
    // shared stream; re-proposing (and discarding) advances the stream and
    // any strategy-internal proposal state exactly as the original run
    // did.
    for (EvaluationRecord& record : kept) {
      if (proposer_.propose(shared_rng_) != record.config) {
        mismatch(record.index);
      }
      replay_one(std::move(record));
    }
    return;
  }
  // Between rounds a strategy's state is a function of the records it has
  // observed (the Proposer rule), and batched proposals draw from
  // per-sample streams, so every kept round but the last is only observed.
  // The last one is re-proposed and compared with the journal: the
  // divergence check for a journal written under other options.
  const std::size_t last = kept.size() - options_.batch_size;
  for (std::size_t i = 0; i < last; ++i) replay_one(std::move(kept[i]));
  const std::vector<Configuration> proposals =
      proposer_.propose_batch(last, options_.batch_size);
  for (std::size_t i = last; i < kept.size(); ++i) {
    if (i - last >= proposals.size() || proposals[i - last] != kept[i].config) {
      mismatch(i);
    }
    replay_one(std::move(kept[i]));
  }
}

std::vector<Trial> Study::ask(std::size_t k) {
  if (!pending_.empty()) {
    throw std::logic_error(
        "Study::ask: previous batch still pending (" +
        std::to_string(pending_.size()) +
        " trials owe a begin_trial/tell) — one round in flight at a time");
  }
  if (k == 0 || finished()) return {};
  const std::size_t round_base = next_sample_;
  const bool batched = options_.batch_size > 1;
  // Sequential mode proposes one trial per ask: the next proposal must
  // see this one's observation.
  std::size_t count =
      std::min(batched ? k : std::size_t{1}, options_.max_samples - round_base);

  // Sequential mode draws its one candidate from the run's shared stream;
  // a batched round is the strategy's propose_batch, each sample drawing
  // from its own (seed, sample-index) stream. Every proposal is made here,
  // on the asking thread.
  std::vector<Configuration> proposals;
  {
    obs::ScopedTimer timer("optimize.propose", round_base);
    if (!batched) {
      proposals.push_back(proposer_.propose(shared_rng_));
    } else {
      proposals = proposer_.propose_batch(round_base, count);
      // A finite strategy may run out mid-batch: truncate the round to the
      // proposals actually produced instead of padding with repeats.
      if (proposals.size() < count) count = proposals.size();
    }
  }
  if (count == 0) {
    stopped_ = true;
    return {};
  }

  const HardwareConstraints* filter =
      options_.filter_before_training ? active_constraints() : nullptr;
  std::vector<Trial> trials;
  trials.reserve(count);
  for (std::size_t j = 0; j < count; ++j) {
    Trial trial;
    trial.sample_index = round_base + j;
    Configuration config = std::move(proposals[j]);
    if (filter != nullptr &&
        !filter->predicted_feasible(space_.structural_vector(config))) {
      trial.requires_evaluation = false;
      trial.resolved.config = config;
      trial.resolved.status = EvaluationStatus::ModelFiltered;
      trial.resolved.test_error = 1.0;
      trial.resolved.violates_constraints = true;  // violating *by prediction*
      trial.resolved.cost_s = kModelFilterCostS;
    }
    pending_.push_back(PendingTrial{trial.sample_index, config});
    trial.config = std::move(config);
    trials.push_back(std::move(trial));
  }
  next_sample_ = round_base + count;
  return trials;
}

bool Study::begin_trial(std::size_t sample_index) {
  if (pending_.empty() || pending_.front().sample_index != sample_index ||
      pending_.front().begun) {
    throw std::logic_error(
        "Study::begin_trial: trials must begin in ask order, once each (got "
        "sample " +
        std::to_string(sample_index) + ")");
  }
  // A round crossing a budget discards its tail, so the trace never
  // depends on batch scheduling; an aborted study likewise stops booking.
  if (stopped_ || aborted_ ||
      trace_.function_evaluations() >= options_.max_function_evaluations ||
      clock_.now_s() >= options_.max_runtime_s) {
    pending_.clear();
    stopped_ = true;
    return false;
  }
  pending_.front().begun = true;
  clock_.advance(proposer_.proposal_overhead_s());
  return true;
}

void Study::tell(TrialResult result) {
  if (pending_.empty() || pending_.front().sample_index != result.sample_index) {
    throw std::logic_error(
        "Study::tell: results must arrive in ask order (got sample " +
        std::to_string(result.sample_index) + ")");
  }
  if (!pending_.front().begun) {
    throw std::logic_error(
        "Study::tell: trial " + std::to_string(result.sample_index) +
        " was not begun (call begin_trial first)");
  }
  PendingTrial front = std::move(pending_.front());
  pending_.pop_front();

  EvaluationRecord record = std::move(result.record);
  // Re-stamp the configuration from the study's own proposal copy:
  // results, not configurations, are what must survive execution (and the
  // fleet's wire).
  record.config = std::move(front.config);
  if (!result.cost_on_clock) clock_.advance(record.cost_s);

  obs::ScopedTimer finalize_span("optimizer.sample.finalize", trace_.size());
  // Classify against the *measured* metrics (both modes measure after
  // training; the default mode just could not avoid the cost).
  if (record.function_evaluation()) {
    if (apriori_constraints_ != nullptr) {
      record.violates_constraints = !apriori_constraints_->measured_feasible(
          record.measured_power_w, record.measured_memory_mb);
    } else {
      HardwareConstraints plain(budgets_, std::nullopt, std::nullopt);
      record.violates_constraints = !plain.measured_feasible(
          record.measured_power_w, record.measured_memory_mb);
    }
  }
  record.timestamp_s = clock_.now_s();
  // Journal after the record is final (index/timestamp/classification
  // set): the journal's crash-safety contract is "what it holds can be
  // replayed verbatim".
  journal_.append(record_sample(std::move(record), /*live=*/true));
  finalize_span.stop();
  check_abort();
}

const EvaluationRecord& Study::record_sample(EvaluationRecord record,
                                             bool live) {
  record.index = trace_.size();
  trace_.add(std::move(record));
  const EvaluationRecord& stored = trace_.records().back();
  if (stored.counts_for_best() &&
      (!incumbent_ || stored.test_error < incumbent_->test_error)) {
    incumbent_ = stored;
  }
  if (live) {
    if (stored.status == EvaluationStatus::Failed) {
      ++consecutive_failures_;
    } else {
      consecutive_failures_ = 0;
    }
    emit_sample_events(stored, trace_, incumbent_, options_);
  }
  // The kernel ML fit the observation ran, or installed from a replayed
  // record, rides on the record: the journal keeps it, and a resume's
  // rewrite writes it back.
  RecordedKernelFit fit = proposer_.observe(stored);
  if (!fit && stored.kernel_fit) {
    throw std::runtime_error(
        "resume: the kernel fit recorded with sample " +
        std::to_string(stored.index) +
        " is one this run does not make (journal written with different "
        "options?)");
  }
  if (fit) trace_.attach_kernel_fit(std::move(fit));
  return stored;
}

void Study::check_abort() {
  const std::size_t limit = options_.retry.max_consecutive_failed_samples;
  if (limit == 0 || consecutive_failures_ < limit) return;
  aborted_ = true;
  abort_reason_ = "aborted after " + std::to_string(consecutive_failures_) +
                  " consecutive failed evaluations";
  obs::logger().error(
      "optimizer.aborted",
      {{"consecutive_failures", obs::JsonValue(consecutive_failures_)},
       {"samples", obs::JsonValue(trace_.size())}});
  if (obs::flight_recorder().enabled()) {
    obs::flight_recorder().dump_to_stderr("consecutive-failure abort");
  }
}

bool Study::finished() const {
  if (stopped_ || aborted_) return true;
  if (next_sample_ >= options_.max_samples) return true;
  if (trace_.function_evaluations() >= options_.max_function_evaluations) {
    return true;
  }
  if (clock_.now_s() >= options_.max_runtime_s) return true;
  return proposer_.exhausted();
}

RunResult Study::finish() {
  // A driver that broke out mid-round (abort) leaves its tail pending;
  // those trials were never booked and never will be.
  pending_.clear();

  RunResult result;
  result.aborted = aborted_;
  result.abort_reason = abort_reason_;
  result.best = incumbent_;
  journal_.finalize(aborted_ ? "aborted" : "completed", trace_.size());
  result.trace = std::exchange(trace_, RunTrace{});

  obs::Logger& log = obs::logger();
  if (log.enabled(obs::LogLevel::kInfo)) {
    const RunTrace& trace = result.trace;
    std::vector<obs::LogField> fields{
        {"method", obs::JsonValue(proposer_.name())},
        {"samples", obs::JsonValue(trace.size())},
        {"completed", obs::JsonValue(trace.completed_count())},
        {"model_filtered", obs::JsonValue(trace.model_filtered_count())},
        {"early_terminated", obs::JsonValue(trace.early_terminated_count())},
        {"infeasible", obs::JsonValue(trace.infeasible_count())},
        {"failed", obs::JsonValue(trace.failed_count())},
        {"retries", obs::JsonValue(trace.total_retries())},
        {"fallbacks", obs::JsonValue(trace.fallback_count())},
        {"measured_violations",
         obs::JsonValue(trace.measured_violation_count())},
        {"aborted", obs::JsonValue(result.aborted)},
        {"clock_s", obs::JsonValue(clock_.now_s())},
    };
    if (result.best) {
      fields.push_back({"best_error", obs::JsonValue(result.best->test_error)});
    }
    log.info("optimizer.done", std::move(fields));
  }
  journal_ = EvalJournal{};  // close the file
  return result;
}

std::vector<RoundJob> jobs_from_trials(const std::vector<Trial>& trials) {
  std::vector<RoundJob> jobs;
  for (const Trial& trial : trials) {
    if (trial.requires_evaluation) {
      jobs.push_back(RoundJob{trial.sample_index, trial.config});
    }
  }
  return jobs;
}

}  // namespace hp::core
