// Golden-trace regression suite (ISSUE 5). The CSV traces under
// tests/data/golden/ were captured from the pre-refactor Optimizer loops
// (run()/run_batched()/resume() as separate code paths); the refactored
// Proposer / Study / Optimizer pipeline must reproduce every one of them
// byte-for-byte:
//   - every method (Rand, Rand-Walk, HW-IECI, HW-CWEI, Grid)
//   - batch_size 1 and 4, num_threads 1 and 4 (thread-count invariance
//     means both thread counts compare against the SAME golden file)
//   - crash/resume via journal replay (truncate the journal mid-run,
//     resume on a fresh stack, compare the final trace to the golden)
// The scenario is deliberately rich: a-priori constraint filtering, early
// termination of diverging candidates, and deterministic injected faults
// (retries + Failed records) all appear in the traces.
//
// Regenerating (ONLY valid before a behavior-changing commit, by
// definition): HYPERPOWER_REGEN_GOLDEN=1 ./test_golden_trace

#include <gtest/gtest.h>

#include <cmath>
#include <cstddef>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "core/fault_injection.hpp"
#include "core/framework.hpp"
#include "core/grid_search.hpp"
#include "core/optimizer.hpp"
#include "core/trace_io.hpp"
#include "fake_objective.hpp"
#include "gp/kernel_fit.hpp"
#include "obs/trace.hpp"

namespace hp::core {
namespace {

using testing::FakeObjective;
using testing::fake_space;

bool regen_mode() {
  const char* env = std::getenv("HYPERPOWER_REGEN_GOLDEN");
  return env != nullptr && env[0] != '\0';
}

std::string golden_dir() {
  return std::string(HYPERPOWER_TEST_DATA_DIR) + "/golden";
}

std::string golden_path(const std::string& key, std::size_t batch) {
  return golden_dir() + "/" + key + "_b" + std::to_string(batch) + ".csv";
}

std::string trace_csv(const RunTrace& trace) {
  std::ostringstream os;
  trace.write_csv(os);
  return os.str();
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) ADD_FAILURE() << "cannot open golden file " << path;
  return {std::istreambuf_iterator<char>(in),
          std::istreambuf_iterator<char>()};
}

void write_file(const std::string& path, const std::string& contents) {
  std::filesystem::create_directories(
      std::filesystem::path(path).parent_path());
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << contents;
  ASSERT_TRUE(out.good()) << "cannot write golden file " << path;
}

/// A scratch file named after the running test, so tests that ctest runs
/// at the same time never share one.
std::string temp_path(const std::string& name) {
  return std::string(::testing::TempDir()) + "/" +
         ::testing::UnitTest::GetInstance()->current_test_info()->name() +
         "_" + name;
}

bool is_bayesian_key(const std::string& key) {
  return key.rfind("hw_ieci", 0) == 0 || key.rfind("hw_cwei", 0) == 0;
}

/// "_long" keys are the BO-heavy scenarios (ISSUE 6): enough completed
/// observations (>= 60) that the incremental GP refit and blocked
/// acquisition paths run far past the cache-warmup regime.
bool is_long_key(const std::string& key) {
  return key.size() >= 5 && key.compare(key.size() - 5, 5, "_long") == 0;
}

/// Power model in structural z (= unit a, scaled by 100 in the fake
/// objective): P(z) = 100 * z, 60 W budget => a <= 0.6 predicted feasible.
HardwareConstraints golden_constraints() {
  ConstraintBudgets budgets;
  budgets.power_w = 60.0;
  return HardwareConstraints(
      budgets,
      HardwareModel(ModelForm::Linear, linalg::Vector{100.0}, 0.0, 0.5),
      std::nullopt);
}

OptimizerOptions golden_options(const std::string& key, std::size_t batch,
                                std::size_t threads) {
  OptimizerOptions opt;
  opt.seed = 21;
  opt.batch_size = batch;
  opt.num_threads = threads;
  opt.retry.max_attempts = 3;
  opt.retry.backoff_initial_s = 5.0;
  opt.retry.backoff_jitter = 0.1;
  if (key == "grid") {
    // 3 levels x 2 dims = 9 points; stop exactly at the full grid so the
    // golden never depends on the wrap-vs-stop exhaustion policy.
    opt.max_samples = 9;
  } else if (is_bayesian_key(key)) {
    if (is_long_key(key)) {
      opt.max_function_evaluations = 70;
      opt.max_samples = 350;
    } else {
      opt.max_function_evaluations = 8;
      opt.max_samples = 48;
    }
  } else {
    opt.max_function_evaluations = 12;
    opt.max_samples = 60;
  }
  return opt;
}

/// The paper method behind a golden key other than "grid".
Method method_of(const std::string& key) {
  if (key == "rand") return Method::Rand;
  if (key == "rand_walk") return Method::RandWalk;
  if (key.rfind("hw_cwei", 0) == 0) return Method::HwCwei;
  if (key.rfind("hw_ieci", 0) != 0) {
    ADD_FAILURE() << "unknown method key " << key;
  }
  return Method::HwIeci;
}

std::unique_ptr<Optimizer> make_optimizer(const std::string& key,
                                          const HyperParameterSpace& space,
                                          Objective& objective,
                                          const HardwareConstraints& constraints,
                                          OptimizerOptions opt) {
  std::unique_ptr<Proposer> proposer;
  if (key == "grid") {
    GridSearchOptions grid;
    grid.levels_per_dimension = 3;
    proposer = std::make_unique<GridSearchProposer>(space, grid);
  } else {
    BayesOptOptions bo;
    bo.initial_design = 3;
    bo.pool.lattice_points = 120;
    bo.pool.random_points = 60;
    // The long scenario stretches the posterior-only stretch between ML
    // kernel fits so most of its ~70 refits take the incremental path.
    if (is_long_key(key)) bo.kernel_refit_interval = 12;
    proposer = make_proposer(method_of(key), space, {}, bo);
  }
  return std::make_unique<Optimizer>(space, objective, constraints.budgets(),
                                     &constraints, std::move(opt),
                                     std::move(proposer));
}

FaultSpec golden_faults() {
  FaultSpec faults;
  faults.failure_rate = 0.15;
  faults.seed = 909;
  return faults;
}

/// One full fresh-stack run; returns the result (objective torn down after).
RunResult run_once(const std::string& key, std::size_t batch,
                           std::size_t threads,
                           const std::string& journal_path = "") {
  const HyperParameterSpace space = fake_space();
  const HardwareConstraints constraints = golden_constraints();
  FakeObjective inner(space);
  inner.set_diverge_above(0.55);
  FaultInjectingObjective faulty(inner, golden_faults());
  OptimizerOptions opt = golden_options(key, batch, threads);
  opt.journal_path = journal_path;
  auto optimizer = make_optimizer(key, space, faulty, constraints, opt);
  return optimizer->run();
}

void check_or_regen(const std::string& key, std::size_t batch) {
  const std::string path = golden_path(key, batch);
  if (regen_mode()) {
    const RunResult result = run_once(key, batch, /*threads=*/1);
    write_file(path, trace_csv(result.trace));
    SUCCEED() << "regenerated " << path;
    return;
  }
  const std::string golden = read_file(path);
  ASSERT_FALSE(golden.empty()) << path;
  for (std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
    SCOPED_TRACE(key + " batch=" + std::to_string(batch) +
                 " threads=" + std::to_string(threads));
    const RunResult result = run_once(key, batch, threads);
    EXPECT_EQ(trace_csv(result.trace), golden);
  }
}

/// How a resume gets its records' kernel fits.
enum class Fits {
  /// As the journal recorded them: replay installs each one.
  kRecorded,
  /// Removed, as a v3 journal gives them: replay searches for each one.
  kStripped,
};

/// The journaled records of one full run, and the journal's text.
struct JournaledRun {
  std::vector<EvaluationRecord> records;
  std::string journal;
};

JournaledRun journaled_run(const std::string& key, std::size_t batch,
                           std::size_t threads) {
  const std::string path =
      temp_path("golden_" + key + "_b" + std::to_string(batch) + "_full.hpj");
  const RunResult full = run_once(key, batch, threads, path);
  EXPECT_EQ(trace_csv(full.trace), read_file(golden_path(key, batch)));
  JournaledRun run{EvalJournal::load(path).records, read_file(path)};
  std::remove(path.c_str());
  EXPECT_EQ(run.records.size(), full.trace.size());
  return run;
}

/// Resumes the golden scenario @p key from @p records on a fresh stack,
/// journaling to @p journal_path.
RunResult resume_from(const std::string& key, std::size_t batch,
                      std::size_t threads,
                      const std::vector<EvaluationRecord>& records,
                      const std::string& journal_path) {
  const HyperParameterSpace space = fake_space();
  const HardwareConstraints constraints = golden_constraints();
  FakeObjective inner(space);
  inner.set_diverge_above(0.55);
  FaultInjectingObjective faulty(inner, golden_faults());
  OptimizerOptions opt = golden_options(key, batch, threads);
  opt.journal_path = journal_path;
  auto optimizer = make_optimizer(key, space, faulty, constraints, opt);
  return optimizer->resume(records);
}

std::size_t count_fits(const std::vector<EvaluationRecord>& records) {
  std::size_t fits = 0;
  for (const EvaluationRecord& record : records) {
    if (record.kernel_fit) ++fits;
  }
  return fits;
}

/// Journal the run, "crash" it by truncating to each of @p keeps records,
/// resume on a completely fresh stack, and require the final trace and
/// journal to still match the uninterrupted run's byte-for-byte. An empty
/// @p keeps cuts at every point from no record to all of them.
void check_resume_at(const std::string& key, std::size_t batch,
                     std::size_t threads, std::vector<std::size_t> keeps,
                     Fits fits = Fits::kRecorded) {
  if (regen_mode()) GTEST_SKIP() << "regen mode: goldens only";
  const std::string golden = read_file(golden_path(key, batch));
  JournaledRun written = journaled_run(key, batch, threads);
  ASSERT_FALSE(::testing::Test::HasFailure());  // the uninterrupted run
  if (is_bayesian_key(key)) {
    ASSERT_GT(count_fits(written.records), 0u);
  }
  if (fits == Fits::kStripped) {
    for (EvaluationRecord& record : written.records) record.kernel_fit = {};
  }
  if (keeps.empty()) {
    for (std::size_t keep = 0; keep <= written.records.size(); ++keep) {
      keeps.push_back(keep);
    }
  }

  const std::string resumed_journal = temp_path(
      "golden_" + key + "_b" + std::to_string(batch) + "_resumed.hpj");
  for (const std::size_t keep : keeps) {
    SCOPED_TRACE(key + " batch=" + std::to_string(batch) +
                 " threads=" + std::to_string(threads) +
                 " keep=" + std::to_string(keep));
    ASSERT_LE(keep, written.records.size());
    const std::vector<EvaluationRecord> crashed(
        written.records.begin(),
        written.records.begin() + static_cast<std::ptrdiff_t>(keep));
    const RunResult resumed =
        resume_from(key, batch, threads, crashed, resumed_journal);
    EXPECT_EQ(trace_csv(resumed.trace), golden);
    // A searched fit is attached like an installed one, so the rewritten
    // journal holds every fit either way.
    EXPECT_EQ(read_file(resumed_journal), written.journal);
  }
  std::remove(resumed_journal.c_str());
}

/// Power loss at every round boundary. A batched study syncs its journal
/// once per round, so the journal holds every round up to the boundary
/// whole and then the next round's lines, one of them zero-filled (a
/// different one each round). load() drops the damage, and resuming from
/// what it keeps must still give the uninterrupted run's trace and journal.
void check_power_loss_at_round_boundaries(const std::string& key,
                                          std::size_t batch,
                                          std::size_t threads) {
  if (regen_mode()) GTEST_SKIP() << "regen mode: goldens only";
  const std::string golden = read_file(golden_path(key, batch));
  const JournaledRun written = journaled_run(key, batch, threads);
  ASSERT_FALSE(::testing::Test::HasFailure());  // the uninterrupted run
  std::vector<std::string> lines;
  std::istringstream in(written.journal);
  for (std::string line; std::getline(in, line);) lines.push_back(line);
  ASSERT_EQ(lines.back().compare(0, 2, "s,"), 0);
  lines.pop_back();  // the power failed before the study finished
  // record_line[i]: the line of record i's `r` line; its `k` line follows.
  std::vector<std::size_t> record_line;
  for (std::size_t l = 1; l < lines.size(); ++l) {
    if (lines[l].compare(0, 2, "r,") == 0) record_line.push_back(l);
  }
  ASSERT_EQ(record_line.size(), written.records.size());
  record_line.push_back(lines.size());

  const std::string crashed = temp_path(
      "golden_" + key + "_b" + std::to_string(batch) + "_power_loss.hpj");
  for (std::size_t boundary = 0; boundary < written.records.size();
       boundary += batch) {
    const std::size_t next = std::min(boundary + batch, written.records.size());
    const std::size_t first = record_line[boundary];
    const std::size_t zeroed =
        first + (boundary / batch) % (record_line[next] - first);
    SCOPED_TRACE(key + " power loss after record " + std::to_string(boundary) +
                 ", line " + std::to_string(zeroed) + " zero-filled");
    std::string text;
    for (std::size_t l = 0; l < record_line[next]; ++l) {
      text += (l == zeroed ? std::string(lines[l].size(), '\0') : lines[l]);
      text += '\n';
    }
    write_file(crashed, text);
    const JournalLoadResult loaded = EvalJournal::load(crashed);
    EXPECT_EQ(loaded.dropped_lines, record_line[next] - zeroed);
    EXPECT_GE(loaded.records.size(), boundary);
    const RunResult resumed =
        resume_from(key, batch, threads, loaded.records, crashed);
    EXPECT_EQ(trace_csv(resumed.trace), golden);
    EXPECT_EQ(read_file(crashed), written.journal);
  }
  std::remove(crashed.c_str());
}

/// check_resume_at with one mid-run cut point.
void check_resume(const std::string& key, std::size_t batch,
                  std::size_t threads, std::size_t keep) {
  check_resume_at(key, batch, threads, {keep});
}

/// "gp.fit_restart" spans while @p run runs under the tracer.
std::size_t fit_restart_spans(const std::function<void()>& run) {
  obs::TraceConfig config;
  config.ring_kb = 4096;
  obs::tracer().start(config);
  run();
  obs::tracer().stop();
  std::size_t spans = 0;
  for (const obs::TraceEventView& view : obs::tracer().snapshot()) {
    const char* name = view.event.name;
    if (name != nullptr && std::strcmp(name, "gp.fit_restart") == 0) ++spans;
  }
  EXPECT_EQ(obs::tracer().dropped_events(), 0u);
  obs::tracer().reset();
  return spans;
}

TEST(GoldenTrace, Rand_Batch1) { check_or_regen("rand", 1); }
TEST(GoldenTrace, Rand_Batch4) { check_or_regen("rand", 4); }
TEST(GoldenTrace, RandWalk_Batch1) { check_or_regen("rand_walk", 1); }
TEST(GoldenTrace, RandWalk_Batch4) { check_or_regen("rand_walk", 4); }
TEST(GoldenTrace, HwIeci_Batch1) { check_or_regen("hw_ieci", 1); }
TEST(GoldenTrace, HwIeci_Batch4) { check_or_regen("hw_ieci", 4); }
TEST(GoldenTrace, HwCwei_Batch1) { check_or_regen("hw_cwei", 1); }
TEST(GoldenTrace, HwCwei_Batch4) { check_or_regen("hw_cwei", 4); }
TEST(GoldenTrace, Grid_Batch1) { check_or_regen("grid", 1); }
TEST(GoldenTrace, Grid_Batch4) { check_or_regen("grid", 4); }

// BO-heavy goldens (ISSUE 6): ~70 completed observations, so the
// incremental-Cholesky/cached-kernel refit path and the blocked
// acquisition scoring are exercised well past the cache-warmup regime.
TEST(GoldenTrace, HwIeciLong_Batch1) { check_or_regen("hw_ieci_long", 1); }
TEST(GoldenTrace, HwIeciLong_Batch4) { check_or_regen("hw_ieci_long", 4); }

TEST(GoldenTrace, Resume_Rand_Sequential) { check_resume("rand", 1, 1, 5); }
TEST(GoldenTrace, Resume_Rand_BatchedParallel) {
  check_resume("rand", 4, 4, 6);  // 6 is mid-round: partial round dropped
}
TEST(GoldenTrace, Resume_RandWalk_Sequential) {
  check_resume("rand_walk", 1, 1, 5);
}
TEST(GoldenTrace, Resume_RandWalk_BatchedParallel) {
  check_resume("rand_walk", 4, 4, 6);
}
TEST(GoldenTrace, Resume_HwIeci_Sequential) { check_resume("hw_ieci", 1, 1, 4); }
TEST(GoldenTrace, Resume_HwIeci_BatchedParallel) {
  check_resume("hw_ieci", 4, 4, 6);
}
TEST(GoldenTrace, Resume_HwCwei_Sequential) { check_resume("hw_cwei", 1, 1, 4); }
TEST(GoldenTrace, Resume_HwCwei_BatchedParallel) {
  check_resume("hw_cwei", 4, 4, 6);
}
TEST(GoldenTrace, Resume_Grid_Sequential) { check_resume("grid", 1, 1, 5); }
TEST(GoldenTrace, Resume_Grid_BatchedParallel) {
  check_resume("grid", 4, 4, 6);
}
// keep=30 resumes mid-run with a warm (~25-observation) GP, so replay
// followed by live incremental refits must still match the golden.
TEST(GoldenTrace, Resume_HwIeciLong_Sequential) {
  check_resume("hw_ieci_long", 1, 1, 30);
}
TEST(GoldenTrace, Resume_HwIeciLong_BatchedParallel) {
  check_resume("hw_ieci_long", 4, 4, 30);
}

// Every cut point, from an empty journal to a whole one, at batch 4 on 4
// threads: partial rounds dropped, the initial design's boundary, and the
// grid's index-derived points. A batched resume observes every kept round
// but the last, which it re-proposes and checks against the journal. Then
// a power loss at every round boundary, with the next round's lines
// present and one of them zero-filled.
TEST(GoldenTrace, Resume_EveryCutPoint_HwIeciLong_BatchedParallel) {
  check_resume_at("hw_ieci_long", 4, 4, {});
  check_power_loss_at_round_boundaries("hw_ieci_long", 4, 4);
}
TEST(GoldenTrace, Resume_EveryCutPoint_HwCwei_BatchedParallel) {
  check_resume_at("hw_cwei", 4, 4, {});
  check_power_loss_at_round_boundaries("hw_cwei", 4, 4);
}
TEST(GoldenTrace, Resume_EveryCutPoint_Grid_BatchedParallel) {
  check_resume_at("grid", 4, 4, {});
  check_power_loss_at_round_boundaries("grid", 4, 4);
}

// The same cut points resumed from records without their kernel fits, as a
// v3 journal gives them: replay searches for every fit, from the previous
// one, and must reach the same trace and journal as installing them.
TEST(GoldenTrace, ResumeSearching_EveryCutPoint_HwIeciLong_BatchedParallel) {
  check_resume_at("hw_ieci_long", 4, 4, {}, Fits::kStripped);
}
TEST(GoldenTrace, ResumeSearching_EveryCutPoint_HwCwei_BatchedParallel) {
  check_resume_at("hw_cwei", 4, 4, {}, Fits::kStripped);
}
TEST(GoldenTrace, ResumeSearching_EveryCutPoint_Grid_BatchedParallel) {
  check_resume_at("grid", 4, 4, {}, Fits::kStripped);
}
TEST(GoldenTrace, ResumeSearching_HwIeciLong_Sequential) {
  check_resume_at("hw_ieci_long", 1, 1, {30}, Fits::kStripped);
}

// A recorded fit is installed, not trusted: one whose values were altered
// under a valid checksum so that the installed GP's likelihood moves (or
// whose recorded likelihood was altered), or one moved to a record that
// runs no fit, is rejected as a divergence instead of followed.
TEST(GoldenTrace, ResumeRejectsAlteredKernelFit) {
  if (regen_mode()) GTEST_SKIP() << "regen mode: goldens only";
  const JournaledRun written = journaled_run("hw_ieci_long", 4, 4);
  std::size_t altered = written.records.size();
  for (std::size_t i = written.records.size() / 2; i < altered; ++i) {
    if (written.records[i].kernel_fit) altered = i;
  }
  ASSERT_LT(altered, written.records.size());
  const std::string path = temp_path("altered.hpj");
  for (int field = 0; field < 5; ++field) {
    SCOPED_TRACE("field " + std::to_string(field));
    std::vector<EvaluationRecord> records = written.records;
    gp::KernelFit fit = *records[altered].kernel_fit;
    std::size_t rejected = altered;
    if (field == 4) {
      // Moved to the next record, which runs no kernel ML fit.
      records[altered].kernel_fit = {};
      ASSERT_FALSE(records[++rejected].kernel_fit);
    } else {
      double& value = field == 0   ? fit.params.signal_variance
                      : field == 1 ? fit.params.length_scales.back()
                      : field == 2 ? fit.noise_variance
                                   : fit.log_marginal_likelihood;
      // The likelihood's own bits, or a parameter by enough to move them.
      value = field == 3 ? std::nextafter(value, 0.0) : value * 1.25;
    }
    records[rejected].kernel_fit = RecordedKernelFit(fit);
    // Written and loaded back, every line carries a valid checksum.
    (void)EvalJournal::rewrite(path, JournalHeader{"HW-IECI", 21, 4},
                               records);
    const std::vector<EvaluationRecord> loaded = EvalJournal::load(path).records;
    ASSERT_EQ(loaded.size(), records.size());
    const std::string before = read_file(path);
    try {
      (void)resume_from("hw_ieci_long", 4, 4, loaded, path);
      ADD_FAILURE() << "the altered fit was followed";
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string(e.what()).find(
                    "kernel fit recorded with sample " +
                    std::to_string(records[rejected].index)),
                std::string::npos)
          << e.what();
    }
    // The rejected resume left its journal as it was.
    EXPECT_EQ(read_file(path), before);
  }
  std::remove(path.c_str());
}

// Resuming a whole journal runs no kernel ML search when its fits are
// recorded, and one per fit when they are not. The study is finished once
// its records are replayed, so every restart span counted is replay's.
TEST(GoldenTrace, ResumeInstallsRecordedFitsWithoutSearching) {
  if (regen_mode()) GTEST_SKIP() << "regen mode: goldens only";
  for (const std::size_t batch : {std::size_t{1}, std::size_t{4}}) {
    SCOPED_TRACE("batch " + std::to_string(batch));
    const JournaledRun written = journaled_run("hw_ieci_long", batch, batch);
    ASSERT_GT(count_fits(written.records), 0u);
    std::vector<EvaluationRecord> stripped = written.records;
    for (EvaluationRecord& record : stripped) record.kernel_fit = {};
    const std::string path = temp_path("whole.hpj");
    const std::string golden = read_file(golden_path("hw_ieci_long", batch));
    EXPECT_EQ(fit_restart_spans([&] {
                EXPECT_EQ(trace_csv(resume_from("hw_ieci_long", batch, batch,
                                                written.records, path)
                                        .trace),
                          golden);
              }),
              0u);
    EXPECT_GT(fit_restart_spans([&] {
                EXPECT_EQ(trace_csv(resume_from("hw_ieci_long", batch, batch,
                                                stripped, path)
                                        .trace),
                          golden);
              }),
              0u);
    std::remove(path.c_str());
  }
}

// Tracing is pure read-side (ISSUE 7): with the span tracer recording and
// the flight recorder armed, the goldens must still match byte-for-byte —
// at batch 1 and 4, threads 1 and 4, across every method family.
TEST(GoldenTrace, TracingOnIsByteIdentical) {
  if (regen_mode()) GTEST_SKIP() << "regen mode: goldens only";
  obs::TraceConfig config;
  config.ring_kb = 512;
  config.flight_recorder = true;
  obs::tracer().start(config);
  for (const std::string key : {"rand", "grid", "hw_ieci"}) {
    for (const std::size_t batch : {std::size_t{1}, std::size_t{4}}) {
      check_or_regen(key, batch);
    }
  }
  obs::tracer().stop();
  EXPECT_FALSE(obs::tracer().snapshot().empty());
  obs::tracer().reset();
  obs::flight_recorder().reset();
}

}  // namespace
}  // namespace hp::core
