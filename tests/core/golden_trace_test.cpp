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

#include <cstddef>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
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

/// Journal the run, "crash" it by truncating to each of @p keeps records,
/// resume on a completely fresh stack, and require the final trace to still
/// match the golden byte-for-byte. An empty @p keeps cuts at every point
/// from no record to all of them.
void check_resume_at(const std::string& key, std::size_t batch,
                     std::size_t threads, std::vector<std::size_t> keeps) {
  if (regen_mode()) GTEST_SKIP() << "regen mode: goldens only";
  const std::string golden = read_file(golden_path(key, batch));
  const std::string full_journal =
      temp_path("golden_" + key + "_b" + std::to_string(batch) + "_full.hpj");
  const RunResult full = run_once(key, batch, threads, full_journal);
  ASSERT_EQ(trace_csv(full.trace), golden);
  const JournalLoadResult written = EvalJournal::load(full_journal);
  std::remove(full_journal.c_str());
  ASSERT_EQ(written.records.size(), full.trace.size());
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
    const HyperParameterSpace space = fake_space();
    const HardwareConstraints constraints = golden_constraints();
    FakeObjective inner(space);
    inner.set_diverge_above(0.55);
    FaultInjectingObjective faulty(inner, golden_faults());
    OptimizerOptions opt = golden_options(key, batch, threads);
    opt.journal_path = resumed_journal;
    auto optimizer = make_optimizer(key, space, faulty, constraints, opt);
    const RunResult resumed = optimizer->resume(crashed);
    EXPECT_EQ(trace_csv(resumed.trace), golden);
  }
  std::remove(resumed_journal.c_str());
}

/// check_resume_at with one mid-run cut point.
void check_resume(const std::string& key, std::size_t batch,
                  std::size_t threads, std::size_t keep) {
  check_resume_at(key, batch, threads, {keep});
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
// but the last, which it re-proposes and checks against the journal.
TEST(GoldenTrace, Resume_EveryCutPoint_HwIeciLong_BatchedParallel) {
  check_resume_at("hw_ieci_long", 4, 4, {});
}
TEST(GoldenTrace, Resume_EveryCutPoint_HwCwei_BatchedParallel) {
  check_resume_at("hw_cwei", 4, 4, {});
}
TEST(GoldenTrace, Resume_EveryCutPoint_Grid_BatchedParallel) {
  check_resume_at("grid", 4, 4, {});
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
