#include <gtest/gtest.h>
#include <sys/resource.h>

#include <bit>
#include <cctype>
#include <csignal>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <limits>
#include <string>
#include <vector>

#include "core/checksum.hpp"
#include "core/trace_io.hpp"
#include "gp/kernel_fit.hpp"

namespace hp::core {
namespace {

std::string temp_path(const std::string& name) {
  return std::string(::testing::TempDir()) + "/" + name;
}

JournalHeader header() {
  JournalHeader h;
  h.method = "Rand";
  h.seed = 42;
  h.batch_size = 4;
  return h;
}

std::vector<EvaluationRecord> sample_records() {
  std::vector<EvaluationRecord> records;
  EvaluationRecord ok;
  ok.config = {0.1234567890123456, 0.9876543210987654};
  ok.status = EvaluationStatus::Completed;
  ok.test_error = 0.0625;
  ok.measured_power_w = 87.5;
  ok.measured_memory_mb = 512.25;
  ok.cost_s = 123.5;
  ok.timestamp_s = 123.5;
  ok.index = 0;
  records.push_back(ok);

  EvaluationRecord degraded;
  degraded.config = {1.0 / 3.0, 2.0 / 7.0};
  degraded.status = EvaluationStatus::Completed;
  degraded.test_error = 0.125;
  degraded.measured_power_w = 90.0;
  degraded.measured = false;  // came from the fallback model
  degraded.attempts = 2;
  degraded.cost_s = 150.0;
  degraded.timestamp_s = 273.5;
  degraded.index = 1;
  records.push_back(degraded);

  EvaluationRecord failed;
  failed.config = {0.5, 0.5};
  failed.status = EvaluationStatus::Failed;
  failed.test_error = 1.0;
  failed.violates_constraints = false;
  failed.cost_s = 105.0;
  failed.timestamp_s = 378.5;
  failed.index = 2;
  failed.attempts = 3;
  failed.failure_kind = FailureKind::Transient;
  records.push_back(failed);

  EvaluationRecord filtered;
  filtered.config = {0.75, 0.25};
  filtered.status = EvaluationStatus::ModelFiltered;
  filtered.violates_constraints = true;
  filtered.cost_s = 3.0;
  filtered.timestamp_s = 381.5;
  filtered.index = 3;
  records.push_back(filtered);
  return records;
}

/// A kernel fit with every value distinct, so a field mix-up shows.
gp::KernelFit sample_fit(double scale) {
  gp::KernelFit fit;
  fit.params.signal_variance = 1.5 * scale;
  fit.params.length_scales = {0.25 * scale, 1.0 / 3.0, 3.0 * scale};
  fit.noise_variance = 1e-4 * scale;
  fit.log_marginal_likelihood = -12.345678901234567 * scale;
  return fit;
}

/// sample_records() with fits on the first and the third record.
std::vector<EvaluationRecord> records_with_fits() {
  std::vector<EvaluationRecord> records = sample_records();
  records[0].kernel_fit = RecordedKernelFit(sample_fit(1.0));
  records[2].kernel_fit = RecordedKernelFit(sample_fit(2.0));
  return records;
}

std::uint64_t bits(double value) { return std::bit_cast<std::uint64_t>(value); }

void expect_fit_eq(const RecordedKernelFit& a, const RecordedKernelFit& b) {
  ASSERT_EQ(static_cast<bool>(a), static_cast<bool>(b));
  if (!a) return;
  EXPECT_EQ(bits(a->params.signal_variance), bits(b->params.signal_variance));
  ASSERT_EQ(a->params.length_scales.size(), b->params.length_scales.size());
  for (std::size_t d = 0; d < a->params.length_scales.size(); ++d) {
    EXPECT_EQ(bits(a->params.length_scales[d]),
              bits(b->params.length_scales[d]));
  }
  EXPECT_EQ(bits(a->noise_variance), bits(b->noise_variance));
  EXPECT_EQ(bits(a->log_marginal_likelihood),
            bits(b->log_marginal_likelihood));
}

std::string read_text(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

void write_text(const std::string& path, const std::string& text) {
  std::ofstream out(path, std::ios::trunc | std::ios::binary);
  out << text;
}

void expect_record_eq(const EvaluationRecord& a, const EvaluationRecord& b) {
  EXPECT_EQ(a.config, b.config);  // bit-exact doubles
  EXPECT_EQ(a.status, b.status);
  EXPECT_EQ(a.test_error, b.test_error);
  EXPECT_EQ(a.diverged, b.diverged);
  EXPECT_EQ(a.measured_power_w, b.measured_power_w);
  EXPECT_EQ(a.measured_memory_mb, b.measured_memory_mb);
  EXPECT_EQ(a.violates_constraints, b.violates_constraints);
  EXPECT_EQ(a.cost_s, b.cost_s);
  EXPECT_EQ(a.timestamp_s, b.timestamp_s);
  EXPECT_EQ(a.index, b.index);
  EXPECT_EQ(a.measured, b.measured);
  EXPECT_EQ(a.attempts, b.attempts);
  EXPECT_EQ(a.failure_kind, b.failure_kind);
  expect_fit_eq(a.kernel_fit, b.kernel_fit);
}

TEST(EvalJournal, RoundTripsRecordsBitExactly) {
  const std::string path = temp_path("journal_roundtrip.hpj");
  auto journal = EvalJournal::create(path, header());
  EXPECT_TRUE(journal.active());
  EXPECT_EQ(journal.path(), path);
  const std::vector<EvaluationRecord> records = sample_records();
  for (const auto& record : records) journal.append(record);

  const JournalLoadResult loaded = EvalJournal::load(path);
  EXPECT_EQ(loaded.header.method, "Rand");
  EXPECT_EQ(loaded.header.seed, 42u);
  EXPECT_EQ(loaded.header.batch_size, 4u);
  EXPECT_EQ(loaded.dropped_lines, 0u);
  ASSERT_EQ(loaded.records.size(), records.size());
  for (std::size_t i = 0; i < records.size(); ++i) {
    SCOPED_TRACE(i);
    expect_record_eq(loaded.records[i], records[i]);
  }
  std::remove(path.c_str());
}

TEST(EvalJournal, InactiveJournalIgnoresAppend) {
  EvalJournal journal;
  EXPECT_FALSE(journal.active());
  journal.append(sample_records()[0]);  // must not crash or write anywhere
}

TEST(EvalJournal, DropsTornFinalLine) {
  const std::string path = temp_path("journal_torn.hpj");
  {
    auto journal = EvalJournal::create(path, header());
    for (const auto& record : sample_records()) journal.append(record);
  }
  {
    // Simulate dying mid-append: an unterminated, truncated record line.
    std::ofstream torn(path, std::ios::app | std::ios::binary);
    torn << "r,4,384.5,completed,0.1";
  }
  const JournalLoadResult loaded = EvalJournal::load(path);
  EXPECT_EQ(loaded.dropped_lines, 1u);
  EXPECT_EQ(loaded.records.size(), sample_records().size());
  std::remove(path.c_str());
}

TEST(EvalJournal, RecoversHeaderOnlyFileWithTornFirstRecord) {
  const std::string path = temp_path("journal_torn_first.hpj");
  {
    auto journal = EvalJournal::create(path, header());
    journal.append(sample_records()[0]);
  }
  // Truncate into the middle of the first (and only) record line.
  std::ifstream in(path, std::ios::binary);
  std::string contents((std::istreambuf_iterator<char>(in)),
                       std::istreambuf_iterator<char>());
  in.close();
  const std::size_t record_start = contents.find("\nr,") + 1;
  std::ofstream out(path, std::ios::trunc | std::ios::binary);
  out << contents.substr(0, record_start + 8);
  out.close();

  const JournalLoadResult loaded = EvalJournal::load(path);
  EXPECT_EQ(loaded.records.size(), 0u);
  EXPECT_EQ(loaded.dropped_lines, 1u);
  std::remove(path.c_str());
}

TEST(EvalJournal, ThrowsOnMidFileCorruption) {
  const std::string path = temp_path("journal_corrupt.hpj");
  {
    auto journal = EvalJournal::create(path, header());
    journal.append(sample_records()[0]);
  }
  std::ifstream in(path, std::ios::binary);
  std::string contents((std::istreambuf_iterator<char>(in)),
                       std::istreambuf_iterator<char>());
  in.close();
  // A valid record line, re-appended after the corrupt one so the
  // corruption is mid-file — not a recoverable torn tail.
  const std::size_t record_start = contents.find("\nr,") + 1;
  const std::string valid_line = contents.substr(record_start);
  {
    std::ofstream out(path, std::ios::app | std::ios::binary);
    out << "r,not-a-record\n" << valid_line;
  }
  EXPECT_THROW((void)EvalJournal::load(path), std::runtime_error);
  std::remove(path.c_str());
}

TEST(EvalJournal, ThrowsOnMissingFileAndBadHeader) {
  EXPECT_THROW((void)EvalJournal::load(temp_path("no_such_journal.hpj")),
               std::runtime_error);
  const std::string path = temp_path("journal_badheader.hpj");
  {
    std::ofstream out(path, std::ios::trunc | std::ios::binary);
    out << "not-a-journal,v9\n";
  }
  EXPECT_THROW((void)EvalJournal::load(path), std::runtime_error);
  std::remove(path.c_str());
}

TEST(EvalJournal, RewriteReproducesCreatePlusAppends) {
  const std::string incremental_path = temp_path("journal_incremental.hpj");
  const std::string rewritten_path = temp_path("journal_rewritten.hpj");
  const std::vector<EvaluationRecord> records = sample_records();
  {
    auto journal = EvalJournal::create(incremental_path, header());
    for (const auto& record : records) journal.append(record);
  }
  {
    auto journal = EvalJournal::rewrite(rewritten_path, header(), records);
    EXPECT_TRUE(journal.active());
  }
  std::ifstream a(incremental_path, std::ios::binary);
  std::ifstream b(rewritten_path, std::ios::binary);
  const std::string text_a((std::istreambuf_iterator<char>(a)),
                           std::istreambuf_iterator<char>());
  const std::string text_b((std::istreambuf_iterator<char>(b)),
                           std::istreambuf_iterator<char>());
  EXPECT_EQ(text_a, text_b);
  std::remove(incremental_path.c_str());
  std::remove(rewritten_path.c_str());
}

TEST(EvalJournal, WritesV4HeaderAndChecksummedLines) {
  const std::string path = temp_path("journal_v4_format.hpj");
  {
    auto journal = EvalJournal::create(path, header());
    journal.append(records_with_fits()[0]);
  }
  std::ifstream in(path, std::ios::binary);
  std::string line;
  ASSERT_TRUE(std::getline(in, line));
  EXPECT_EQ(line, "hpjournal,v4,Rand,42,4");
  ASSERT_TRUE(std::getline(in, line));
  // Every v2+ record line ends in ",#<8-hex crc32 of the body>".
  ASSERT_GT(line.size(), 10u);
  EXPECT_EQ(line.substr(line.size() - 10, 2), ",#");
  for (std::size_t i = line.size() - 8; i < line.size(); ++i) {
    EXPECT_TRUE(std::isxdigit(static_cast<unsigned char>(line[i]))) << line;
  }
  // The record's kernel fit follows it: signal variance, noise variance,
  // log marginal likelihood, then the length-scale count and values.
  ASSERT_TRUE(std::getline(in, line));
  const std::string body =
      "k,1.5,0.0001,-12.345678901234567,3,0.25,0.33333333333333331,3";
  char checksum[16];
  std::snprintf(checksum, sizeof checksum, ",#%08x", crc32(body));
  EXPECT_EQ(line, body + checksum);
  EXPECT_FALSE(std::getline(in, line));
  std::remove(path.c_str());
}

TEST(EvalJournal, RoundTripsKernelFitsWithTheirRecords) {
  const std::string path = temp_path("journal_fits.hpj");
  const std::string rewritten = temp_path("journal_fits_rewritten.hpj");
  const std::vector<EvaluationRecord> records = records_with_fits();
  {
    auto journal = EvalJournal::create(path, header());
    for (const auto& record : records) journal.append(record);
  }
  const JournalLoadResult loaded = EvalJournal::load(path);
  EXPECT_EQ(loaded.dropped_lines, 0u);
  ASSERT_EQ(loaded.records.size(), records.size());
  for (std::size_t i = 0; i < records.size(); ++i) {
    SCOPED_TRACE(i);
    expect_record_eq(loaded.records[i], records[i]);
  }
  // rewrite() writes the fits back exactly as the appends did.
  (void)EvalJournal::rewrite(rewritten, header(), loaded.records);
  EXPECT_EQ(read_text(rewritten), read_text(path));
  std::remove(path.c_str());
  std::remove(rewritten.c_str());
}

TEST(EvalJournal, TornKernelFitLineLeavesItsRecordWithoutAFit) {
  const std::string path = temp_path("journal_torn_fit.hpj");
  std::vector<EvaluationRecord> records = records_with_fits();
  records.resize(3);  // the last record carries a fit
  {
    auto journal = EvalJournal::create(path, header());
    for (const auto& record : records) journal.append(record);
  }
  // A crash inside the append's one write: the record line made it, its
  // kernel-fit line did not whole.
  std::string text = read_text(path);
  ASSERT_EQ(text.back(), '\n');
  text.resize(text.size() - 15);
  write_text(path, text);
  const JournalLoadResult loaded = EvalJournal::load(path);
  EXPECT_EQ(loaded.dropped_lines, 1u);
  ASSERT_EQ(loaded.records.size(), 3u);
  EXPECT_TRUE(loaded.records[0].kernel_fit);
  EXPECT_FALSE(loaded.records[2].kernel_fit);
  std::remove(path.c_str());
}

TEST(EvalJournal, LoadsLegacyV3JournalsWithoutFits) {
  const std::string path = temp_path("journal_v3_legacy.hpj");
  const std::vector<EvaluationRecord> records = sample_records();
  {
    auto journal = EvalJournal::create(path, header());
    for (const auto& record : records) journal.append(record);
    journal.finalize("completed", records.size());
  }
  // Without fits, a v4 journal is a v3 one but for its header.
  std::string text = read_text(path);
  ASSERT_EQ(text.compare(0, 13, "hpjournal,v4,"), 0);
  text[11] = '3';
  write_text(path, text);
  const JournalLoadResult loaded = EvalJournal::load(path);
  EXPECT_EQ(loaded.study_state, "completed");
  ASSERT_EQ(loaded.records.size(), records.size());
  for (std::size_t i = 0; i < records.size(); ++i) {
    SCOPED_TRACE(i);
    expect_record_eq(loaded.records[i], records[i]);
  }
  std::remove(path.c_str());
}

TEST(EvalJournal, RoundTripsSubnormalConfigValuesAndCosts) {
  // "%.17g" of these reads back through from_chars; std::stod threw
  // out_of_range on them, so such a record read as corruption.
  const std::string path = temp_path("journal_subnormal.hpj");
  std::vector<EvaluationRecord> records = sample_records();
  records[0].config = {std::numeric_limits<double>::denorm_min(), 1e-310,
                      -2.2250738585072009e-308};
  records[0].cost_s = 1e-310;
  records[1].cost_s = std::numeric_limits<double>::denorm_min();
  {
    auto journal = EvalJournal::create(path, header());
    for (const auto& record : records) journal.append(record);
  }
  const JournalLoadResult loaded = EvalJournal::load(path);
  EXPECT_EQ(loaded.dropped_lines, 0u);
  ASSERT_EQ(loaded.records.size(), records.size());
  for (std::size_t i = 0; i < 2; ++i) {
    ASSERT_EQ(loaded.records[i].config.size(), records[i].config.size());
    for (std::size_t k = 0; k < records[i].config.size(); ++k) {
      EXPECT_EQ(bits(loaded.records[i].config[k]), bits(records[i].config[k]));
    }
    EXPECT_EQ(bits(loaded.records[i].cost_s), bits(records[i].cost_s));
  }
  std::remove(path.c_str());
}

TEST(EvalJournal, FinalizeWritesStudyStateEpilogueAndClosesJournal) {
  const std::string path = temp_path("journal_finalized.hpj");
  {
    auto journal = EvalJournal::create(path, header());
    journal.append(sample_records()[0]);
    journal.append(sample_records()[1]);
    journal.finalize("completed", 2);
    // finalize closes the journal: it goes inactive, appends are no-ops.
    EXPECT_FALSE(journal.active());
    journal.append(sample_records()[2]);
  }
  const JournalLoadResult loaded = EvalJournal::load(path);
  EXPECT_TRUE(loaded.complete());
  EXPECT_EQ(loaded.study_state, "completed");
  EXPECT_EQ(loaded.dropped_lines, 0u);
  ASSERT_EQ(loaded.records.size(), 2u);
  expect_record_eq(loaded.records[0], sample_records()[0]);
  expect_record_eq(loaded.records[1], sample_records()[1]);
  std::remove(path.c_str());
}

TEST(EvalJournal, UnfinalizedJournalLoadsAsIncomplete) {
  const std::string path = temp_path("journal_unfinalized.hpj");
  {
    auto journal = EvalJournal::create(path, header());
    journal.append(sample_records()[0]);
    // No finalize: the writer "crashed" — this is the resume case.
  }
  const JournalLoadResult loaded = EvalJournal::load(path);
  EXPECT_FALSE(loaded.complete());
  EXPECT_TRUE(loaded.study_state.empty());
  EXPECT_EQ(loaded.records.size(), 1u);
  std::remove(path.c_str());
}

TEST(EvalJournal, TornEpilogueDropsAsTailAndLoadsAsIncomplete) {
  const std::string path = temp_path("journal_torn_epilogue.hpj");
  {
    auto journal = EvalJournal::create(path, header());
    journal.append(sample_records()[0]);
    journal.finalize("completed", 1);
  }
  // Truncate into the middle of the epilogue line, as a crash during the
  // final write would: the journal must load as a normal unfinished run.
  std::ifstream in(path, std::ios::binary);
  std::string contents((std::istreambuf_iterator<char>(in)),
                       std::istreambuf_iterator<char>());
  in.close();
  const std::size_t epilogue_start = contents.find("\ns,") + 1;
  std::ofstream out(path, std::ios::trunc | std::ios::binary);
  out << contents.substr(0, epilogue_start + 5);
  out.close();

  const JournalLoadResult loaded = EvalJournal::load(path);
  EXPECT_FALSE(loaded.complete());
  EXPECT_EQ(loaded.dropped_lines, 1u);
  ASSERT_EQ(loaded.records.size(), 1u);
  expect_record_eq(loaded.records[0], sample_records()[0]);
  std::remove(path.c_str());
}

TEST(EvalJournal, ThrowsOnContentAfterStudyStateEpilogue) {
  const std::string path = temp_path("journal_after_epilogue.hpj");
  std::string record_line;
  {
    auto journal = EvalJournal::create(path, header());
    journal.append(sample_records()[0]);
  }
  {
    std::ifstream in(path, std::ios::binary);
    std::string contents((std::istreambuf_iterator<char>(in)),
                         std::istreambuf_iterator<char>());
    const std::size_t record_start = contents.find("\nr,") + 1;
    record_line = contents.substr(record_start);  // includes trailing \n
  }
  {
    auto journal = EvalJournal::rewrite(path, header(), {sample_records()[0]});
    journal.finalize("completed", 1);
  }
  {
    // A record appended after the epilogue is tampering, never a torn
    // tail: the writer closes the file right after finalizing.
    std::ofstream out(path, std::ios::app | std::ios::binary);
    out << record_line;
  }
  EXPECT_THROW((void)EvalJournal::load(path), std::runtime_error);
  std::remove(path.c_str());
}

TEST(EvalJournal, EpilogueRecordCountMismatchLoadsAsIncomplete) {
  const std::string path = temp_path("journal_epilogue_count.hpj");
  {
    auto journal = EvalJournal::create(path, header());
    journal.append(sample_records()[0]);
    journal.append(sample_records()[1]);
    journal.finalize("completed", 2);
  }
  // Delete the second record line wholesale. Every surviving line's
  // checksum is intact, so only the epilogue's record count can expose
  // the excision — and because the epilogue is the FINAL line, the
  // mismatch resolves conservatively: drop it as a torn tail and hand
  // resume an incomplete journal instead of trusting the "completed"
  // marker of a journal that lost records.
  std::ifstream in(path, std::ios::binary);
  std::string contents((std::istreambuf_iterator<char>(in)),
                       std::istreambuf_iterator<char>());
  in.close();
  const std::size_t second = contents.find("\nr,", contents.find("\nr,") + 1);
  const std::size_t epilogue = contents.find("\ns,");
  ASSERT_NE(second, std::string::npos);
  ASSERT_NE(epilogue, std::string::npos);
  contents.erase(second, epilogue - second);
  {
    std::ofstream out(path, std::ios::trunc | std::ios::binary);
    out << contents;
  }
  const JournalLoadResult loaded = EvalJournal::load(path);
  EXPECT_FALSE(loaded.complete());
  EXPECT_EQ(loaded.dropped_lines, 1u);
  ASSERT_EQ(loaded.records.size(), 1u);
  std::remove(path.c_str());
}

TEST(EvalJournal, LoadsLegacyV1JournalsWithoutChecksums) {
  const std::string path = temp_path("journal_v1_legacy.hpj");
  const std::vector<EvaluationRecord> records = sample_records();
  {
    // A journal written by the pre-checksum format: plain record lines.
    std::ofstream out(path, std::ios::trunc | std::ios::binary);
    out << "hpjournal,v1,Rand,42,4\n";
    for (const auto& record : records) {
      out << format_record_line(record) << "\n";
    }
  }
  const JournalLoadResult loaded = EvalJournal::load(path);
  EXPECT_EQ(loaded.header.method, "Rand");
  EXPECT_EQ(loaded.header.seed, 42u);
  EXPECT_EQ(loaded.dropped_lines, 0u);
  ASSERT_EQ(loaded.records.size(), records.size());
  for (std::size_t i = 0; i < records.size(); ++i) {
    SCOPED_TRACE(i);
    expect_record_eq(loaded.records[i], records[i]);
  }
  std::remove(path.c_str());
}

TEST(EvalJournal, LoadsLegacyV2JournalsWithoutEpilogue) {
  const std::string path = temp_path("journal_v2_legacy.hpj");
  const std::vector<EvaluationRecord> records = sample_records();
  {
    auto journal = EvalJournal::create(path, header());
    for (const auto& record : records) journal.append(record);
  }
  // Record lines are identical from v2 to v4; only the header version, the
  // (absent) epilogue and the (absent) kernel fits differ. Rewriting the
  // header makes this an exact pre-epilogue journal.
  std::ifstream in(path, std::ios::binary);
  std::string contents((std::istreambuf_iterator<char>(in)),
                       std::istreambuf_iterator<char>());
  in.close();
  const std::size_t version = contents.find(",v4,");
  ASSERT_NE(version, std::string::npos);
  contents.replace(version, 4, ",v2,");
  {
    std::ofstream out(path, std::ios::trunc | std::ios::binary);
    out << contents;
  }
  const JournalLoadResult loaded = EvalJournal::load(path);
  EXPECT_FALSE(loaded.complete());
  EXPECT_EQ(loaded.dropped_lines, 0u);
  ASSERT_EQ(loaded.records.size(), records.size());
  for (std::size_t i = 0; i < records.size(); ++i) {
    SCOPED_TRACE(i);
    expect_record_eq(loaded.records[i], records[i]);
  }
  std::remove(path.c_str());
}

// Reads the journal file, applies one text substitution, writes it back —
// the "disk flipped a digit" / "merge tore a write" simulator.
void tamper(const std::string& path, const std::string& from,
            const std::string& to) {
  std::ifstream in(path, std::ios::binary);
  std::string contents((std::istreambuf_iterator<char>(in)),
                       std::istreambuf_iterator<char>());
  in.close();
  const std::size_t pos = contents.find(from);
  ASSERT_NE(pos, std::string::npos);
  contents.replace(pos, from.size(), to);
  std::ofstream out(path, std::ios::trunc | std::ios::binary);
  out << contents;
}

TEST(EvalJournal, RejectsMidFileChecksumMismatchEvenWhenParseable) {
  const std::string path = temp_path("journal_v2_midflip.hpj");
  {
    auto journal = EvalJournal::create(path, header());
    journal.append(sample_records()[0]);
    journal.append(sample_records()[1]);
  }
  // Flip one digit of the FIRST record's test error. The line still parses
  // as a valid record — only the checksum knows it is not what was written.
  tamper(path, "0.0625", "0.0635");
  EXPECT_THROW((void)EvalJournal::load(path), std::runtime_error);
  std::remove(path.c_str());
}

TEST(EvalJournal, DropsChecksumMismatchOnFinalLineAsTornTail) {
  const std::string path = temp_path("journal_v2_tailflip.hpj");
  {
    auto journal = EvalJournal::create(path, header());
    journal.append(sample_records()[0]);
    journal.append(sample_records()[1]);
  }
  // Same flip on the LAST line: recoverable torn tail, prefix survives.
  tamper(path, "0.125", "0.135");
  const JournalLoadResult loaded = EvalJournal::load(path);
  EXPECT_EQ(loaded.dropped_lines, 1u);
  ASSERT_EQ(loaded.records.size(), 1u);
  expect_record_eq(loaded.records[0], sample_records()[0]);
  std::remove(path.c_str());
}

TEST(EvalJournal, RewriteJournalStaysAppendable) {
  const std::string path = temp_path("journal_rewrite_append.hpj");
  const std::vector<EvaluationRecord> records = sample_records();
  {
    auto journal = EvalJournal::rewrite(
        path, header(), {records.begin(), records.begin() + 2});
    for (std::size_t i = 2; i < records.size(); ++i) {
      journal.append(records[i]);
    }
  }
  const JournalLoadResult loaded = EvalJournal::load(path);
  ASSERT_EQ(loaded.records.size(), records.size());
  for (std::size_t i = 0; i < records.size(); ++i) {
    SCOPED_TRACE(i);
    expect_record_eq(loaded.records[i], records[i]);
  }
  std::remove(path.c_str());
}

/// Rewrites @p path with @p records under a file-size limit of @p limit
/// bytes, past which the kernel kills the process with SIGXFSZ.
[[noreturn]] void rewrite_under_size_limit(
    const std::string& path, rlim_t limit,
    const std::vector<EvaluationRecord>& records) {
  std::signal(SIGXFSZ, SIG_DFL);
  const rlimit no_core{0, 0};
  setrlimit(RLIMIT_CORE, &no_core);
  const rlimit file_size{limit, limit};
  setrlimit(RLIMIT_FSIZE, &file_size);
  (void)EvalJournal::rewrite(path, header(), records);
  std::exit(0);
}

TEST(EvalJournal, InterruptedRewriteKeepsTheOldJournal) {
  const std::string path = temp_path("journal_interrupted_rewrite.hpj");
  std::vector<EvaluationRecord> records;
  for (std::size_t i = 0; i < 200; ++i) {
    records.push_back(sample_records()[i % 4]);
    records.back().index = i;
  }
  {
    auto journal = EvalJournal::create(path, header());
    for (const auto& record : records) journal.append(record);
  }
  // The child dies in the middle of rewriting the journal it would resume
  // from; the journal must still hold every record.
  ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
  EXPECT_EXIT(
      rewrite_under_size_limit(path, std::filesystem::file_size(path) / 2,
                               records),
      ::testing::KilledBySignal(SIGXFSZ), "");
  const JournalLoadResult loaded = EvalJournal::load(path);
  EXPECT_EQ(loaded.dropped_lines, 0u);
  ASSERT_EQ(loaded.records.size(), records.size());
  for (std::size_t i = 0; i < records.size(); ++i) {
    SCOPED_TRACE(i);
    expect_record_eq(loaded.records[i], records[i]);
  }
  std::remove(path.c_str());
  std::remove((path + ".tmp").c_str());
}

/// The record line of sample_records()[1] with field @p field replaced by
/// @p value.
std::string record_line_with(std::size_t field, const std::string& value) {
  std::string line = format_record_line(sample_records()[1]);
  std::size_t begin = 0;
  for (std::size_t i = 0; i < field; ++i) begin = line.find(',', begin) + 1;
  const std::size_t end = line.find(',', begin);
  return line.replace(begin, end == std::string::npos ? end : end - begin,
                      value);
}

TEST(EvalJournal, RejectsMalformedRecordCounts) {
  ASSERT_NO_THROW((void)parse_record_line(record_line_with(1, "1"), 2));
  // A parsed double cast to an integer would read every value below:
  // undefined behaviour for NaN, negative or huge values; 1.5 and " 1"
  // as 1.
  for (const std::string bad : {"nan", "-1", "1e300", "1.5",
                                "18446744073709551616", " 1"}) {
    SCOPED_TRACE(bad);
    EXPECT_THROW((void)parse_record_line(record_line_with(1, bad), 2),
                 std::runtime_error)
        << "index";
    EXPECT_THROW((void)parse_record_line(record_line_with(11, bad), 2),
                 std::runtime_error)
        << "attempts";
  }
  // The config size, on a record with no config values (1e300 and 2^64
  // cast to 0) and on one with a single value (1.5 and " 1" cast to 1).
  EvaluationRecord empty = sample_records()[1];
  empty.config.clear();
  std::string line = format_record_line(empty);
  ASSERT_NO_THROW((void)parse_record_line(line, 2));
  line.erase(line.rfind(',') + 1);
  for (const std::string bad : {"1e300", "18446744073709551616"}) {
    EXPECT_THROW((void)parse_record_line(line + bad, 2), std::runtime_error)
        << bad;
  }
  EvaluationRecord single = sample_records()[1];
  single.config = {0.5};
  line = format_record_line(single);
  ASSERT_NO_THROW((void)parse_record_line(line, 2));
  for (const std::string bad : {"1.5", " 1"}) {
    std::string tampered = line;
    const std::size_t last = tampered.rfind(',');
    const std::size_t size_field = tampered.rfind(',', last - 1) + 1;
    tampered.replace(size_field, last - size_field, bad);
    EXPECT_THROW((void)parse_record_line(tampered, 2), std::runtime_error)
        << bad;
  }
}

// No writer emits a leading space, a '+' or a hex float, so a double field
// holding one is malformed, as is trailing text. Field 9 is the cost.
TEST(EvalJournal, DoubleFieldsTakeOnlyWhatFormatDoubleWrites) {
  for (const std::string bad :
       {" 1", "+1", "0x1p3", "1 ", "1e", "--1", "", "1e-400x"}) {
    SCOPED_TRACE("cost '" + bad + "'");
    EXPECT_THROW((void)parse_record_line(record_line_with(9, bad), 2),
                 std::runtime_error);
  }
  for (const std::string good : {"1", "-0", "2.5e-3", "1E2", "inf", "-inf",
                                 "4.9406564584124654e-324"}) {
    SCOPED_TRACE("cost '" + good + "'");
    const EvaluationRecord record =
        parse_record_line(record_line_with(9, good), 2);
    EXPECT_EQ(std::bit_cast<std::uint64_t>(record.cost_s),
              std::bit_cast<std::uint64_t>(std::strtod(good.c_str(), nullptr)));
  }
}

TEST(EvalJournal, RecordLineErrorNamesTheLineOnce) {
  std::string line = format_record_line(sample_records()[1]);
  line += ",0.5";  // one config value more than the size says
  try {
    (void)parse_record_line(line, 2);
    FAIL() << "accepted a config field count mismatch";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "journal: line 2: config field count mismatch");
  }
}

TEST(EvalJournal, RejectsMalformedHeaderCounts) {
  const std::string path = temp_path("journal_header_counts.hpj");
  const auto load_header = [&](const std::string& seed,
                               const std::string& batch) {
    {
      std::ofstream out(path, std::ios::trunc | std::ios::binary);
      out << "hpjournal,v3,Rand," << seed << ',' << batch << '\n';
    }
    return EvalJournal::load(path);
  };
  const JournalLoadResult good = load_header("18446744073709551615", "4");
  EXPECT_EQ(good.header.seed, 18446744073709551615u);
  EXPECT_EQ(good.header.batch_size, 4u);
  // std::stoull/std::stoul would read every value below.
  for (const std::string bad : {"-1", "42x", " 42", "+42", "4e1"}) {
    SCOPED_TRACE(bad);
    EXPECT_THROW((void)load_header(bad, "4"), std::runtime_error) << "seed";
    EXPECT_THROW((void)load_header("42", bad), std::runtime_error)
        << "batch size";
  }
  std::remove(path.c_str());
}

}  // namespace
}  // namespace hp::core
