// Deterministic mutation tests of EvalJournal::load, the parser of the bytes
// a crashed, torn or tampered-with journal hands a resume. Seeds are v1, v2,
// v3, v4 and v5 journals; a seeded mt19937_64 mutates them (bit flips, byte
// edits, cuts, spliced and duplicated lines, hostile kernel-fit lines) and
// every mutant goes through load. Properties: only std::runtime_error
// escapes; a checksummed line whose body or checksum changed is never
// accepted; before v5, damage is dropped only when it is the final line;
// a v5 mutant loads exactly when a reference model of the v5 tail rule
// says it does, keeping the records and dropping the lines it predicts;
// rewrite -> load returns every record and kernel fit bit for bit, for
// doubles drawn from random bit patterns, subnormals included.

#include <gtest/gtest.h>

#include <bit>
#include <charconv>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <iterator>
#include <optional>
#include <random>
#include <set>
#include <string>
#include <vector>

#include "core/checksum.hpp"
#include "core/trace_io.hpp"
#include "gp/kernel_fit.hpp"

namespace hp::core {
namespace {

std::string temp_path(const std::string& name) {
  return std::string(::testing::TempDir()) + "/" +
         ::testing::UnitTest::GetInstance()->current_test_info()->name() +
         "_" + name;
}

std::string read_text(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

void write_text(const std::string& path, const std::string& text) {
  std::ofstream out(path, std::ios::trunc | std::ios::binary);
  out << text;
}

std::string with_checksum(const std::string& body) {
  char suffix[16];
  std::snprintf(suffix, sizeof suffix, ",#%08x", crc32(body));
  return body + suffix;
}

std::uint64_t bits(double value) { return std::bit_cast<std::uint64_t>(value); }

JournalHeader header() { return JournalHeader{"HW-IECI", 42, 4}; }

gp::KernelFit sample_fit(double scale) {
  gp::KernelFit fit;
  fit.params.signal_variance = 0.75 * scale;
  fit.params.length_scales = {0.5 * scale, 1.0 / 7.0, 2.5};
  fit.noise_variance = 1e-4 + scale * 1e-6;
  fit.log_marginal_likelihood = -3.0625 * scale;
  return fit;
}

/// Five records of every kind; the second and fourth carry kernel fits.
std::vector<EvaluationRecord> seed_records() {
  std::vector<EvaluationRecord> records(5);
  for (std::size_t i = 0; i < records.size(); ++i) {
    EvaluationRecord& r = records[i];
    r.index = i;
    r.config = {0.1 * static_cast<double>(i + 1), 1.0 / 3.0, 450.0};
    r.test_error = 0.0625 * static_cast<double>(i + 1);
    r.cost_s = 100.5 + static_cast<double>(i);
    r.timestamp_s = 200.25 * static_cast<double>(i + 1);
    r.measured_power_w = 80.0 + static_cast<double>(i);
  }
  records[1].measured_memory_mb = 512.25;
  records[1].kernel_fit = RecordedKernelFit(sample_fit(1.0));
  records[2].status = EvaluationStatus::ModelFiltered;
  records[2].violates_constraints = true;
  records[2].measured_power_w.reset();
  records[3].kernel_fit = RecordedKernelFit(sample_fit(2.0));
  records[4].status = EvaluationStatus::Failed;
  records[4].failure_kind = FailureKind::Timeout;
  records[4].attempts = 3;
  return records;
}

std::vector<EvaluationRecord> without_fits(std::vector<EvaluationRecord> rs) {
  for (EvaluationRecord& r : rs) r.kernel_fit = {};
  return rs;
}

/// A journal as EvalJournal writes it: v5, every append, the epilogue.
std::string written_journal(const std::vector<EvaluationRecord>& records,
                            const std::string& path) {
  {
    auto journal = EvalJournal::create(path, header());
    for (const EvaluationRecord& r : records) journal.append(r);
    journal.finalize("completed", records.size());
  }
  return read_text(path);
}

/// @p journal under a pre-v5 header: the same lines after it.
std::string with_version(const std::string& journal, const std::string& v) {
  return "hpjournal," + v + ",HW-IECI,42,4" + journal.substr(journal.find('\n'));
}

/// Journals of every version: v5 with fits, v4 (v5 with an unchecksummed
/// header), v3 (v4 without fits), v2 (v3 without its epilogue) and v1 (v2
/// without checksums).
std::vector<std::string> seed_journals() {
  const std::string path = temp_path("seed.hpj");
  const std::string v5 = written_journal(seed_records(), path);
  const std::string v3 = with_version(
      written_journal(without_fits(seed_records()), path), "v3");
  std::remove(path.c_str());
  const std::string v2 =
      with_version(v3.substr(0, v3.rfind("s,completed")), "v2");
  std::string v1 = "hpjournal,v1,HW-IECI,42,4\n";
  for (const EvaluationRecord& r : seed_records()) {
    v1 += format_record_line(r) + "\n";
  }
  return {v1, v2, v3, with_version(v5, "v4"), v5};
}

/// Lines as load() reads them: split at '\n', empty ones skipped.
std::vector<std::string> split_lines(const std::string& text) {
  std::vector<std::string> lines;
  std::string line;
  for (const char c : text) {
    if (c == '\n') {
      if (!line.empty()) lines.push_back(line);
      line.clear();
    } else {
      line.push_back(c);
    }
  }
  if (!line.empty()) lines.push_back(line);
  return lines;
}

std::string join_lines(const std::vector<std::string>& lines) {
  std::string text;
  for (const std::string& line : lines) text += line + "\n";
  return text;
}

/// Kernel-fit lines that break the format under a valid checksum: the
/// wrong arity, a value the kernel would not take.
std::vector<std::string> hostile_fit_lines() {
  const std::vector<std::string> bodies = {
      "k",
      "k,1,0.001,-2",
      "k,1,0.001,-2,0",
      "k,1,0.001,-2,2,0.5",
      "k,1,0.001,-2,1,0.5,0.5",
      "k,1,0.001,-2,x,0.5",
      "k,1,0.001,-2,18446744073709551616,0.5",
      "k,0,0.001,-2,1,0.5",
      "k,-1,0.001,-2,1,0.5",
      "k,inf,0.001,-2,1,0.5",
      "k,nan,0.001,-2,1,0.5",
      "k,1,0,-2,1,0.5",
      "k,1,-0,-2,1,0.5",
      "k,1,-0.001,-2,1,0.5",
      "k,1,inf,-2,1,0.5",
      "k,1,0.001,inf,1,0.5",
      "k,1,0.001,-inf,1,0.5",
      "k,1,0.001,nan,1,0.5",
      "k,1,0.001,-2,1,0",
      "k,1,0.001,-2,1,-0.5",
      "k,1,0.001,-2,2,0.5,inf",
      "k,1,0.001,-2,1, 0.5",
      "k,1,0.001,-2,1,+0.5",
      "k,1,0.001,-2,1,0x1p-1",
      "k,1e999,0.001,-2,1,0.5",
  };
  std::vector<std::string> lines;
  for (const std::string& body : bodies) lines.push_back(with_checksum(body));
  return lines;
}

/// What load() made of @p text: its result, or nullopt when it threw a
/// std::runtime_error. Any other std::exception fails the test; anything
/// else escapes and fails it too.
std::optional<JournalLoadResult> load_text(const std::string& text,
                                           const std::string& path) {
  write_text(path, text);
  try {
    return EvalJournal::load(path);
  } catch (const std::runtime_error&) {
    return std::nullopt;
  } catch (const std::exception& e) {
    ADD_FAILURE() << "load threw " << e.what();
  }
  return std::nullopt;
}

std::size_t fit_count(const std::vector<EvaluationRecord>& records) {
  std::size_t fits = 0;
  for (const EvaluationRecord& r : records) fits += r.kernel_fit ? 1 : 0;
  return fits;
}

/// Checks what load() accepted of @p mutant against the lines of the
/// unmutated journals (@p known). Every line after the header is accounted
/// for: a record, a fit, the epilogue or a dropped line of the tail. Before
/// v5 that tail is the final line. In a checksummed journal, every accepted
/// line is a known one, and the accepted lines are exactly what rewrite()
/// writes for the loaded records (then the epilogue), so nothing but the
/// tail was dropped.
void check_accepted(const std::string& mutant, const JournalLoadResult& loaded,
                    const std::set<std::string>& known,
                    const std::string& scratch) {
  std::vector<std::string> lines = split_lines(mutant);
  const bool checksummed = lines.front().compare(0, 13, "hpjournal,v1,") != 0;
  if (lines.front().compare(0, 13, "hpjournal,v5,") != 0) {
    EXPECT_LE(loaded.dropped_lines, 1u);
  }
  lines.erase(lines.begin());
  ASSERT_EQ(loaded.records.size() + fit_count(loaded.records) +
                (loaded.complete() ? 1 : 0) + loaded.dropped_lines,
            lines.size());
  if (!checksummed) return;
  lines.resize(lines.size() - loaded.dropped_lines);
  for (const std::string& line : lines) {
    EXPECT_EQ(known.count(line), 1u) << "accepted a changed line: " << line;
  }
  if (loaded.complete()) {
    ASSERT_FALSE(lines.empty());
    EXPECT_EQ(lines.back().compare(0, 2, "s,"), 0) << lines.back();
    lines.pop_back();
  }
  (void)EvalJournal::rewrite(scratch, header(), loaded.records);
  std::vector<std::string> rewritten = split_lines(read_text(scratch));
  rewritten.erase(rewritten.begin());
  EXPECT_EQ(rewritten, lines);
}

/// The body of a checksummed line, or nullopt when it does not verify.
std::optional<std::string> verified_body(const std::string& line) {
  const std::size_t hash = line.rfind(",#");
  if (hash == std::string::npos || line.size() != hash + 10) {
    return std::nullopt;
  }
  const std::string body = line.substr(0, hash);
  if (line != with_checksum(body)) return std::nullopt;
  return body;
}

/// The record a verified line holds, or nullopt when it holds none.
std::optional<EvaluationRecord> record_of(const std::string& line) {
  const std::optional<std::string> body = verified_body(line);
  if (!body || body->compare(0, 2, "r,") != 0) return std::nullopt;
  try {
    return parse_record_line(*body, 0);
  } catch (const std::runtime_error&) {
    return std::nullopt;
  }
}

/// What load() keeps of a v5 journal: the records, the dropped lines and
/// whether the epilogue came through.
struct V5Expectation {
  std::size_t records = 0;
  std::size_t dropped = 0;
  bool complete = false;
};

/// Reference model of load() on the lines after a v5 header of batch size
/// @p batch; nullopt when load() must throw. A line fails when it does not
/// verify, or is out of place: an epilogue whose count is not the records
/// before it, a `k` line with no record line before it or after another,
/// a record whose index is not its position. Verified `k` lines are only
/// known ones (@p known), whose fits are valid. Once a line fails, the
/// rule decides: with m records kept, that line and every later one are
/// dropped when there are at most 2 x batch of them, none verifies as an
/// epilogue and every record among them has an index in m's round, at or
/// after m. Nothing may follow an accepted epilogue.
std::optional<V5Expectation> expected_v5_load(
    const std::vector<std::string>& lines, std::uint64_t batch,
    const std::set<std::string>& known) {
  V5Expectation expect;
  bool last_has_fit = true;  // no record yet: a `k` line has none to join
  for (std::size_t i = 0; i < lines.size(); ++i) {
    if (expect.complete) return std::nullopt;  // content after the epilogue
    const std::optional<std::string> body = verified_body(lines[i]);
    bool fails = !body;
    if (!fails && body->compare(0, 2, "s,") == 0) {
      const std::string count = body->substr(body->rfind(',') + 1);
      std::uint64_t value = 0;
      const auto [end, error] =
          std::from_chars(count.data(), count.data() + count.size(), value);
      fails = error != std::errc() || end != count.data() + count.size() ||
              value != expect.records || known.count(lines[i]) == 0;
      expect.complete = !fails;
    } else if (!fails && body->compare(0, 2, "k,") == 0) {
      fails = last_has_fit || known.count(lines[i]) == 0;
      last_has_fit = true;
    } else if (!fails) {
      const std::optional<EvaluationRecord> record = record_of(lines[i]);
      fails = !record || record->index != expect.records;
      if (!fails) {
        ++expect.records;
        last_has_fit = false;
      }
    }
    if (!fails) continue;
    expect.dropped = lines.size() - i;
    if (expect.dropped > 2 * batch) return std::nullopt;
    const std::size_t m = expect.records;
    for (std::size_t j = i; j < lines.size(); ++j) {
      const std::optional<std::string> tail_body = verified_body(lines[j]);
      if (tail_body && tail_body->compare(0, 2, "s,") == 0) {
        return std::nullopt;
      }
      const std::optional<EvaluationRecord> record = record_of(lines[j]);
      if (record && (record->index < m || record->index >= m - m % batch + batch)) {
        return std::nullopt;
      }
    }
    return expect;
  }
  return expect;
}

class Mutator {
 public:
  explicit Mutator(std::uint64_t seed) : rng_(seed) {}

  std::size_t below(std::size_t n) {
    return n == 0 ? 0 : static_cast<std::size_t>(rng_() % n);
  }

  /// One to three random edits of @p text, byte-wise or line-wise; @p
  /// donor gives spliced lines and tails.
  std::string mutate(std::string text, const std::string& donor) {
    static const char kAlphabet[] = "0123456789,-+.eEnaifkrsx #\n\r\xff";
    const std::size_t edits = 1 + below(3);
    for (std::size_t e = 0; e < edits; ++e) {
      const std::size_t at = below(text.size() + 1);
      switch (below(9)) {
        case 0:  // flip one bit
          if (at < text.size()) {
            text[at] = static_cast<char>(text[at] ^ (1 << below(8)));
          }
          break;
        case 1:  // replace a byte
          if (at < text.size()) {
            text[at] = kAlphabet[below(sizeof kAlphabet - 1)];
          }
          break;
        case 2:  // insert a byte
          text.insert(at, 1, kAlphabet[below(sizeof kAlphabet - 1)]);
          break;
        case 3:  // delete a byte
          if (at < text.size()) text.erase(at, 1);
          break;
        case 4:  // cut the tail
          text.resize(at);
          break;
        case 5: {  // splice the donor's tail
          const std::size_t from = below(donor.size() + 1);
          text = text.substr(0, at) + donor.substr(from);
          break;
        }
        case 6:  // duplicate a line
          text = edit_lines(text, [this](std::vector<std::string>& lines) {
            const std::size_t i = below(lines.size());
            lines.insert(lines.begin() + static_cast<std::ptrdiff_t>(
                                             below(lines.size() + 1)),
                         lines[i]);
          });
          break;
        case 7:  // splice in a line of the donor
          text = edit_lines(text, [&](std::vector<std::string>& lines) {
            const std::vector<std::string> from = split_lines(donor);
            if (from.empty()) return;
            lines.insert(lines.begin() + static_cast<std::ptrdiff_t>(
                                             below(lines.size() + 1)),
                         from[below(from.size())]);
          });
          break;
        default:  // drop a line
          text = edit_lines(text, [this](std::vector<std::string>& lines) {
            lines.erase(lines.begin() +
                        static_cast<std::ptrdiff_t>(below(lines.size())));
          });
          break;
      }
    }
    return text;
  }

 private:
  template <typename Edit>
  std::string edit_lines(const std::string& text, Edit edit) {
    std::vector<std::string> lines = split_lines(text);
    if (lines.empty()) return text;
    edit(lines);
    return join_lines(lines);
  }

  std::mt19937_64 rng_;
};

TEST(JournalMutation, MutantsThrowOnlyRuntimeErrorAndAcceptOnlyKnownLines) {
  const std::vector<std::string> journals = seed_journals();
  std::set<std::string> known;
  for (const std::string& journal : journals) {
    for (const std::string& line : split_lines(journal)) known.insert(line);
  }
  const std::string path = temp_path("mutant.hpj");
  const std::string scratch = temp_path("rewritten.hpj");
  const std::string v5_header = split_lines(journals.back()).front();
  Mutator mutator(20261019);
  std::size_t loaded_count = 0;
  std::size_t v5_tails = 0;  // v5 mutants loaded with more than one line dropped
  for (std::size_t round = 0; round < 7500; ++round) {
    const std::string& seed = journals[round % journals.size()];
    const std::string& donor = journals[mutator.below(journals.size())];
    const std::string mutant = mutator.mutate(seed, donor);
    const auto loaded = load_text(mutant, path);
    SCOPED_TRACE("round " + std::to_string(round));
    std::vector<std::string> lines = split_lines(mutant);
    if (!lines.empty() && lines.front() == v5_header) {
      lines.erase(lines.begin());
      const auto expected = expected_v5_load(lines, header().batch_size, known);
      ASSERT_EQ(loaded.has_value(), expected.has_value()) << mutant;
      if (expected) {
        EXPECT_EQ(loaded->records.size(), expected->records) << mutant;
        EXPECT_EQ(loaded->dropped_lines, expected->dropped) << mutant;
        EXPECT_EQ(loaded->complete(), expected->complete) << mutant;
        if (expected->dropped > 1) ++v5_tails;
      }
    }
    if (!loaded) continue;
    ++loaded_count;
    check_accepted(mutant, *loaded, known, scratch);
  }
  // Cut tails, moved lines and dropped lines load; most mutants do not.
  EXPECT_GT(loaded_count, 0u);
  EXPECT_LT(loaded_count, 7500u);
  EXPECT_GT(v5_tails, 0u);
  std::remove(path.c_str());
  std::remove(scratch.c_str());
}

TEST(JournalMutation, EveryChangedByteOfAV4LineIsRejected) {
  const std::string v4 = seed_journals()[3];
  const std::vector<std::string> lines = split_lines(v4);
  const std::string path = temp_path("changed.hpj");
  const JournalLoadResult whole = EvalJournal::load([&] {
    write_text(path, v4);
    return path;
  }());
  ASSERT_TRUE(whole.complete());
  for (std::size_t l = 1; l < lines.size(); ++l) {
    for (std::size_t at = 0; at < lines[l].size(); ++at) {
      for (const int delta : {1, 2, 0x20, 0x80}) {
        std::vector<std::string> mutant = lines;
        mutant[l][at] = static_cast<char>(mutant[l][at] + delta);
        if (mutant[l][at] == '\n') continue;
        // Mid-file, the changed line is corruption.
        const auto mid = load_text(join_lines(mutant), path);
        EXPECT_FALSE(mid.has_value() && l + 1 < lines.size())
            << "accepted line " << l << ": " << mutant[l];
        // As the final line it is a torn tail, dropped.
        mutant.resize(l + 1);
        const auto tail = load_text(join_lines(mutant), path);
        ASSERT_TRUE(tail.has_value()) << mutant[l];
        EXPECT_EQ(tail->dropped_lines, 1u) << mutant[l];
      }
    }
  }
  std::remove(path.c_str());
}

TEST(JournalMutation, HostileKernelFitLinesAreRejectedMidFileDroppedLast) {
  const std::vector<std::string> v4 = split_lines(seed_journals()[3]);
  // Lines: header, r0, r1, k1, r2, r3, k3, r4, epilogue.
  ASSERT_EQ(v4.size(), 9u);
  ASSERT_EQ(v4[3].compare(0, 2, "k,"), 0);
  const std::string path = temp_path("hostile.hpj");
  const auto load_lines = [&](const std::vector<std::string>& lines) {
    return load_text(join_lines(lines), path);
  };
  const std::vector<std::string> unfinalized(v4.begin(), v4.end() - 1);
  for (const std::string& hostile : hostile_fit_lines()) {
    SCOPED_TRACE(hostile);
    // After r0, which has no fit: a bad arity or value.
    std::vector<std::string> lines = unfinalized;
    lines.insert(lines.begin() + 2, hostile);
    EXPECT_FALSE(load_lines(lines).has_value());
    // The same line as the final one: dropped, its record keeps no fit.
    lines = unfinalized;
    lines.push_back(hostile);
    const auto last = load_lines(lines);
    ASSERT_TRUE(last.has_value());
    EXPECT_EQ(last->dropped_lines, 1u);
    EXPECT_FALSE(last->records.back().kernel_fit);
  }

  const std::string& fit_line = v4[3];
  // A well-formed fit line after a record that has none is attached to it.
  std::vector<std::string> lines = unfinalized;
  lines.insert(lines.begin() + 2, fit_line);
  const auto attached = load_lines(lines);
  ASSERT_TRUE(attached.has_value());
  EXPECT_TRUE(attached->records[0].kernel_fit);
  // Before any record.
  lines = unfinalized;
  lines.insert(lines.begin() + 1, fit_line);
  EXPECT_FALSE(load_lines(lines).has_value());
  // Two in a row.
  lines = unfinalized;
  lines.insert(lines.begin() + 4, fit_line);
  EXPECT_FALSE(load_lines(lines).has_value());
  // After the epilogue, even as the final line.
  lines = v4;
  lines.push_back(fit_line);
  EXPECT_FALSE(load_lines(lines).has_value());
  // In a journal older than v4.
  lines = unfinalized;
  lines.front().replace(0, 12, "hpjournal,v3");
  EXPECT_FALSE(load_lines(lines).has_value());
  std::remove(path.c_str());
}

TEST(JournalMutation, RewriteThenLoadIsTheIdentity) {
  std::mt19937_64 rng(1712);
  // Any bit pattern but NaN ("%.17g" keeps no payload), with one draw in
  // four a subnormal.
  const auto random_double = [&rng] {
    for (;;) {
      std::uint64_t pattern = rng();
      if (rng() % 4 == 0) pattern &= 0x800FFFFFFFFFFFFFULL;
      const double value = std::bit_cast<double>(pattern);
      if (!std::isnan(value)) return value;
    }
  };
  const auto positive_double = [&] {
    for (;;) {
      const double value = std::abs(random_double());
      if (value > 0.0 && std::isfinite(value)) return value;
    }
  };
  const auto maybe = [&rng](auto draw) {
    return rng() % 2 == 0 ? std::optional<double>(draw()) : std::nullopt;
  };
  const std::string path = temp_path("identity.hpj");
  for (std::size_t round = 0; round < 300; ++round) {
    std::vector<EvaluationRecord> records(rng() % 6);
    for (std::size_t i = 0; i < records.size(); ++i) {
      EvaluationRecord& r = records[i];
      r.config.resize(rng() % 9);
      for (double& v : r.config) v = random_double();
      r.status = static_cast<EvaluationStatus>(rng() % 5);
      r.test_error = random_double();
      r.diverged = rng() % 2 == 0;
      r.measured_power_w = maybe(random_double);
      r.measured_memory_mb = maybe(random_double);
      r.violates_constraints = rng() % 2 == 0;
      r.cost_s = random_double();
      r.timestamp_s = random_double();
      const auto index = static_cast<std::size_t>(rng());
      r.measured = rng() % 2 == 0;
      r.attempts = static_cast<std::size_t>(rng());
      if (rng() % 2 == 0) r.failure_kind = static_cast<FailureKind>(rng() % 4);
      if (rng() % 2 == 0) {
        gp::KernelFit fit;
        fit.params.signal_variance = positive_double();
        fit.params.length_scales.resize(1 + rng() % 13);
        for (double& l : fit.params.length_scales) l = positive_double();
        fit.noise_variance = positive_double();
        do {
          fit.log_marginal_likelihood = random_double();
        } while (!std::isfinite(fit.log_marginal_likelihood));
        r.kernel_fit = RecordedKernelFit(fit);
      }
      // Any index survives the record line; a v5 journal holds its records
      // in index order, so the journaled record carries its position.
      r.index = index;
      EXPECT_EQ(parse_record_line(format_record_line(r), 1).index, index);
      r.index = i;
    }
    (void)EvalJournal::rewrite(path, header(), records);
    const JournalLoadResult loaded = EvalJournal::load(path);
    ASSERT_EQ(loaded.dropped_lines, 0u);
    ASSERT_EQ(loaded.records.size(), records.size());
    for (std::size_t i = 0; i < records.size(); ++i) {
      const EvaluationRecord& a = records[i];
      const EvaluationRecord& b = loaded.records[i];
      SCOPED_TRACE(format_record_line(a));
      ASSERT_EQ(a.config.size(), b.config.size());
      for (std::size_t k = 0; k < a.config.size(); ++k) {
        EXPECT_EQ(bits(a.config[k]), bits(b.config[k]));
      }
      EXPECT_EQ(a.status, b.status);
      EXPECT_EQ(bits(a.test_error), bits(b.test_error));
      EXPECT_EQ(a.diverged, b.diverged);
      ASSERT_EQ(a.measured_power_w.has_value(), b.measured_power_w.has_value());
      if (a.measured_power_w) {
        EXPECT_EQ(bits(*a.measured_power_w), bits(*b.measured_power_w));
      }
      ASSERT_EQ(a.measured_memory_mb.has_value(),
                b.measured_memory_mb.has_value());
      if (a.measured_memory_mb) {
        EXPECT_EQ(bits(*a.measured_memory_mb), bits(*b.measured_memory_mb));
      }
      EXPECT_EQ(a.violates_constraints, b.violates_constraints);
      EXPECT_EQ(bits(a.cost_s), bits(b.cost_s));
      EXPECT_EQ(bits(a.timestamp_s), bits(b.timestamp_s));
      EXPECT_EQ(a.index, b.index);
      EXPECT_EQ(a.measured, b.measured);
      EXPECT_EQ(a.attempts, b.attempts);
      EXPECT_EQ(a.failure_kind, b.failure_kind);
      ASSERT_EQ(static_cast<bool>(a.kernel_fit),
                static_cast<bool>(b.kernel_fit));
      if (!a.kernel_fit) continue;
      EXPECT_EQ(bits(a.kernel_fit->params.signal_variance),
                bits(b.kernel_fit->params.signal_variance));
      ASSERT_EQ(a.kernel_fit->params.length_scales.size(),
                b.kernel_fit->params.length_scales.size());
      for (std::size_t d = 0; d < a.kernel_fit->params.length_scales.size();
           ++d) {
        EXPECT_EQ(bits(a.kernel_fit->params.length_scales[d]),
                  bits(b.kernel_fit->params.length_scales[d]));
      }
      EXPECT_EQ(bits(a.kernel_fit->noise_variance),
                bits(b.kernel_fit->noise_variance));
      EXPECT_EQ(bits(a.kernel_fit->log_marginal_likelihood),
                bits(b.kernel_fit->log_marginal_likelihood));
    }
  }
  std::remove(path.c_str());
}

}  // namespace
}  // namespace hp::core
