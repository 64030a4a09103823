#include "core/trace_io.hpp"

#include <fcntl.h>
#include <unistd.h>

#include <array>
#include <charconv>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <vector>

#include "core/checksum.hpp"
#include "gp/kernel_fit.hpp"
#include "obs/log.hpp"
#include "obs/metrics.hpp"
#include "obs/span.hpp"

namespace hp::core {

namespace {

[[noreturn]] void fail_journal(const std::string& what) {
  throw std::runtime_error("journal: " + what);
}

/// A malformed field or line. The loader that read it adds the artifact and
/// the row or line once ("journal: line 7: malformed index").
[[noreturn]] void fail_parse(const std::string& what) {
  throw std::runtime_error(what);
}

std::vector<std::string> split_csv_row(const std::string& line) {
  std::vector<std::string> fields;
  std::string field;
  for (char c : line) {
    if (c == ',') {
      fields.push_back(field);
      field.clear();
    } else {
      field.push_back(c);
    }
  }
  fields.push_back(field);
  return fields;
}

EvaluationStatus status_from_string(const std::string& name) {
  if (name == "completed") return EvaluationStatus::Completed;
  if (name == "early_terminated") return EvaluationStatus::EarlyTerminated;
  if (name == "model_filtered") return EvaluationStatus::ModelFiltered;
  if (name == "infeasible_architecture") {
    return EvaluationStatus::InfeasibleArchitecture;
  }
  if (name == "failed") return EvaluationStatus::Failed;
  fail_parse("unknown status '" + name + "'");
}

/// A double field as format_double() writes it, over the whole field.
/// from_chars, unlike std::stod, takes the subnormals "%.17g" writes, and
/// no leading space, '+' or hex float.
double parse_number(const std::string& text, const char* what) {
  double value = 0.0;
  const char* const end = text.data() + text.size();
  const auto [last, error] = std::from_chars(text.data(), end, value);
  if (error != std::errc() || last != end) {
    fail_parse(std::string("malformed ") + what);
  }
  return value;
}

/// An index, count or seed: decimal digits only (no sign, space, point or
/// exponent) over the whole field, at most 2^64 - 1; nullopt otherwise. A
/// double cast to an integer instead is undefined behaviour for NaN,
/// negative or huge values.
std::optional<std::uint64_t> count_of(const std::string& text) {
  std::uint64_t value = 0;
  const char* const end = text.data() + text.size();
  const auto [last, error] = std::from_chars(text.data(), end, value);
  if (error != std::errc() || last != end) return std::nullopt;
  return value;
}

/// count_of() that throws via fail_parse() on a malformed field.
std::uint64_t parse_count(const std::string& text, const char* what) {
  const std::optional<std::uint64_t> value = count_of(text);
  if (!value) fail_parse(std::string("malformed ") + what);
  return *value;
}

/// The fields of a record line (format_record_line()'s). Throws via
/// fail_parse() on any malformed field.
EvaluationRecord parse_record_fields(const std::vector<std::string>& fields) {
  if (fields.size() < 14 || fields[0] != "r") {
    fail_parse("malformed record frame");
  }
  EvaluationRecord r;
  r.index = parse_count(fields[1], "index");
  r.timestamp_s = parse_number(fields[2], "timestamp");
  r.status = status_from_string(fields[3]);
  r.test_error = parse_number(fields[4], "test_error");
  r.diverged = parse_number(fields[5], "diverged") != 0.0;
  if (fields[6] != "-") r.measured_power_w = parse_number(fields[6], "power");
  if (fields[7] != "-") {
    r.measured_memory_mb = parse_number(fields[7], "memory");
  }
  r.violates_constraints = parse_number(fields[8], "violates") != 0.0;
  r.cost_s = parse_number(fields[9], "cost");
  r.measured = parse_number(fields[10], "measured") != 0.0;
  r.attempts = parse_count(fields[11], "attempts");
  if (fields[12] != "-") {
    const auto kind = failure_kind_from_string(fields[12]);
    if (!kind) fail_parse("unknown failure kind '" + fields[12] + "'");
    r.failure_kind = kind;
  }
  const std::uint64_t dim = parse_count(fields[13], "config size");
  if (dim != fields.size() - 14) fail_parse("config field count mismatch");
  r.config.reserve(fields.size() - 14);
  for (std::size_t i = 14; i < fields.size(); ++i) {
    r.config.push_back(parse_number(fields[i], "config value"));
  }
  return r;
}

/// Round-trip exact double formatting ("%.17g"): parse_number() recovers
/// the identical bit pattern, which is what makes a journal resume
/// bit-identical to the uninterrupted run.
std::string format_double(double value) {
  char buffer[32];
  std::snprintf(buffer, sizeof buffer, "%.17g", value);
  return buffer;
}

}  // namespace

void EvalJournal::FileCloser::operator()(std::FILE* f) const noexcept {
  if (f != nullptr) std::fclose(f);
}

std::string format_record_line(const EvaluationRecord& r) {
  std::ostringstream os;
  os << "r," << r.index << ',' << format_double(r.timestamp_s) << ','
     << to_string(r.status) << ',' << format_double(r.test_error) << ','
     << (r.diverged ? 1 : 0) << ',';
  if (r.measured_power_w) {
    os << format_double(*r.measured_power_w);
  } else {
    os << '-';
  }
  os << ',';
  if (r.measured_memory_mb) {
    os << format_double(*r.measured_memory_mb);
  } else {
    os << '-';
  }
  os << ',' << (r.violates_constraints ? 1 : 0) << ','
     << format_double(r.cost_s) << ',' << (r.measured ? 1 : 0) << ','
     << r.attempts << ',';
  if (r.failure_kind) {
    os << to_string(*r.failure_kind);
  } else {
    os << '-';
  }
  os << ',' << r.config.size();
  for (const double v : r.config) os << ',' << format_double(v);
  return os.str();
}

EvaluationRecord parse_record_line(const std::string& line,
                                   std::size_t line_number) {
  try {
    return parse_record_fields(split_csv_row(line));
  } catch (const std::runtime_error& e) {
    fail_journal("line " + std::to_string(line_number) + ": " + e.what());
  }
}

namespace {

constexpr const char* kJournalMagic = "hpjournal";
/// Format versions, oldest first; new journals are written as the last.
constexpr std::array<const char*, 5> kJournalVersions = {"v1", "v2", "v3",
                                                         "v4", "v5"};

/// The v4 kernel-fit line that follows its record's line:
/// `k,<signal variance>,<noise variance>,<log marginal likelihood>,<D>,
/// <length scale 1>,...,<length scale D>`.
std::string kernel_fit_body(const gp::KernelFit& fit) {
  std::ostringstream os;
  os << "k," << format_double(fit.params.signal_variance) << ','
     << format_double(fit.noise_variance) << ','
     << format_double(fit.log_marginal_likelihood) << ','
     << fit.params.length_scales.size();
  for (const double l : fit.params.length_scales) os << ',' << format_double(l);
  return os.str();
}

/// A variance or length scale: finite and > 0, as the kernel requires.
double parse_positive(const std::string& text, const char* what) {
  const double value = parse_number(text, what);
  if (!(value > 0.0) || !std::isfinite(value)) {
    fail_parse(std::string("non-positive or non-finite ") + what);
  }
  return value;
}

/// The fields of a kernel-fit line (kernel_fit_body()'s). Throws via
/// fail_parse() on a wrong arity or a value the kernel would not take.
gp::KernelFit parse_kernel_fit_fields(const std::vector<std::string>& fields) {
  if (fields.size() < 6 || fields[0] != "k") {
    fail_parse("malformed kernel fit frame");
  }
  const std::uint64_t dim = parse_count(fields[4], "kernel fit dimension");
  if (dim != fields.size() - 5) fail_parse("kernel fit field count mismatch");
  gp::KernelFit fit;
  fit.params.signal_variance = parse_positive(fields[1], "signal variance");
  fit.noise_variance = parse_positive(fields[2], "noise variance");
  fit.log_marginal_likelihood =
      parse_number(fields[3], "log marginal likelihood");
  if (!std::isfinite(fit.log_marginal_likelihood)) {
    fail_parse("non-finite log marginal likelihood");
  }
  fit.params.length_scales.clear();
  fit.params.length_scales.reserve(fields.size() - 5);
  for (std::size_t i = 5; i < fields.size(); ++i) {
    fit.params.length_scales.push_back(
        parse_positive(fields[i], "length scale"));
  }
  return fit;
}

/// v2+ journal line: the line body followed by ",#<8-hex crc32 of body>".
/// The checksum turns "does the text still parse" into "is this the exact
/// text that was written", which is what catches a torn middle write whose
/// truncation happens to land on a field boundary.
std::string checksummed_line(const std::string& body) {
  char suffix[16];
  std::snprintf(suffix, sizeof suffix, ",#%08x", crc32(body));
  return body + suffix;
}

/// The header line. Since v5 it is checksummed like every other line, so
/// a damaged seed or batch size reads as a bad header, and the v5 tail
/// rule, which counts in rounds, can trust the batch size.
std::string journal_header_line(const JournalHeader& header) {
  std::ostringstream os;
  os << kJournalMagic << ',' << kJournalVersions.back() << ','
     << header.method << ',' << header.seed << ',' << header.batch_size;
  return checksummed_line(os.str());
}

/// A record's journal lines: its record line, then its kernel-fit line if
/// it carries a fit. They go out in one write.
std::string journal_lines(const EvaluationRecord& r) {
  std::string lines = checksummed_line(format_record_line(r));
  if (r.kernel_fit) {
    lines += '\n';
    lines += checksummed_line(kernel_fit_body(*r.kernel_fit));
  }
  return lines;
}

/// The v3 clean-finalize marker. A distinct frame tag ("s", records use
/// "r") keeps it unmistakable for a record even without the checksum.
std::string epilogue_body(const std::string& state, std::size_t records) {
  std::ostringstream os;
  os << "s," << state << ',' << records;
  return os.str();
}

/// The body of a v2+ line whose checksum field is present and matches;
/// nullopt otherwise.
std::optional<std::string> checksummed_body(const std::string& line) {
  const auto hash_pos = line.rfind(",#");
  if (hash_pos == std::string::npos || line.size() != hash_pos + 10) {
    return std::nullopt;
  }
  std::string body = line.substr(0, hash_pos);
  char expected[16];
  std::snprintf(expected, sizeof expected, "%08x", crc32(body));
  if (line.compare(hash_pos + 2, 8, expected) != 0) return std::nullopt;
  return body;
}

/// Splits a v2 line into body + checksum field, verifies the checksum, and
/// returns the body. Throws via fail_parse() on a missing or wrong checksum
/// — the caller decides whether that is a droppable torn tail or fatal
/// corruption.
std::string verify_checksummed_line(const std::string& line) {
  std::optional<std::string> body = checksummed_body(line);
  if (!body) fail_parse("record checksum missing or mismatched");
  return std::move(*body);
}

[[nodiscard]] std::FILE* open_journal_for_write(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "we");
  if (f == nullptr) {
    fail_journal("cannot open '" + path + "' for writing");
  }
  return f;
}

/// Writes @p line and its newline and flushes them to the kernel. Once
/// this returns, a killed process loses nothing of the line; only a power
/// loss can, until sync_journal() runs.
void write_journal_line(std::FILE* f, const std::string& path,
                        const std::string& line) {
  if (std::fputs(line.c_str(), f) == EOF || std::fputc('\n', f) == EOF ||
      std::fflush(f) != 0) {
    fail_journal("write to '" + path + "' failed");
  }
}

/// fsyncs a journal file, counted in `journal.fsyncs`. A journal syncs
/// once per round, not per record: a batched resume keeps only whole
/// rounds, so a record synced before its round completes buys a resume
/// nothing. After a power loss the damage is then confined to the round
/// in flight, which is the v5 tail rule load() applies. A sequential
/// journal's round is one record, so it still syncs every record.
void sync_journal(std::FILE* f, const std::string& path) {
  const int synced = ::fsync(fileno(f));
  if (obs::metrics().enabled()) {
    static obs::Counter& fsyncs = obs::metrics().counter("journal.fsyncs");
    fsyncs.add(1);
  }
  if (synced != 0) fail_journal("fsync of '" + path + "' failed");
}

/// fsyncs the directory holding @p path, so that a rename into it survives
/// a crash.
void sync_directory_of(const std::string& path) {
  std::string dir = std::filesystem::path(path).parent_path().string();
  if (dir.empty()) dir = ".";
  const int fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY | O_CLOEXEC);
  if (fd < 0) fail_journal("cannot open directory '" + dir + "'");
  const int synced = ::fsync(fd);
  ::close(fd);
  if (synced != 0) fail_journal("fsync of directory '" + dir + "' failed");
}

}  // namespace

EvalJournal EvalJournal::create(const std::string& path,
                                const JournalHeader& header) {
  EvalJournal journal;
  journal.file_.reset(open_journal_for_write(path));
  journal.path_ = path;
  journal.batch_size_ = header.batch_size;
  write_journal_line(journal.file_.get(), path, journal_header_line(header));
  sync_journal(journal.file_.get(), path);
  return journal;
}

EvalJournal EvalJournal::rewrite(const std::string& path,
                                 const JournalHeader& header,
                                 const std::vector<EvaluationRecord>& records) {
  // The rebuilt journal is written beside the old one, synced once, and
  // renamed over it: a crash before the rename leaves the old journal
  // whole, one after it the new. The open FILE* follows the file through
  // the rename, so later appends extend the new journal.
  const std::string staging = path + ".tmp";
  EvalJournal journal;
  journal.file_.reset(open_journal_for_write(staging));
  std::string text = journal_header_line(header);
  for (const EvaluationRecord& record : records) {
    text += '\n';
    text += journal_lines(record);
  }
  {
    obs::ScopedTimer fsync_span("journal.fsync", records.size());
    write_journal_line(journal.file_.get(), staging, text);
    sync_journal(journal.file_.get(), staging);
  }
  if (std::rename(staging.c_str(), path.c_str()) != 0) {
    std::remove(staging.c_str());
    fail_journal("cannot rename '" + staging + "' over '" + path + "'");
  }
  sync_directory_of(path);
  journal.path_ = path;
  journal.batch_size_ = header.batch_size;
  return journal;
}

namespace {

using JournalRows = std::vector<std::pair<std::size_t, std::string>>;

/// The format version (1 for v1, ...) of a journal's header line, whose
/// header fields go to @p header. A v5 header must verify against its
/// checksum. Throws via fail_journal() on a malformed header.
std::size_t parse_journal_header(const std::string& line,
                                 const std::string& path,
                                 JournalHeader& header) {
  const std::string v5_prefix =
      std::string(kJournalMagic) + ',' + kJournalVersions[4] + ',';
  const std::optional<std::string> body =
      line.compare(0, v5_prefix.size(), v5_prefix) == 0 ? checksummed_body(line)
                                                         : line;
  if (!body) fail_journal("bad header in '" + path + "'");
  const std::vector<std::string> fields = split_csv_row(*body);
  std::size_t version = 0;
  if (fields.size() == 5 && fields[0] == kJournalMagic) {
    for (std::size_t v = 0; v < kJournalVersions.size(); ++v) {
      if (fields[1] == kJournalVersions[v]) version = v + 1;
    }
  }
  if (version == 0) fail_journal("bad header in '" + path + "'");
  header.method = fields[2];
  try {
    header.seed = parse_count(fields[3], "seed");
    header.batch_size = parse_count(fields[4], "batch size");
  } catch (const std::runtime_error&) {
    fail_journal("bad header numbers in '" + path + "'");
  }
  return version;
}

/// The v5 tail rule. A v5 journal syncs once per round (append()), so a
/// power loss damages at most the round in flight. The lines from @p first
/// on (the first line that failed, after @p kept records) are that damage
/// when there are at most two per record of a round (a record line and
/// its `k` line), none of them verifies as a study_state epilogue (finalize
/// syncs before writing one, so what precedes one was durable), and every
/// one that verifies as a record (a verified `r` line with an index)
/// belongs to kept's round, at or after it.
bool damage_confined_to_final_round(const JournalRows& rows, std::size_t first,
                                    std::size_t kept, std::uint64_t batch) {
  if (batch == 0 || (rows.size() - first + 1) / 2 > batch) return false;
  const std::uint64_t round_left = batch - kept % batch;
  for (std::size_t i = first; i < rows.size(); ++i) {
    const std::optional<std::string> body = checksummed_body(rows[i].second);
    if (!body) continue;  // damaged: it does not verify
    const std::vector<std::string> fields = split_csv_row(*body);
    if (fields[0] == "s") return false;
    if (fields[0] != "r" || fields.size() < 2) continue;
    const std::optional<std::uint64_t> index = count_of(fields[1]);
    if (index && (*index < kept || *index - kept >= round_left)) return false;
  }
  return true;
}

}  // namespace

JournalLoadResult EvalJournal::load(const std::string& path) {
  std::ifstream is(path);
  if (!is) fail_journal("cannot open '" + path + "' for reading");

  std::string line;
  if (!std::getline(is, line)) fail_journal("empty file '" + path + "'");
  JournalLoadResult result;
  const std::size_t version = parse_journal_header(line, path, result.header);
  const bool checksummed = version >= 2;
  const bool kernel_fits = version >= 4;
  // v5 writers sync once per round; earlier ones synced every record.
  const bool round_tail = version >= 5;

  JournalRows rows;
  std::size_t line_number = 1;
  while (std::getline(is, line)) {
    ++line_number;
    if (line.empty()) continue;
    rows.emplace_back(line_number, line);
  }
  for (std::size_t i = 0; i < rows.size(); ++i) {
    // Nothing may follow a study_state epilogue: the writer closes the
    // file right after it, so a later line means the file was tampered
    // with or interleaved — not a recoverable torn tail.
    if (!result.study_state.empty()) {
      fail_journal("line " + std::to_string(rows[i].first) +
                   ": content after the study_state epilogue");
    }
    try {
      const std::string body = checksummed
                                   ? verify_checksummed_line(rows[i].second)
                                   : rows[i].second;
      const auto fields = split_csv_row(body);
      if (fields[0] == "s") {
        if (fields.size() != 3 || fields[1].empty()) {
          fail_parse("malformed study_state epilogue");
        }
        if (parse_count(fields[2], "epilogue record count") !=
            result.records.size()) {
          fail_parse(
              "study_state epilogue record count does not match the journal");
        }
        result.study_state = fields[1];
        continue;
      }
      if (fields[0] == "k") {
        // A v4 kernel-fit line belongs to the record line right before it.
        if (!kernel_fits) fail_parse("kernel fit line before journal v4");
        if (result.records.empty() || result.records.back().kernel_fit) {
          fail_parse("kernel fit line without its record line");
        }
        result.records.back().kernel_fit =
            RecordedKernelFit(parse_kernel_fit_fields(fields));
        continue;
      }
      EvaluationRecord record = parse_record_fields(fields);
      // v5 writers journal records in index order, so a record out of
      // place is damage: a line lost or repeated.
      if (round_tail && record.index != result.records.size()) {
        fail_parse("record out of index order");
      }
      result.records.push_back(std::move(record));
    } catch (const std::runtime_error& e) {
      const std::string what =
          "line " + std::to_string(rows[i].first) + ": " + e.what();
      // Damage outside the tail the writer's syncs allow is corruption.
      const bool tail =
          round_tail ? damage_confined_to_final_round(
                           rows, i, result.records.size(),
                           result.header.batch_size)
                     : i + 1 == rows.size();
      if (!tail) fail_journal(what);
      result.dropped_lines = rows.size() - i;
      obs::logger().warn(
          "journal.torn_tail",
          {{"path", obs::JsonValue(path)},
           {"line", obs::JsonValue(rows[i].first)},
           {"error", obs::JsonValue(what)},
           {"dropped_lines", obs::JsonValue(result.dropped_lines)},
           {"recovered_records", obs::JsonValue(result.records.size())}});
      break;
    }
  }
  return result;
}

void EvalJournal::append(const EvaluationRecord& record) {
  if (!active()) return;
  write_journal_line(file_.get(), path_, journal_lines(record));
  unsynced_ = true;
  // Records are appended in index order and a resume keeps rounds that
  // start at multiples of the batch size, so a round ends here when this
  // index completes one. load()'s v5 tail rule counts rounds the same way.
  if (batch_size_ > 1 && (record.index + 1) % batch_size_ != 0) return;
  obs::ScopedTimer fsync_span("journal.fsync", record.index);
  sync_journal(file_.get(), path_);
  unsynced_ = false;
}

void EvalJournal::finalize(const std::string& state, std::size_t records) {
  if (!active()) return;
  if (state.empty()) fail_journal("finalize requires a non-empty state");
  obs::ScopedTimer fsync_span("journal.fsync", records);
  // A round the study ended early (a budget or an abort) is synced before
  // the epilogue: load() trusts that whatever precedes an epilogue was
  // durable before it was written.
  if (unsynced_) sync_journal(file_.get(), path_);
  write_journal_line(file_.get(), path_,
                     checksummed_line(epilogue_body(state, records)));
  sync_journal(file_.get(), path_);
  file_.reset();
  path_.clear();
}

}  // namespace hp::core
