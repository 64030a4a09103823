#include "core/trace_io.hpp"

#include <fcntl.h>
#include <unistd.h>

#include <charconv>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <vector>

#include "core/checksum.hpp"
#include "gp/kernel_fit.hpp"
#include "obs/log.hpp"
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
/// exponent) over the whole field, at most 2^64 - 1. A double cast to an
/// integer instead is undefined behaviour for NaN, negative or huge values.
std::uint64_t parse_count(const std::string& text, const char* what) {
  std::uint64_t value = 0;
  const char* const end = text.data() + text.size();
  const auto [last, error] = std::from_chars(text.data(), end, value);
  if (error != std::errc() || last != end) {
    fail_parse(std::string("malformed ") + what);
  }
  return value;
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
constexpr const char* kJournalVersionV1 = "v1";
constexpr const char* kJournalVersionV2 = "v2";
constexpr const char* kJournalVersionV3 = "v3";
constexpr const char* kJournalVersionV4 = "v4";

std::string journal_header_line(const JournalHeader& header) {
  std::ostringstream os;
  os << kJournalMagic << ',' << kJournalVersionV4 << ',' << header.method << ','
     << header.seed << ',' << header.batch_size;
  return os.str();
}

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

/// A record's journal lines: its record line, then its kernel-fit line if
/// it carries a fit. They go out in one write and one fsync.
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

/// Splits a v2 line into body + checksum field, verifies the checksum, and
/// returns the body. Throws via fail_parse() on a missing or wrong checksum
/// — the caller decides whether that is a droppable torn tail (final line)
/// or fatal corruption (anything earlier).
std::string verify_checksummed_line(const std::string& line) {
  const auto hash_pos = line.rfind(",#");
  if (hash_pos == std::string::npos || line.size() != hash_pos + 10) {
    fail_parse("missing record checksum");
  }
  const std::string body = line.substr(0, hash_pos);
  char expected[16];
  std::snprintf(expected, sizeof expected, "%08x", crc32(body));
  if (line.compare(hash_pos + 2, 8, expected) != 0) {
    fail_parse("record checksum mismatch");
  }
  return body;
}

[[nodiscard]] std::FILE* open_journal_for_write(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "we");
  if (f == nullptr) {
    fail_journal("cannot open '" + path + "' for writing");
  }
  return f;
}

void write_journal_line(std::FILE* f, const std::string& path,
                        const std::string& line) {
  if (std::fputs(line.c_str(), f) == EOF || std::fputc('\n', f) == EOF ||
      std::fflush(f) != 0) {
    fail_journal("write to '" + path + "' failed");
  }
  // fsync per line: the crash-safety contract is "every record whose
  // append returned is recoverable", which buffered writes alone can't
  // give. The journal is written once per evaluation, so against a real
  // training run the sync is noise; against the testbed's microsecond
  // evaluations it is a visible share of a study's wall time.
  if (::fsync(fileno(f)) != 0) {
    fail_journal("fsync of '" + path + "' failed");
  }
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
  write_journal_line(journal.file_.get(), path, journal_header_line(header));
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
  }
  if (std::rename(staging.c_str(), path.c_str()) != 0) {
    std::remove(staging.c_str());
    fail_journal("cannot rename '" + staging + "' over '" + path + "'");
  }
  sync_directory_of(path);
  journal.path_ = path;
  return journal;
}

JournalLoadResult EvalJournal::load(const std::string& path) {
  std::ifstream is(path);
  if (!is) fail_journal("cannot open '" + path + "' for reading");

  std::string line;
  if (!std::getline(is, line)) fail_journal("empty file '" + path + "'");
  const auto header_fields = split_csv_row(line);
  if (header_fields.size() != 5 || header_fields[0] != kJournalMagic ||
      (header_fields[1] != kJournalVersionV1 &&
       header_fields[1] != kJournalVersionV2 &&
       header_fields[1] != kJournalVersionV3 &&
       header_fields[1] != kJournalVersionV4)) {
    fail_journal("bad header in '" + path + "'");
  }
  const bool checksummed = header_fields[1] != kJournalVersionV1;
  const bool kernel_fits = header_fields[1] == kJournalVersionV4;
  JournalLoadResult result;
  result.header.method = header_fields[2];
  try {
    result.header.seed = parse_count(header_fields[3], "seed");
    result.header.batch_size = parse_count(header_fields[4], "batch size");
  } catch (const std::runtime_error&) {
    fail_journal("bad header numbers in '" + path + "'");
  }

  std::vector<std::pair<std::size_t, std::string>> rows;
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
      result.records.push_back(parse_record_fields(fields));
    } catch (const std::runtime_error& e) {
      const std::string what =
          "line " + std::to_string(rows[i].first) + ": " + e.what();
      // Mid-file corruption stays fatal.
      if (i + 1 != rows.size()) fail_journal(what);
      result.dropped_lines = 1;
      obs::logger().warn(
          "journal.torn_tail",
          {{"path", obs::JsonValue(path)},
           {"line", obs::JsonValue(rows[i].first)},
           {"error", obs::JsonValue(what)},
           {"recovered_records", obs::JsonValue(result.records.size())}});
    }
  }
  return result;
}

void EvalJournal::append(const EvaluationRecord& record) {
  if (!active()) return;
  obs::ScopedTimer fsync_span("journal.fsync", record.index);
  write_journal_line(file_.get(), path_, journal_lines(record));
}

void EvalJournal::finalize(const std::string& state, std::size_t records) {
  if (!active()) return;
  if (state.empty()) fail_journal("finalize requires a non-empty state");
  obs::ScopedTimer fsync_span("journal.fsync", records);
  write_journal_line(file_.get(), path_,
                     checksummed_line(epilogue_body(state, records)));
  file_.reset();
  path_.clear();
}

}  // namespace hp::core
