#pragma once
// The crash-safe evaluation journal, and the record line it shares with
// the fleet's result frames.
//
// Evaluation journal: an append-only, line-framed record of every finished
// evaluation *including* its configuration, written by the optimizer as
// records complete and fsync'd once per round. Unlike the trace CSV
// (RunTrace::write_csv, written once at the end of a run) the journal
// survives the process dying mid-run: resume loads it, drops the damage a
// crash left in its tail, and replays the completed evaluations so the
// continued run's trace is bit-identical to an uninterrupted one.

#include <cstdint>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "core/run_trace.hpp"

namespace hp::core {

/// Serializes one evaluation record — configuration included, doubles
/// printed round-trip exact ("%.17g") — as the line-framed form shared by
/// the journal and the fleet wire protocol (src/dist/wire.hpp): parsing
/// the text recovers identical bit patterns, which is what lets a worker
/// process hand a record back to the scheduler without perturbing the
/// golden-trace guarantee.
[[nodiscard]] std::string format_record_line(const EvaluationRecord& record);

/// Parses a line produced by format_record_line. @p line_number only
/// flavors the error message. Throws std::runtime_error on corruption.
[[nodiscard]] EvaluationRecord parse_record_line(const std::string& line,
                                                 std::size_t line_number);

/// Identity of the run a journal belongs to. Checked on resume: replaying
/// a journal into a differently-configured run would silently corrupt the
/// determinism guarantee, so a mismatch throws instead.
struct JournalHeader {
  std::string method;
  std::uint64_t seed = 0;
  std::size_t batch_size = 1;
};

/// Result of EvalJournal::load.
struct JournalLoadResult {
  JournalHeader header;
  std::vector<EvaluationRecord> records;
  /// Lines dropped as a damaged tail: before v5 at most the final line (a
  /// crash mid-append); in v5 at most the round in flight's lines, two per
  /// record (EvalJournal::load).
  std::size_t dropped_lines = 0;
  /// The study_state epilogue written on clean finalize ("completed" or
  /// "aborted"); empty when the run never finalized (crash — the journal
  /// ends in records or a torn tail) or the journal predates v3 writers.
  /// Lets resume tooling distinguish "this run finished" from "this run
  /// died" without replaying anything.
  std::string study_state;
  [[nodiscard]] bool complete() const noexcept { return !study_state.empty(); }
};

/// Append-only evaluation journal. Each append writes one line-framed
/// record (configuration included, doubles printed round-trip exact) and
/// flushes it to the kernel, so a killed process loses at most a torn final
/// line. The journal fsyncs once per round of the header's batch size:
/// after each round's last record, and before finalize()'s epilogue (a
/// sequential journal's round is one record). A default-constructed journal
/// is inactive and every member is a no-op, which lets the optimizer write
/// journal code unconditionally.
///
/// Format versions: new journals are written as `hpjournal,v5`. Since v2,
/// record lines end in a `#crc32` field over the record body — a torn
/// *middle* write (a crashed fleet merge, a disk that reordered flushes)
/// is detected by the checksum and rejected deterministically even when
/// the truncated text happens to still parse. v3 adds a checksummed
/// `s,<state>,<count>` study_state epilogue written by finalize() when a
/// run ends cleanly, so load() can report "completed" versus "torn tail"
/// without replaying. v4 adds a checksummed `k` line after the record
/// line of every record that carries a kernel ML fit
/// (EvaluationRecord::kernel_fit), written in the same write; a torn `k`
/// line leaves its record without a fit. v5 checksums the header and is
/// synced once per round instead of once per record, so its damaged tail
/// may span the final round (load()). v1 journals (no checksums), v2
/// journals (no epilogue), v3 journals (no fits) and v4 journals (synced
/// per record) remain loadable; only v1's unparseable corruption is
/// detectable.
class EvalJournal {
 public:
  EvalJournal() = default;
  EvalJournal(EvalJournal&&) noexcept = default;
  EvalJournal& operator=(EvalJournal&&) noexcept = default;
  EvalJournal(const EvalJournal&) = delete;
  EvalJournal& operator=(const EvalJournal&) = delete;

  /// Creates (truncates) @p path and writes the header line. Throws
  /// std::runtime_error on I/O failure.
  [[nodiscard]] static EvalJournal create(const std::string& path,
                                          const JournalHeader& header);

  /// Replaces @p path with a journal holding the header plus @p records
  /// (their kernel fits included), as create() and one append() per
  /// record would write it — the resume
  /// path's journal rebuild (the records a resumed run replays must be in
  /// its journal too, or a second crash would lose them). The new journal
  /// is written to `<path>.tmp`, fsynced once and renamed over @p path, so
  /// a crash at any point leaves the old journal or the new one whole.
  /// Throws std::runtime_error on I/O failure.
  [[nodiscard]] static EvalJournal rewrite(
      const std::string& path, const JournalHeader& header,
      const std::vector<EvaluationRecord>& records);

  /// Loads a journal, tolerating a damaged tail (dropped and counted). A
  /// `k` line's fit is attached to the record before it. A line fails when
  /// it does not verify or parse or is out of place (a `k` line before v4,
  /// with no record line before it, or after another; in v5 a record whose
  /// index is not its position). Before v5 only the final line may fail.
  /// In v5, let m be the records kept before the first failing line: that
  /// line and every later one are dropped when there are at most 2 × batch
  /// of them, none verifies as an epilogue, and every one that verifies as
  /// a record has an index in m's round, at or after m. Throws
  /// std::runtime_error when the file cannot be read, the header is
  /// malformed (or a v5 header fails its checksum), or any other line
  /// fails.
  [[nodiscard]] static JournalLoadResult load(const std::string& path);

  /// Appends one record, and its kernel fit if it carries one, in one
  /// write flushed to the kernel, and fsyncs (one `journal.fsync` span)
  /// when the record's index completes a round of the header's batch size.
  /// Throws std::runtime_error on I/O failure.
  void append(const EvaluationRecord& record);

  /// fsyncs what was appended since the last sync, then writes the
  /// study_state epilogue (`s,<state>,<records>`, checksummed), fsyncs
  /// again, and closes the journal — the clean-finalize marker. After
  /// this the journal is inactive; further appends are no-ops. Throws
  /// std::runtime_error on I/O failure or an empty @p state.
  void finalize(const std::string& state, std::size_t records);

  [[nodiscard]] bool active() const noexcept { return file_ != nullptr; }
  [[nodiscard]] const std::string& path() const noexcept { return path_; }

 private:
  struct FileCloser {
    void operator()(std::FILE* f) const noexcept;
  };

  std::unique_ptr<std::FILE, FileCloser> file_;
  std::string path_;
  std::size_t batch_size_ = 1;  ///< the header's: records per round
  bool unsynced_ = false;       ///< lines appended since the last fsync
};

}  // namespace hp::core
