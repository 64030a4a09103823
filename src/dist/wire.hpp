#pragma once
// Line-framed wire protocol between the fleet scheduler and hpo-worker
// processes (DESIGN.md §15). Every message is one text line:
//
//   f,<len>,<crc32hex>,<payload>\n
//
// where <len> is the payload's byte count and <crc32hex> is eight lower-
// case hex digits of CRC-32 over the payload. A worker reply is never
// trusted on syntax alone: a frame whose length or checksum disagrees is
// garbage — classified and counted against the worker, not parsed.
//
// Payloads (ASCII, comma-separated, no newlines):
//   scheduler -> worker
//     job,<job_id>,<sample_index>,<dispatch_attempt>,<dim>,<v0>,...,<vN-1>
//     quit
//   worker -> scheduler
//     hello,<pid>                     ready for jobs (objective built)
//     beat,<job_id|->                 liveness, every heartbeat interval
//     result,<job_id>,<record-line>   record-line = core::format_record_line
//     jerr,<job_id>,<message>         unexpected worker-side job failure
//
// Configuration doubles cross the wire as "%.17g" (round-trip exact), the
// same convention as the journal, so a worker evaluates bit-identical
// inputs and the scheduler merges bit-identical records.

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "core/objective.hpp"

namespace hp::dist {

/// Wraps @p payload in a frame line, trailing '\n' included.
[[nodiscard]] std::string encode_frame(std::string_view payload);

/// Unwraps one frame line (without its '\n'). Returns the payload, or
/// nullopt when the frame is malformed, short, long, or fails its
/// checksum — the caller treats nullopt as worker garbage.
[[nodiscard]] std::optional<std::string> decode_frame(std::string_view line);

/// Writes @p bytes (one or more encoded frames) to @p fd with write(2),
/// looping over partial writes. Returns false on any write error (EPIPE
/// when the peer died); never raises SIGPIPE as long as the process
/// ignores it.
[[nodiscard]] bool write_all(int fd, std::string_view bytes);

/// A dispatched job, scheduler -> worker.
struct JobRequest {
  std::uint64_t job_id = 0;
  std::size_t sample_index = 0;
  /// 1-based dispatch attempt — keys the worker's chaos schedule so a
  /// requeued job can draw a different fault than its first dispatch.
  std::size_t dispatch_attempt = 1;
  core::Configuration config;
};

[[nodiscard]] std::string encode_job(const JobRequest& job);
[[nodiscard]] std::optional<JobRequest> parse_job(std::string_view payload);

[[nodiscard]] std::string encode_quit();

/// A worker -> scheduler message, already validated field-by-field.
struct WorkerMessage {
  enum class Kind { Hello, Beat, Result, JobError };
  Kind kind = Kind::Beat;
  /// Hello: worker pid. Beat: job id being evaluated (nullopt = idle).
  /// Result/JobError: the job the message answers.
  std::optional<std::uint64_t> job_id;
  std::int64_t pid = 0;
  core::EvaluationRecord record;  ///< valid for Result
  std::string error;              ///< valid for JobError
};

[[nodiscard]] std::string encode_hello(std::int64_t pid);
[[nodiscard]] std::string encode_beat(std::optional<std::uint64_t> job_id);
[[nodiscard]] std::string encode_result(std::uint64_t job_id,
                                        const core::EvaluationRecord& record);
[[nodiscard]] std::string encode_job_error(std::uint64_t job_id,
                                           std::string_view message);

/// Parses any worker -> scheduler payload. Returns nullopt on garbage
/// (unknown tag, malformed fields, unparseable record).
[[nodiscard]] std::optional<WorkerMessage> parse_worker_message(
    std::string_view payload);

}  // namespace hp::dist
