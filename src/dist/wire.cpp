#include "dist/wire.hpp"

#include <unistd.h>

#include <cerrno>
#include <charconv>
#include <cstdio>
#include <stdexcept>

#include "core/checksum.hpp"
#include "core/trace_io.hpp"

namespace hp::dist {

namespace {

/// Round-trip exact double formatting, the journal's convention: parsing
/// with parse_double recovers identical bits on the worker side.
std::string format_double(double value) {
  char buffer[32];
  std::snprintf(buffer, sizeof buffer, "%.17g", value);
  return buffer;
}

/// Strict unsigned parse of a full field; nullopt on any malformation.
std::optional<std::uint64_t> parse_u64(std::string_view text) {
  if (text.empty() || text.size() > 19) return std::nullopt;
  std::uint64_t value = 0;
  for (const char c : text) {
    if (c < '0' || c > '9') return std::nullopt;
    value = value * 10 + static_cast<std::uint64_t>(c - '0');
  }
  return value;
}

/// Strict parse of a full "%.17g" field. from_chars, unlike std::stod,
/// takes the subnormals format_double writes, and no locale or whitespace.
std::optional<double> parse_double(std::string_view text) {
  double value = 0.0;
  const char* const end = text.data() + text.size();
  const auto [last, error] = std::from_chars(text.data(), end, value);
  if (error != std::errc() || last != end) return std::nullopt;
  return value;
}

/// Splits off the field before the next ',' (or the remainder), advancing
/// @p rest past the separator. Returns nullopt when @p rest is exhausted.
std::optional<std::string_view> take_field(std::string_view& rest) {
  if (rest.data() == nullptr) return std::nullopt;
  const auto comma = rest.find(',');
  std::string_view field = rest.substr(0, comma);
  rest = comma == std::string_view::npos ? std::string_view{}
                                         : rest.substr(comma + 1);
  return field;
}

}  // namespace

std::string encode_frame(std::string_view payload) {
  char header[32];
  std::snprintf(header, sizeof header, "f,%zu,%08x,", payload.size(),
                core::crc32(payload));
  std::string frame(header);
  frame.append(payload);
  frame.push_back('\n');
  return frame;
}

std::optional<std::string> decode_frame(std::string_view line) {
  if (line.substr(0, 2) != "f,") return std::nullopt;
  std::string_view rest = line.substr(2);
  const auto len_field = take_field(rest);
  const auto crc_field = take_field(rest);
  if (!len_field || !crc_field || crc_field->size() != 8) return std::nullopt;
  const auto len = parse_u64(*len_field);
  if (!len || rest.size() != *len) return std::nullopt;
  char expected[16];
  std::snprintf(expected, sizeof expected, "%08x", core::crc32(rest));
  if (*crc_field != expected) return std::nullopt;
  return std::string(rest);
}

bool write_all(int fd, std::string_view bytes) {
  std::size_t written = 0;
  while (written < bytes.size()) {
    const ssize_t n =
        ::write(fd, bytes.data() + written, bytes.size() - written);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    written += static_cast<std::size_t>(n);
  }
  return true;
}

std::string encode_job(const JobRequest& job) {
  std::string payload = "job," + std::to_string(job.job_id) + ',' +
                        std::to_string(job.sample_index) + ',' +
                        std::to_string(job.dispatch_attempt) + ',' +
                        std::to_string(job.config.size());
  for (const double v : job.config) {
    payload.push_back(',');
    payload.append(format_double(v));
  }
  return payload;
}

std::optional<JobRequest> parse_job(std::string_view payload) {
  std::string_view rest = payload;
  const auto tag = take_field(rest);
  if (!tag || *tag != "job") return std::nullopt;
  const auto id = take_field(rest);
  const auto sample = take_field(rest);
  const auto attempt = take_field(rest);
  const auto dim = take_field(rest);
  if (!id || !sample || !attempt || !dim) return std::nullopt;
  JobRequest job;
  const auto id_v = parse_u64(*id);
  const auto sample_v = parse_u64(*sample);
  const auto attempt_v = parse_u64(*attempt);
  const auto dim_v = parse_u64(*dim);
  if (!id_v || !sample_v || !attempt_v || !dim_v) return std::nullopt;
  job.job_id = *id_v;
  job.sample_index = static_cast<std::size_t>(*sample_v);
  job.dispatch_attempt = static_cast<std::size_t>(*attempt_v);
  // Each value takes at least one byte and a comma, so a dimension the
  // payload cannot hold is rejected before it sizes an allocation.
  if (*dim_v > rest.size() / 2 + 1) return std::nullopt;
  job.config.reserve(static_cast<std::size_t>(*dim_v));
  for (std::uint64_t i = 0; i < *dim_v; ++i) {
    const auto field = take_field(rest);
    if (!field) return std::nullopt;
    const auto value = parse_double(*field);
    if (!value) return std::nullopt;
    job.config.push_back(*value);
  }
  if (rest.data() != nullptr) return std::nullopt;  // trailing fields
  return job;
}

std::string encode_quit() { return "quit"; }

std::string encode_hello(std::int64_t pid) {
  return "hello," + std::to_string(pid);
}

std::string encode_beat(std::optional<std::uint64_t> job_id) {
  return job_id ? "beat," + std::to_string(*job_id) : "beat,-";
}

std::string encode_result(std::uint64_t job_id,
                          const core::EvaluationRecord& record) {
  return "result," + std::to_string(job_id) + ',' +
         core::format_record_line(record);
}

std::string encode_job_error(std::uint64_t job_id, std::string_view message) {
  std::string payload = "jerr," + std::to_string(job_id) + ',';
  // The message must stay one line; anything else would tear the frame.
  for (const char c : message) {
    payload.push_back(c == '\n' || c == '\r' ? ' ' : c);
  }
  return payload;
}

std::optional<WorkerMessage> parse_worker_message(std::string_view payload) {
  std::string_view rest = payload;
  const auto tag = take_field(rest);
  if (!tag) return std::nullopt;
  WorkerMessage message;
  if (*tag == "hello") {
    const auto pid = take_field(rest);
    if (!pid || rest.data() != nullptr) return std::nullopt;
    const auto pid_v = parse_u64(*pid);
    if (!pid_v) return std::nullopt;
    message.kind = WorkerMessage::Kind::Hello;
    message.pid = static_cast<std::int64_t>(*pid_v);
    return message;
  }
  if (*tag == "beat") {
    const auto id = take_field(rest);
    if (!id || rest.data() != nullptr) return std::nullopt;
    message.kind = WorkerMessage::Kind::Beat;
    if (*id != "-") {
      const auto id_v = parse_u64(*id);
      if (!id_v) return std::nullopt;
      message.job_id = *id_v;
    }
    return message;
  }
  if (*tag == "result") {
    const auto id = take_field(rest);
    if (!id || rest.data() == nullptr) return std::nullopt;
    const auto id_v = parse_u64(*id);
    if (!id_v) return std::nullopt;
    message.kind = WorkerMessage::Kind::Result;
    message.job_id = *id_v;
    try {
      message.record = core::parse_record_line(std::string(rest), 0);
    } catch (const std::runtime_error&) {
      return std::nullopt;
    }
    return message;
  }
  if (*tag == "jerr") {
    const auto id = take_field(rest);
    if (!id || rest.data() == nullptr) return std::nullopt;
    const auto id_v = parse_u64(*id);
    if (!id_v) return std::nullopt;
    message.kind = WorkerMessage::Kind::JobError;
    message.job_id = *id_v;
    message.error = std::string(rest);
    return message;
  }
  return std::nullopt;
}

}  // namespace hp::dist
