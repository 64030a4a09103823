// Deterministic mutation tests of the wire's parsers, the bytes a fleet
// worker and the scheduler take from each other. Seeds are encoded job,
// result, hello, beat, jerr and quit frames; a seeded mt19937_64 mutates
// them (bit flips, byte edits, cuts, splices, hostile field values) and
// every mutant goes through decode_frame, parse_job and
// parse_worker_message. Properties: no parser throws; a frame whose
// length or CRC disagrees with its payload never decodes; encode ->
// decode is the identity; the 19-digit integer fields parse exactly and
// 20-digit ones are rejected, never wrapped.

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <optional>
#include <random>
#include <string>
#include <vector>

#include "core/checksum.hpp"
#include "core/trace_io.hpp"
#include "dist/wire.hpp"

namespace hp::dist {
namespace {

core::EvaluationRecord seed_record() {
  core::EvaluationRecord record;
  record.config = {24.0, 3.0, 2.0, 450.0, 0.0123456789, 0.9};
  record.status = core::EvaluationStatus::Completed;
  record.test_error = 0.0625;
  record.measured_power_w = 87.5;
  record.measured_memory_mb = 512.25;
  record.cost_s = 123.5;
  record.timestamp_s = 130.25;
  record.index = 11;
  record.attempts = 2;
  return record;
}

/// Payloads of every message kind, in both directions.
std::vector<std::string> seed_payloads() {
  JobRequest job;
  job.job_id = 42;
  job.sample_index = 17;
  job.dispatch_attempt = 2;
  job.config = {24.0, 3.0, 2.0, 450.0, 1.0 / 3.0, 0.9};
  JobRequest empty_job;
  empty_job.job_id = 1;
  core::EvaluationRecord failed;
  failed.status = core::EvaluationStatus::Failed;
  failed.failure_kind = core::FailureKind::Timeout;
  return {encode_job(job),
          encode_job(empty_job),
          encode_quit(),
          encode_hello(31337),
          encode_beat(std::nullopt),
          encode_beat(9),
          encode_result(5, seed_record()),
          encode_result(6, failed),
          encode_job_error(4, "bad_alloc, again")};
}

/// Field values that stress integer and double parsing.
const std::vector<std::string>& hostile_fields() {
  static const std::vector<std::string> fields = {
      "", "0", "-1", "+1", " 1", "1 ", "4000000000000",
      "4294967296", "9999999999999999999", "18446744073709551615",
      "18446744073709551616", "99999999999999999999",
      std::string(64, '9'), "1e308", "1e999", "-1e999", "nan", "inf",
      "-0", "0x1p3", "1.5e", "4.9406564584124654e-324", "-", "r", "job",
      std::string(1, '\0')};
  return fields;
}

std::string escaped(const std::string& bytes) {
  std::string out;
  for (const char c : bytes) {
    if (c >= 0x20 && c < 0x7f) {
      out.push_back(c);
    } else {
      char hex[8];
      std::snprintf(hex, sizeof hex, "\\x%02x",
                    static_cast<unsigned>(static_cast<unsigned char>(c)));
      out += hex;
    }
  }
  return out;
}

class Mutator {
 public:
  explicit Mutator(std::uint64_t seed) : rng_(seed) {}

  std::size_t below(std::size_t n) {
    return n == 0 ? 0 : static_cast<std::size_t>(rng_() % n);
  }

  /// One to three random edits of @p bytes; @p other is a splice donor.
  std::string mutate(std::string bytes, const std::string& other) {
    static const char kAlphabet[] = "0123456789,-+.eEnaifx f\n\r\xff";
    const std::size_t edits = 1 + below(3);
    for (std::size_t e = 0; e < edits; ++e) {
      const std::size_t at = below(bytes.size() + 1);
      switch (below(8)) {
        case 0:  // flip one bit
          if (at < bytes.size()) {
            bytes[at] = static_cast<char>(bytes[at] ^ (1 << below(8)));
          }
          break;
        case 1:  // replace a byte
          if (at < bytes.size()) {
            bytes[at] = kAlphabet[below(sizeof kAlphabet - 1)];
          }
          break;
        case 2:  // insert a byte
          bytes.insert(at, 1, kAlphabet[below(sizeof kAlphabet - 1)]);
          break;
        case 3:  // delete a byte
          if (at < bytes.size()) bytes.erase(at, 1);
          break;
        case 4:  // cut the tail
          bytes.resize(at);
          break;
        case 5: {  // duplicate a slice
          const std::size_t len = below(bytes.size() - at + 1);
          bytes.insert(at, bytes.substr(at, len));
          break;
        }
        case 6: {  // splice the donor's tail
          const std::size_t from = below(other.size() + 1);
          bytes = bytes.substr(0, at) + other.substr(from);
          break;
        }
        default:  // replace one comma-separated field
          bytes = replace_field(bytes);
          break;
      }
    }
    return bytes;
  }

 private:
  std::string replace_field(const std::string& bytes) {
    std::vector<std::size_t> commas;
    for (std::size_t i = 0; i < bytes.size(); ++i) {
      if (bytes[i] == ',') commas.push_back(i);
    }
    const std::size_t k = below(commas.size() + 1);
    const std::size_t begin = k == 0 ? 0 : commas[k - 1] + 1;
    const std::size_t end = k < commas.size() ? commas[k] : bytes.size();
    const std::vector<std::string>& fields = hostile_fields();
    return bytes.substr(0, begin) + fields[below(fields.size())] +
           bytes.substr(end);
  }

  std::mt19937_64 rng_;
};

/// Frame fields as the sender wrote them, parsed independently of
/// decode_frame: the declared length, the declared CRC and the payload.
struct FrameParts {
  std::uint64_t length = 0;
  std::uint32_t crc = 0;
  std::string payload;
};

std::optional<FrameParts> split_frame(const std::string& line) {
  if (line.compare(0, 2, "f,") != 0) return std::nullopt;
  const auto len_end = line.find(',', 2);
  if (len_end == std::string::npos) return std::nullopt;
  const auto crc_end = line.find(',', len_end + 1);
  if (crc_end == std::string::npos) return std::nullopt;
  FrameParts parts;
  try {
    parts.length = std::stoull(line.substr(2, len_end - 2));
    parts.crc = static_cast<std::uint32_t>(
        std::stoul(line.substr(len_end + 1, crc_end - len_end - 1), nullptr,
                   16));
  } catch (const std::exception&) {
    return std::nullopt;
  }
  parts.payload = line.substr(crc_end + 1);
  return parts;
}

/// Runs @p bytes through every parser; fails the test when one throws.
/// Returns the decoded payload, if any.
std::optional<std::string> parse_everything(const std::string& bytes) {
  std::optional<std::string> payload;
  try {
    payload = decode_frame(bytes);
    (void)parse_job(bytes);
    (void)parse_worker_message(bytes);
    if (payload) {
      (void)parse_job(*payload);
      (void)parse_worker_message(*payload);
    }
  } catch (const std::exception& e) {
    ADD_FAILURE() << "a parser threw " << e.what() << " on '"
                  << escaped(bytes) << "'";
  }
  return payload;
}

TEST(WireMutation, MutatedFramesNeverThrowAndDecodeOnlyWhenConsistent) {
  const std::vector<std::string> payloads = seed_payloads();
  Mutator mutator(20260101);
  std::size_t decoded = 0;
  for (std::size_t round = 0; round < 4000; ++round) {
    const std::string& seed = payloads[round % payloads.size()];
    const std::string& donor = payloads[mutator.below(payloads.size())];
    std::string line = encode_frame(seed);
    line.pop_back();
    std::string donor_line = encode_frame(donor);
    donor_line.pop_back();
    const std::string mutant = mutator.mutate(line, donor_line);
    const auto payload = parse_everything(mutant);
    if (!payload) continue;
    ++decoded;
    // Whatever decodes carries a length and a CRC that match its payload.
    const auto parts = split_frame(mutant);
    ASSERT_TRUE(parts.has_value()) << escaped(mutant);
    EXPECT_EQ(parts->payload, *payload);
    EXPECT_EQ(parts->length, payload->size()) << escaped(mutant);
    EXPECT_EQ(parts->crc, core::crc32(*payload)) << escaped(mutant);
  }
  // Some mutants leave a consistent frame (a cut at the very end, a zero
  // inserted before the length), so a few decode and are checked; most
  // must not.
  EXPECT_GT(decoded, 0u);
  EXPECT_LT(decoded, 400u);
}

TEST(WireMutation, MutatedPayloadsNeverThrow) {
  const std::vector<std::string> payloads = seed_payloads();
  Mutator mutator(7);
  for (std::size_t round = 0; round < 20000; ++round) {
    const std::string& seed = payloads[round % payloads.size()];
    const std::string& donor = payloads[mutator.below(payloads.size())];
    const std::string mutant = mutator.mutate(seed, donor);
    (void)parse_everything(mutant);
    // Framed by a correct sender, any payload survives the frame intact.
    std::string line = encode_frame(mutant);
    ASSERT_EQ(line.back(), '\n');
    line.pop_back();
    if (mutant.find('\n') == std::string::npos) {
      EXPECT_EQ(decode_frame(line), mutant) << escaped(mutant);
    }
  }
}

TEST(WireMutation, EveryWrongLengthOrCrcIsRejected) {
  for (const std::string& payload : seed_payloads()) {
    std::string line = encode_frame(payload);
    line.pop_back();
    ASSERT_EQ(decode_frame(line), payload);
    const auto len_end = line.find(',', 2);
    const auto crc_end = line.find(',', len_end + 1);
    // Every other declared length.
    for (std::size_t length = 0; length <= 2 * payload.size() + 2; ++length) {
      if (length == payload.size()) continue;
      const std::string mutant = "f," + std::to_string(length) +
                                 line.substr(len_end);
      EXPECT_FALSE(decode_frame(mutant).has_value()) << mutant;
    }
    // Every other hex digit in every CRC position.
    for (std::size_t at = len_end + 1; at < crc_end; ++at) {
      for (const char digit : std::string("0123456789abcdef")) {
        if (digit == line[at]) continue;
        std::string mutant = line;
        mutant[at] = digit;
        EXPECT_FALSE(decode_frame(mutant).has_value()) << mutant;
      }
    }
    // Every single-byte change of the payload: CRC-32 detects them all.
    for (std::size_t at = crc_end + 1; at < line.size(); ++at) {
      for (int delta = 1; delta < 256; delta += 37) {
        std::string mutant = line;
        mutant[at] = static_cast<char>(mutant[at] + delta);
        EXPECT_FALSE(decode_frame(mutant).has_value()) << escaped(mutant);
      }
    }
  }
}

TEST(WireMutation, EncodeThenDecodeIsTheIdentity) {
  std::mt19937_64 rng(99);
  const auto random_double = [&rng] {
    for (;;) {
      const double value = std::bit_cast<double>(rng());
      if (std::isfinite(value)) return value;  // subnormals included
    }
  };
  for (std::size_t round = 0; round < 2000; ++round) {
    JobRequest job;
    job.job_id = rng() % 10'000'000'000'000'000'000ULL;
    job.sample_index = static_cast<std::size_t>(rng() % 1'000'000);
    job.dispatch_attempt = 1 + static_cast<std::size_t>(rng() % 5);
    job.config.resize(rng() % 14);
    for (double& value : job.config) value = random_double();
    const std::string line = encode_frame(encode_job(job));
    const auto payload =
        decode_frame(std::string_view(line).substr(0, line.size() - 1));
    ASSERT_TRUE(payload.has_value());
    const auto parsed = parse_job(*payload);
    ASSERT_TRUE(parsed.has_value()) << *payload;
    EXPECT_EQ(parsed->job_id, job.job_id);
    EXPECT_EQ(parsed->sample_index, job.sample_index);
    EXPECT_EQ(parsed->dispatch_attempt, job.dispatch_attempt);
    ASSERT_EQ(parsed->config.size(), job.config.size());
    for (std::size_t k = 0; k < job.config.size(); ++k) {
      EXPECT_EQ(std::bit_cast<std::uint64_t>(parsed->config[k]),
                std::bit_cast<std::uint64_t>(job.config[k]))
          << *payload;
    }
  }
  const core::EvaluationRecord record = seed_record();
  const auto result = parse_worker_message(encode_result(3, record));
  ASSERT_TRUE(result.has_value());
  EXPECT_EQ(core::format_record_line(result->record),
            core::format_record_line(record));
  const auto error =
      parse_worker_message(encode_job_error(8, "no, this\nbreaks"));
  ASSERT_TRUE(error.has_value());
  EXPECT_EQ(error->error, "no, this breaks");
  const auto hello = parse_worker_message(encode_hello(4'000'000));
  ASSERT_TRUE(hello.has_value());
  EXPECT_EQ(hello->pid, 4'000'000);
}

TEST(WireMutation, IntegerFieldsTakeNineteenDigitsAndRejectTwenty) {
  constexpr std::uint64_t kMax19 = 9'999'999'999'999'999'999ULL;
  const auto job = parse_job("job,9999999999999999999,0,1,0");
  ASSERT_TRUE(job.has_value());
  EXPECT_EQ(job->job_id, kMax19);
  const auto beat = parse_worker_message("beat,9999999999999999999");
  ASSERT_TRUE(beat.has_value());
  EXPECT_EQ(beat->job_id, kMax19);
  const auto padded = parse_job("job,0000000000000000001,0,1,0");
  ASSERT_TRUE(padded.has_value());
  EXPECT_EQ(padded->job_id, 1u);

  // 2^64 - 1, 2^64 and 10^20 - 1 would wrap a 64-bit accumulator.
  for (const char* twenty :
       {"18446744073709551615", "18446744073709551616",
        "99999999999999999999", "00000000000000000001"}) {
    EXPECT_FALSE(parse_job(std::string("job,") + twenty + ",0,1,0"))
        << twenty;
    EXPECT_FALSE(parse_worker_message(std::string("beat,") + twenty))
        << twenty;
    EXPECT_FALSE(parse_worker_message(std::string("hello,") + twenty))
        << twenty;
    const std::string frame =
        std::string("f,") + twenty + "," + "00000000,x";
    EXPECT_FALSE(decode_frame(frame).has_value()) << twenty;
  }
}

TEST(WireMutation, AbsurdDimensionIsRejectedBeforeItAllocates) {
  EXPECT_FALSE(parse_job("job,1,0,1,4000000000000").has_value());
  EXPECT_FALSE(parse_job("job,1,0,1,9999999999999999999").has_value());
  EXPECT_FALSE(parse_job("job,1,0,1,4000000000000,0.5").has_value());
  EXPECT_FALSE(parse_job("job,1,0,1,3,0.5,0.5").has_value());
  const auto fits = parse_job("job,1,0,1,3,1,2,3");
  ASSERT_TRUE(fits.has_value());
  EXPECT_EQ(fits->config, (core::Configuration{1.0, 2.0, 3.0}));
}

}  // namespace
}  // namespace hp::dist
