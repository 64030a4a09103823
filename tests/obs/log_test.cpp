// Logger, sink, and JSON-escaping coverage: level thresholds (global
// floor combined with per-sink minimums), the JSONL sink's line format and
// string escaping, and the stderr pretty-printer's progress-event filter.
// All tests use local Logger instances, never the process-wide singleton.

#include <gtest/gtest.h>

#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "obs/json.hpp"
#include "obs/log.hpp"

namespace hp::obs {
namespace {

/// Records every event it receives.
class RecordingSink final : public LogSink {
 public:
  void write(const LogEvent& event) override { events.push_back(event); }
  std::vector<LogEvent> events;
};

std::vector<std::string> read_lines(const std::string& path) {
  std::ifstream is(path);
  std::vector<std::string> lines;
  std::string line;
  while (std::getline(is, line)) lines.push_back(line);
  return lines;
}

TEST(LogLevelTest, RoundTripsThroughStrings) {
  for (LogLevel level : {LogLevel::kTrace, LogLevel::kDebug, LogLevel::kInfo,
                         LogLevel::kWarn, LogLevel::kError, LogLevel::kOff}) {
    const auto parsed = log_level_from_string(to_string(level));
    ASSERT_TRUE(parsed.has_value()) << to_string(level);
    EXPECT_EQ(*parsed, level);
  }
  EXPECT_FALSE(log_level_from_string("INFO").has_value());
  EXPECT_FALSE(log_level_from_string("verbose").has_value());
}

TEST(JsonEscapeTest, EscapesQuotesBackslashesAndControlCharacters) {
  EXPECT_EQ(json_escape("plain"), "plain");
  EXPECT_EQ(json_escape("a\"b"), "a\\\"b");
  EXPECT_EQ(json_escape("a\\b"), "a\\\\b");
  EXPECT_EQ(json_escape("a\nb\tc\rd"), "a\\nb\\tc\\rd");
  EXPECT_EQ(json_escape("a\bb\fc"), "a\\bb\\fc");
  EXPECT_EQ(json_escape(std::string("a\x01z", 3)), "a\\u0001z");
  // UTF-8 passes through untouched.
  EXPECT_EQ(json_escape("12 \xc2\xb5s"), "12 \xc2\xb5s");
}

TEST(LoggerTest, DisabledWithoutSinks) {
  Logger lg;
  EXPECT_FALSE(lg.enabled(LogLevel::kError));
  // Logging into the void is safe and cheap.
  lg.error("unheard", {{"k", JsonValue(1)}});
}

TEST(LoggerTest, ThresholdFollowsMostVerboseSink) {
  Logger lg;
  auto sink = std::make_shared<RecordingSink>();
  lg.add_sink(sink, LogLevel::kWarn);
  EXPECT_FALSE(lg.enabled(LogLevel::kInfo));
  EXPECT_TRUE(lg.enabled(LogLevel::kWarn));

  auto verbose = std::make_shared<RecordingSink>();
  lg.add_sink(verbose, LogLevel::kDebug);
  EXPECT_TRUE(lg.enabled(LogLevel::kDebug));
  EXPECT_FALSE(lg.enabled(LogLevel::kTrace));

  lg.remove_sink(verbose);
  EXPECT_FALSE(lg.enabled(LogLevel::kDebug));
  lg.clear_sinks();
  EXPECT_FALSE(lg.enabled(LogLevel::kError));
}

TEST(LoggerTest, PerSinkMinimumLevelsFilterDispatch) {
  Logger lg;
  auto debug_sink = std::make_shared<RecordingSink>();
  auto error_sink = std::make_shared<RecordingSink>();
  lg.add_sink(debug_sink, LogLevel::kDebug);
  lg.add_sink(error_sink, LogLevel::kError);

  lg.trace("below.everyone");
  lg.info("only.debug_sink", {{"n", JsonValue(7)}});
  lg.error("both");

  ASSERT_EQ(debug_sink->events.size(), 2u);
  EXPECT_EQ(debug_sink->events[0].name, "only.debug_sink");
  EXPECT_EQ(debug_sink->events[1].name, "both");
  ASSERT_EQ(error_sink->events.size(), 1u);
  EXPECT_EQ(error_sink->events[0].name, "both");
  // Wall timestamps are monotone non-negative.
  EXPECT_GE(debug_sink->events[0].wall_s, 0.0);
  EXPECT_GE(debug_sink->events[1].wall_s, debug_sink->events[0].wall_s);
}

/// A sink whose write() re-enters the logger's registration API — the
/// pattern that deadlocked when dispatch ran under the registration lock.
class ReentrantSink final : public LogSink {
 public:
  explicit ReentrantSink(Logger* logger) : logger_(logger) {}
  void write(const LogEvent& event) override {
    names.push_back(event.name);
    if (!added_) {
      added_ = true;
      late_sink_ = std::make_shared<RecordingSink>();
      logger_->add_sink(late_sink_, LogLevel::kTrace);
    }
  }
  std::vector<std::string> names;
  std::shared_ptr<RecordingSink> late_sink_;

 private:
  Logger* logger_;
  bool added_ = false;
};

// Regression test for the lock hierarchy surfaced by the thread-safety
// annotations (DESIGN.md §14): dispatch used to run while holding the
// registration mutex, so a sink registering another sink from write()
// self-deadlocked. With dispatch_mutex_ -> mutex_ split, re-entrant
// registration must complete, and the late sink joins from the NEXT
// event (dispatch snapshots the sink list before fan-out).
TEST(LoggerTest, SinkMayRegisterSinksFromWrite) {
  Logger lg;
  auto sink = std::make_shared<ReentrantSink>(&lg);
  lg.add_sink(sink, LogLevel::kTrace);

  lg.info("first");   // triggers the add_sink from inside write()
  lg.info("second");  // first event the late sink can observe

  ASSERT_EQ(sink->names.size(), 2u);
  ASSERT_NE(sink->late_sink_, nullptr);
  ASSERT_EQ(sink->late_sink_->events.size(), 1u);
  EXPECT_EQ(sink->late_sink_->events[0].name, "second");
}

TEST(JsonlSinkTest, ThrowsWhenFileCannotBeOpened) {
  EXPECT_THROW(JsonlSink("/nonexistent-dir/log.jsonl"), std::runtime_error);
}

TEST(JsonlSinkTest, WritesOneEscapedJsonObjectPerLine) {
  const std::string path = ::testing::TempDir() + "obs_jsonl_test.jsonl";
  Logger lg;
  auto sink = std::make_shared<JsonlSink>(path);
  lg.add_sink(sink, LogLevel::kTrace);

  lg.info("optimizer.sample", {{"status", JsonValue("completed")},
                               {"error", JsonValue(0.25)},
                               {"index", JsonValue(3)}});
  lg.warn("note", {{"text", JsonValue("he said \"hi\"\nand left\\")}});
  lg.flush();

  const auto lines = read_lines(path);
  ASSERT_EQ(lines.size(), 2u);
  // Fixed envelope first, fields after, insertion-ordered.
  EXPECT_EQ(lines[0].find("{\"t\":"), 0u) << lines[0];
  EXPECT_NE(lines[0].find("\"level\":\"info\""), std::string::npos);
  EXPECT_NE(lines[0].find("\"event\":\"optimizer.sample\""),
            std::string::npos);
  EXPECT_NE(lines[0].find("\"status\":\"completed\""), std::string::npos);
  EXPECT_NE(lines[0].find("\"error\":0.25"), std::string::npos);
  EXPECT_NE(lines[0].find("\"index\":3"), std::string::npos);
  EXPECT_EQ(lines[0].back(), '}');
  // Quotes, newline, and backslash in a field value stay on one line,
  // escaped.
  EXPECT_NE(lines[1].find("\"text\":\"he said \\\"hi\\\"\\nand left\\\\\""),
            std::string::npos)
      << lines[1];
}

TEST(JsonlSinkTest, TruncatesOnOpen) {
  const std::string path = ::testing::TempDir() + "obs_jsonl_trunc.jsonl";
  {
    Logger lg;
    lg.add_sink(std::make_shared<JsonlSink>(path), LogLevel::kTrace);
    lg.info("first");
    lg.flush();
  }
  {
    Logger lg;
    lg.add_sink(std::make_shared<JsonlSink>(path), LogLevel::kTrace);
    lg.info("second");
    lg.flush();
  }
  const auto lines = read_lines(path);
  ASSERT_EQ(lines.size(), 1u);
  EXPECT_NE(lines[0].find("\"event\":\"second\""), std::string::npos);
}

TEST(StderrSinkTest, PrettyPrintsAndSkipsProgressEvents) {
  std::ostringstream os;
  Logger lg;
  lg.add_sink(std::make_shared<StderrSink>(&os), LogLevel::kTrace);

  lg.info("optimizer.progress", {{"evals", JsonValue(5)}});  // filtered out
  lg.info("bo.refit", {{"n", JsonValue(12)},
                       {"kernel", JsonValue("matern52")},
                       {"note", JsonValue("two words")}});

  const std::string out = os.str();
  EXPECT_EQ(out.find("optimizer.progress"), std::string::npos) << out;
  EXPECT_NE(out.find("bo.refit"), std::string::npos) << out;
  EXPECT_NE(out.find("n=12"), std::string::npos) << out;
  // Bare strings print unquoted unless they contain spaces.
  EXPECT_NE(out.find("kernel=matern52"), std::string::npos) << out;
  EXPECT_NE(out.find("note=\"two words\""), std::string::npos) << out;
  EXPECT_NE(out.find("info"), std::string::npos) << out;
}

TEST(StderrSinkTest, CanOptInToProgressEvents) {
  std::ostringstream os;
  Logger lg;
  lg.add_sink(
      std::make_shared<StderrSink>(&os, /*show_progress_events=*/true),
      LogLevel::kTrace);
  lg.info("optimizer.progress", {{"evals", JsonValue(5)}});
  EXPECT_NE(os.str().find("optimizer.progress"), std::string::npos);
}

}  // namespace
}  // namespace hp::obs
