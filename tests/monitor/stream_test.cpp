// StreamChecker (monitor/stream.hpp): NDJSON and SMEV ingestion, partial
// chunk carrying, shard-count determinism, violation-report contents,
// latching, the deferred ingest_event/flush path, report capping with
// dropped accounting, and the adversarial binary surface (bad magic,
// truncation, out-of-range records check nothing).
#include "monitor/stream.hpp"

#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "fsm/ops.hpp"
#include "fsm/table.hpp"
#include "paper_sources.hpp"
#include "shelley/automata.hpp"
#include "shelley/spec.hpp"
#include "upy/parser.hpp"

namespace shelley::monitor {
namespace {

class StreamTest : public ::testing::Test {
 protected:
  void SetUp() override {
    const upy::Module module = upy::parse_module(examples::kValveSource);
    DiagnosticEngine diagnostics;
    spec_ = core::extract_class_spec(module.classes.at(0), diagnostics);
    const fsm::Dfa dfa =
        fsm::minimize(fsm::determinize(core::usage_nfa(spec_, symbols_)));
    table_ = fsm::CompiledDfa::compile(dfa, symbols_);
  }

  StreamChecker make_checker(std::size_t shards = 1,
                             std::size_t max_violations = 1024) {
    StreamChecker::Options options;
    options.shards = shards;
    options.max_violations = max_violations;
    StreamChecker checker(table_, options);
    std::unordered_map<std::string, SourceLoc> locations;
    for (const core::Operation& op : spec_.operations) {
      locations.emplace(op.name, op.loc);
    }
    checker.set_source_locations(std::move(locations));
    return checker;
  }

  core::ClassSpec spec_;
  SymbolTable symbols_;
  fsm::CompiledDfa table_;
};

std::string line(const char* device, const char* op) {
  return std::string("{\"device\":\"") + device + "\",\"op\":\"" + op +
         "\"}\n";
}

TEST_F(StreamTest, NdjsonCleanStream) {
  StreamChecker checker = make_checker();
  const std::string chunk = line("v1", "test") + line("v1", "open") +
                            line("v2", "test") + line("v1", "close") +
                            line("v2", "clean");
  EXPECT_EQ(checker.ingest_ndjson(chunk), chunk.size());
  EXPECT_EQ(checker.stats().events, 5u);
  EXPECT_EQ(checker.stats().ok, 5u);
  EXPECT_EQ(checker.stats().violations, 0u);
  EXPECT_EQ(checker.stats().devices, 2u);
  EXPECT_EQ(checker.completed_devices(), 2u);
  EXPECT_TRUE(checker.violations().empty());
}

TEST_F(StreamTest, PartialTrailingLineIsNotConsumed) {
  StreamChecker checker = make_checker();
  const std::string full = line("v1", "test");
  const std::string chunk = full + "{\"device\":\"v1\",\"op\":\"op";
  EXPECT_EQ(checker.ingest_ndjson(chunk), full.size());
  EXPECT_EQ(checker.stats().events, 1u);
}

TEST_F(StreamTest, ViolationReportCarriesDiagnostics) {
  StreamChecker checker = make_checker();
  checker.ingest_ndjson(line("v1", "test") + line("v1", "close") +
                        line("v1", "test"));
  EXPECT_EQ(checker.stats().violations, 2u);  // latched repeat counts
  ASSERT_EQ(checker.violations().size(), 1u);  // but reports once
  const Violation& report = checker.violations()[0];
  EXPECT_EQ(report.event_index, 1u);
  EXPECT_EQ(report.device_event_index, 1u);
  EXPECT_EQ(report.device, "v1");
  EXPECT_EQ(report.operation, "close");
  EXPECT_TRUE(report.loc.known());  // close is a declared operation
  EXPECT_EQ(report.allowed,
            (std::vector<std::string>{"open", "clean"}));
  EXPECT_EQ(checker.violated_devices(), 1u);
  EXPECT_EQ(checker.completed_devices(), 0u);
}

TEST_F(StreamTest, UnknownOperationViolatesWithoutMoving) {
  StreamChecker checker = make_checker();
  checker.ingest_ndjson(line("v1", "explode"));
  ASSERT_EQ(checker.violations().size(), 1u);
  const Violation& report = checker.violations()[0];
  EXPECT_EQ(report.operation, "explode");
  EXPECT_FALSE(report.loc.known());  // not a declared operation
  // The allowed set is that of the *unmoved* state: still just "test".
  EXPECT_EQ(report.allowed, (std::vector<std::string>{"test"}));
}

TEST_F(StreamTest, MalformedLinesAreCountedNotFatal) {
  StreamChecker checker = make_checker();
  const std::string chunk = line("v1", "test") + "not json\n" +
                            "{\"device\":\"v1\"}\n" +
                            "{\"device\":3,\"op\":\"test\"}\n" + "\n" +
                            line("v1", "open");
  EXPECT_EQ(checker.ingest_ndjson(chunk), chunk.size());
  EXPECT_EQ(checker.stats().events, 2u);
  EXPECT_EQ(checker.stats().malformed, 3u);  // blank line is skipped silently
  EXPECT_EQ(checker.stats().ok, 2u);
}

TEST_F(StreamTest, IngestEventDefersUntilFlush) {
  StreamChecker checker = make_checker();
  checker.ingest_event("v1", "test");
  checker.ingest_event("v1", "open");
  EXPECT_EQ(checker.stats().events, 0u);  // batched, not yet checked
  checker.flush();
  EXPECT_EQ(checker.stats().events, 2u);
  EXPECT_EQ(checker.stats().ok, 2u);
}

TEST_F(StreamTest, BinaryFrameMatchesNdjson) {
  const std::vector<std::string> devices = {"v1", "v2"};
  const std::vector<std::string> ops = {"test", "open", "close", "clean"};
  const std::vector<std::pair<std::uint32_t, std::uint32_t>> events = {
      {0, 0}, {0, 1}, {1, 0}, {0, 2}, {1, 2}};  // v2 close: violation
  const std::string frame = encode_binary_frame(devices, ops, events);

  StreamChecker binary = make_checker();
  EXPECT_EQ(ingest_binary_stream(binary, frame), frame.size());

  StreamChecker ndjson = make_checker();
  ndjson.ingest_ndjson(line("v1", "test") + line("v1", "open") +
                       line("v2", "test") + line("v1", "close") +
                       line("v2", "close"));

  EXPECT_EQ(binary.stats().events, ndjson.stats().events);
  EXPECT_EQ(binary.stats().ok, ndjson.stats().ok);
  EXPECT_EQ(binary.stats().violations, ndjson.stats().violations);
  ASSERT_EQ(binary.violations().size(), ndjson.violations().size());
  for (std::size_t i = 0; i < binary.violations().size(); ++i) {
    EXPECT_EQ(binary.violations()[i].event_index,
              ndjson.violations()[i].event_index);
    EXPECT_EQ(binary.violations()[i].device, ndjson.violations()[i].device);
    EXPECT_EQ(binary.violations()[i].operation,
              ndjson.violations()[i].operation);
    EXPECT_EQ(binary.violations()[i].allowed, ndjson.violations()[i].allowed);
  }
}

TEST_F(StreamTest, PartialBinaryFrameIsNotConsumed) {
  const std::string frame = encode_binary_frame(
      {"v1"}, {"test"}, {{0, 0}});
  StreamChecker checker = make_checker();
  // Header only: nothing consumed.
  EXPECT_EQ(ingest_binary_stream(checker, frame.substr(0, 12)), 0u);
  // Header + half the body: still nothing.
  EXPECT_EQ(ingest_binary_stream(checker, frame.substr(0, frame.size() - 1)),
            0u);
  EXPECT_EQ(checker.stats().events, 0u);
  // Whole frame plus the prefix of a second: exactly one frame consumed.
  const std::string two = frame + frame.substr(0, 7);
  EXPECT_EQ(ingest_binary_stream(checker, two), frame.size());
  EXPECT_EQ(checker.stats().events, 1u);
}

TEST_F(StreamTest, BadMagicThrows) {
  std::string frame = encode_binary_frame({"v1"}, {"test"}, {{0, 0}});
  frame[0] = 'X';
  StreamChecker checker = make_checker();
  EXPECT_THROW((void)ingest_binary_stream(checker, frame),
               support::BinaryFormatError);
}

TEST_F(StreamTest, OutOfRangeRecordChecksNothing) {
  // An event referencing a device index past the frame's table must reject
  // the whole frame atomically: no event of the frame is checked, and no
  // name the frame introduces becomes a device.
  StreamChecker checker = make_checker();
  checker.ingest_ndjson(line("v0", "test") + line("v0", "open") +
                        line("v0", "close"));
  const StreamStats before = checker.stats();
  const std::uint64_t completed = checker.completed_devices();
  const std::uint64_t incomplete = checker.incomplete_devices();
  ASSERT_EQ(before.devices, 1u);
  ASSERT_EQ(completed, 1u);

  std::string frame = encode_binary_frame(
      {"v1", "phantom"}, {"test"}, {{0, 0}, {1, 0}, {2, 0}});
  EXPECT_THROW(checker.ingest_binary(frame.substr(12)),
               support::BinaryFormatError);
  EXPECT_EQ(checker.stats().events, before.events);
  EXPECT_EQ(checker.stats().ok, before.ok);
  EXPECT_EQ(checker.stats().devices, before.devices);
  EXPECT_EQ(checker.completed_devices(), completed);
  EXPECT_EQ(checker.incomplete_devices(), incomplete);
  // A later batch must not surface the rejected frame's names either.
  checker.ingest_ndjson(line("v1", "test"));
  EXPECT_EQ(checker.stats().events, before.events + 1);
  EXPECT_EQ(checker.stats().devices, 2u);  // v0 and v1, never "phantom"
  EXPECT_EQ(checker.completed_devices(), completed);
  EXPECT_EQ(checker.incomplete_devices(), incomplete + 1);
}

TEST_F(StreamTest, TruncatedBodyThrows) {
  const std::string frame = encode_binary_frame({"v1"}, {"test"}, {{0, 0}});
  const std::string body = frame.substr(12);
  StreamChecker checker = make_checker();
  for (std::size_t length = 0; length < body.size(); ++length) {
    EXPECT_THROW(checker.ingest_binary(body.substr(0, length)),
                 support::BinaryFormatError);
  }
}

TEST_F(StreamTest, ShardCountDoesNotChangeResults) {
  // A stream over many devices with interleaved violations: every shard
  // count must agree on counters, per-device verdicts, and the exact
  // report sequence.
  std::string chunk;
  for (int i = 0; i < 40; ++i) {
    const std::string device = "dev" + std::to_string(i % 10);
    switch (i % 4) {
      case 0: chunk += line(device.c_str(), "test"); break;
      case 1: chunk += line(device.c_str(), "open"); break;
      case 2: chunk += line(device.c_str(), "close"); break;
      case 3: chunk += line(device.c_str(), i % 8 == 3 ? "close" : "test");
    }
  }
  StreamChecker one = make_checker(1);
  one.ingest_ndjson(chunk);
  for (const std::size_t shards : {2u, 3u, 7u, 16u}) {
    StreamChecker many = make_checker(shards);
    many.ingest_ndjson(chunk);
    EXPECT_EQ(many.shard_count(), shards);
    EXPECT_EQ(many.stats().events, one.stats().events);
    EXPECT_EQ(many.stats().ok, one.stats().ok);
    EXPECT_EQ(many.stats().violations, one.stats().violations);
    EXPECT_EQ(many.completed_devices(), one.completed_devices());
    EXPECT_EQ(many.violated_devices(), one.violated_devices());
    EXPECT_EQ(many.incomplete_devices(), one.incomplete_devices());
    ASSERT_EQ(many.violations().size(), one.violations().size());
    for (std::size_t i = 0; i < one.violations().size(); ++i) {
      EXPECT_EQ(many.violations()[i].event_index,
                one.violations()[i].event_index);
      EXPECT_EQ(many.violations()[i].device, one.violations()[i].device);
      EXPECT_EQ(many.violations()[i].operation,
                one.violations()[i].operation);
    }
  }
}

TEST_F(StreamTest, MaxViolationsCapsReportsAndCountsDrops) {
  // 8 devices all violate immediately; only the first 3 reports (in global
  // event order) are retained, whatever the shard count.
  std::string chunk;
  for (int i = 0; i < 8; ++i) {
    chunk += line(("d" + std::to_string(i)).c_str(), "close");
  }
  for (const std::size_t shards : {1u, 5u}) {
    StreamChecker checker = make_checker(shards, 3);
    checker.ingest_ndjson(chunk);
    EXPECT_EQ(checker.stats().violations, 8u);
    EXPECT_EQ(checker.stats().violations_dropped, 5u);
    ASSERT_EQ(checker.violations().size(), 3u);
    EXPECT_EQ(checker.violations()[0].device, "d0");
    EXPECT_EQ(checker.violations()[1].device, "d1");
    EXPECT_EQ(checker.violations()[2].device, "d2");
  }
}

TEST_F(StreamTest, DevicesPersistAcrossBatches) {
  StreamChecker checker = make_checker(4);
  checker.ingest_ndjson(line("v1", "test"));
  checker.ingest_ndjson(line("v1", "open"));
  checker.ingest_ndjson(line("v1", "close"));
  EXPECT_EQ(checker.stats().events, 3u);
  EXPECT_EQ(checker.stats().ok, 3u);
  EXPECT_EQ(checker.completed_devices(), 1u);
  checker.ingest_ndjson(line("v1", "close"));  // close twice: violation
  EXPECT_EQ(checker.stats().violations, 1u);
}

}  // namespace
}  // namespace shelley::monitor
