// StreamChecker's trace spans: monitor.decode, monitor.intern and
// monitor.check open once per frame or chunk (never per event), in that
// order, as children of the caller's span, on the 1-shard in-place path
// and the sharded path alike; a rejected frame leaves only its decode
// span.  The `obs` label runs this under SHELLEY_TRACE=1; without it
// tracing is off and the checker must record nothing.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <utility>
#include <vector>

#include "fsm/dfa.hpp"
#include "fsm/table.hpp"
#include "monitor/stream.hpp"
#include "support/json.hpp"
#include "support/trace.hpp"

namespace shelley::monitor {
namespace {

namespace trace = support::trace;

struct ExportedSpan {
  std::string name;
  double ts = 0;
  std::uint64_t parent = 0;
};

/// The monitor.* spans of the buffered trace, in start order.
std::vector<ExportedSpan> monitor_spans() {
  std::vector<ExportedSpan> out;
  const JsonValue doc = parse_json(trace::to_chrome_json());
  for (const JsonValue& event : doc.at("traceEvents").as_array()) {
    const std::string& name = event.at("name").as_string();
    if (name.rfind("monitor.", 0) != 0) continue;
    ExportedSpan span;
    span.name = name;
    span.ts = event.at("ts").as_number();
    if (const JsonValue* parent = event.at("args").find("parent")) {
      span.parent = static_cast<std::uint64_t>(parent->as_number());
    }
    out.push_back(std::move(span));
  }
  std::stable_sort(out.begin(), out.end(),
                   [](const ExportedSpan& a, const ExportedSpan& b) {
                     return a.ts < b.ts;
                   });
  return out;
}

std::vector<std::string> names_of(const std::vector<ExportedSpan>& spans) {
  std::vector<std::string> out;
  for (const ExportedSpan& span : spans) out.push_back(span.name);
  return out;
}

class MonitorTraceTest : public ::testing::TestWithParam<std::size_t> {
 protected:
  void SetUp() override {
    SymbolTable symbols;
    fsm::Dfa dfa(2, {symbols.intern("start"), symbols.intern("stop")});
    dfa.set_transition(0, 0, 1);
    dfa.set_transition(1, 1, 0);
    dfa.set_accepting(0, true);
    table_ = fsm::CompiledDfa::compile(dfa, symbols);
    trace::reset();
  }
  void TearDown() override { trace::reset(); }

  /// A frame of `events` events over 64 devices.
  static std::string frame_body(std::size_t events) {
    std::vector<std::string> devices;
    for (int d = 0; d < 64; ++d) devices.push_back("d" + std::to_string(d));
    std::vector<std::pair<std::uint32_t, std::uint32_t>> cells;
    for (std::size_t e = 0; e < events; ++e) {
      cells.emplace_back(static_cast<std::uint32_t>(e % 64),
                         static_cast<std::uint32_t>((e / 64) % 2));
    }
    return encode_binary_frame(devices, {"start", "stop"}, cells).substr(12);
  }

  fsm::CompiledDfa table_;
};

TEST_P(MonitorTraceTest, OneSpanPerStagePerFrame) {
  StreamChecker::Options options;
  options.shards = GetParam();
  StreamChecker checker(table_, options);
  const std::string body = frame_body(4096);
  std::string rejected = frame_body(16);
  rejected[rejected.size() - 8] = 99;  // a device index past the table

  std::uint64_t root = 0;
  {
    trace::Span span("test.ingest");
    root = span.span_id();
    checker.ingest_binary(body);
    checker.ingest_binary(body);
    EXPECT_THROW(checker.ingest_binary(rejected), support::BinaryFormatError);
    checker.ingest_ndjson("{\"device\":\"d0\",\"op\":\"start\"}\n");
  }
  EXPECT_EQ(checker.stats().events, 2 * 4096u + 1);

  if (!trace::enabled()) {
    EXPECT_EQ(trace::event_count(), 0u);  // disabled spans record nothing
    return;
  }
  const std::vector<ExportedSpan> spans = monitor_spans();
  EXPECT_EQ(names_of(spans),
            (std::vector<std::string>{
                "monitor.decode", "monitor.intern", "monitor.check",
                "monitor.decode", "monitor.intern", "monitor.check",
                "monitor.decode",  // the rejected frame
                "monitor.decode", "monitor.check"}));  // the NDJSON chunk
  for (const ExportedSpan& span : spans) {
    EXPECT_EQ(span.parent, root) << span.name;
  }
}

INSTANTIATE_TEST_SUITE_P(Shards, MonitorTraceTest, ::testing::Values(1, 3));

}  // namespace
}  // namespace shelley::monitor
