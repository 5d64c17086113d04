// Seeded differential for StreamChecker's fleet paths: one stream of SMEV
// frames, NDJSON chunks, deferred ingest_event() events and rejected frames
// is fed to a 1-shard checker (which checks frames in place), to 2-, 3- and
// 7-shard checkers (which route events to shard lists), and to a plain
// std::unordered_map reference model written from the documented
// semantics.  Over 100k distinct device names, so the intern table grows
// several times; frames repeat names in their name tables.  Every
// StreamStats field, every Violation field and the three fleet counts must
// agree.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <random>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "fsm/ops.hpp"
#include "fsm/table.hpp"
#include "monitor/stream.hpp"
#include "paper_sources.hpp"
#include "shelley/automata.hpp"
#include "shelley/spec.hpp"
#include "upy/parser.hpp"

namespace shelley::monitor {
namespace {

using Letter = fsm::CompiledDfa::Letter;

/// Per-device latching monitors in a std::unordered_map, fed one event at
/// a time in stream order.
class ReferenceFleet {
 public:
  ReferenceFleet(const fsm::CompiledDfa& table,
                 const std::unordered_map<std::string, SourceLoc>& locs,
                 std::size_t max_violations)
      : table_(&table), locs_(&locs), max_violations_(max_violations) {}

  /// A device named by an accepted frame's table or a decoded NDJSON line.
  void declare(const std::string& device) {
    devices_.try_emplace(device, Device{table_->initial(), false, 0});
  }

  /// Letters that keep `device` live next; empty once it violated.
  std::vector<Letter> allowed(const std::string& device) const {
    const auto it = devices_.find(device);
    const std::uint32_t state =
        it == devices_.end() ? table_->initial() : it->second.state;
    std::vector<Letter> out;
    if (it != devices_.end() && it->second.violated) return out;
    for (Letter letter = 0; letter < table_->letter_count(); ++letter) {
      if (table_->live(table_->step(state, letter))) out.push_back(letter);
    }
    return out;
  }

  void feed(const std::string& name, const std::string& op) {
    declare(name);
    Device& device = devices_.at(name);
    const std::uint64_t index = stats_.events++;
    const std::uint64_t device_index = device.events++;
    if (device.violated) {
      ++stats_.violations;
      return;
    }
    const std::uint32_t prev = device.state;
    const Letter letter = table_->letter_of(op);
    if (letter != fsm::CompiledDfa::kNoLetter) {
      device.state = table_->step(prev, letter);
      if (table_->live(device.state)) {
        ++stats_.ok;
        return;
      }
    }
    device.violated = true;
    ++stats_.violations;
    if (violations_.size() >= max_violations_) {
      ++stats_.violations_dropped;
      return;
    }
    Violation report;
    report.event_index = index;
    report.device_event_index = device_index;
    report.device = name;
    report.operation = op;
    const auto loc = locs_->find(op);
    if (loc != locs_->end()) report.loc = loc->second;
    for (Letter l = 0; l < table_->letter_count(); ++l) {
      if (table_->live(table_->step(prev, l))) {
        report.allowed.push_back(table_->event_name(l));
      }
    }
    violations_.push_back(std::move(report));
  }

  void malformed() { ++stats_.malformed; }

  [[nodiscard]] StreamStats stats() const {
    StreamStats out = stats_;
    out.devices = devices_.size();
    return out;
  }
  [[nodiscard]] const std::vector<Violation>& violations() const {
    return violations_;
  }
  [[nodiscard]] std::uint64_t completed() const {
    return count([&](const Device& d) {
      return !d.violated && table_->accepting(d.state);
    });
  }
  [[nodiscard]] std::uint64_t violated() const {
    return count([](const Device& d) { return d.violated; });
  }
  [[nodiscard]] std::uint64_t incomplete() const {
    return count([&](const Device& d) {
      return !d.violated && !table_->accepting(d.state);
    });
  }

 private:
  struct Device {
    std::uint32_t state = 0;
    bool violated = false;
    std::uint64_t events = 0;
  };

  template <typename Pred>
  std::uint64_t count(Pred pred) const {
    std::uint64_t n = 0;
    for (const auto& [name, device] : devices_) n += pred(device) ? 1 : 0;
    return n;
  }

  const fsm::CompiledDfa* table_;
  const std::unordered_map<std::string, SourceLoc>* locs_;
  std::size_t max_violations_;
  std::unordered_map<std::string, Device> devices_;
  StreamStats stats_;
  std::vector<Violation> violations_;
};

void expect_same_stats(const StreamStats& got, const StreamStats& want,
                       const std::string& where) {
  EXPECT_EQ(got.events, want.events) << where;
  EXPECT_EQ(got.ok, want.ok) << where;
  EXPECT_EQ(got.violations, want.violations) << where;
  EXPECT_EQ(got.malformed, want.malformed) << where;
  EXPECT_EQ(got.devices, want.devices) << where;
  EXPECT_EQ(got.violations_dropped, want.violations_dropped) << where;
}

class FleetDifferentialTest : public ::testing::Test {
 protected:
  void SetUp() override {
    const upy::Module module = upy::parse_module(examples::kValveSource);
    DiagnosticEngine diagnostics;
    spec_ = core::extract_class_spec(module.classes.at(0), diagnostics);
    const fsm::Dfa dfa =
        fsm::minimize(fsm::determinize(core::usage_nfa(spec_, symbols_)));
    table_ = fsm::CompiledDfa::compile(dfa, symbols_);
    for (const core::Operation& op : spec_.operations) {
      locations_.emplace(op.name, op.loc);
    }
  }

  core::ClassSpec spec_;
  SymbolTable symbols_;
  fsm::CompiledDfa table_;
  std::unordered_map<std::string, SourceLoc> locations_;
};

/// Short names stay in std::string's inline buffer; long ones do not.
std::string device_name(std::size_t i) {
  return i % 3 == 0 ? "fleet/region-" + std::to_string(i % 17) +
                          "/sensor-" + std::to_string(i)
                    : "d" + std::to_string(i);
}

TEST_F(FleetDifferentialTest, InPlaceShardedAndReferenceAgree) {
  constexpr std::size_t kMaxViolations = 400;
  constexpr std::size_t kSteps = 60;
  constexpr std::size_t kNewPerStep = 2500;  // per accepted frame
  const std::vector<std::string> ops = {"test", "open", "close", "clean",
                                        "explode"};

  std::vector<std::unique_ptr<StreamChecker>> checkers;
  for (const std::size_t shards : {1u, 2u, 3u, 7u}) {
    StreamChecker::Options options;
    options.shards = shards;
    options.max_violations = kMaxViolations;
    checkers.push_back(std::make_unique<StreamChecker>(table_, options));
    checkers.back()->set_source_locations(locations_);
  }
  ReferenceFleet reference(table_, locations_, kMaxViolations);

  std::mt19937_64 rng(20261020);
  std::size_t introduced = 0;  // device_name(i) for i < introduced exist
  const auto pick_seen = [&] {
    // Skewed towards recently introduced names, like an active fleet.
    const std::size_t back = rng() % std::min<std::size_t>(introduced, 6000);
    return rng() % 4 == 0 ? rng() % introduced : introduced - 1 - back;
  };
  // One event for `device`: mostly a legal next operation, sometimes an
  // illegal or unknown one.  Returns the op's name.
  const auto next_op = [&](const std::string& device) -> const std::string& {
    const std::vector<Letter> legal = reference.allowed(device);
    if (!legal.empty() && rng() % 50 != 0) {
      const Letter letter = legal[rng() % legal.size()];
      for (const std::string& op : ops) {
        if (table_.letter_of(op) == letter) return op;
      }
    }
    return ops[rng() % ops.size()];
  };
  // A frame over names [fresh.., seen.., repeats..] and shuffled ops.
  const auto make_frame = [&](bool reject) {
    std::vector<std::string> names;
    for (std::size_t i = 0; i < kNewPerStep; ++i) {
      names.push_back(device_name(introduced + i));
    }
    if (introduced != 0) {
      for (int i = 0; i < 1500; ++i) names.push_back(device_name(pick_seen()));
    }
    for (int i = 0; i < 100; ++i) {  // a name twice in one frame's table
      names.push_back(names[rng() % names.size()]);
    }
    std::vector<std::string> frame_ops = ops;
    std::shuffle(frame_ops.begin(), frame_ops.end(), rng);
    frame_ops.push_back(frame_ops[rng() % frame_ops.size()]);
    std::vector<std::pair<std::uint32_t, std::uint32_t>> events;
    if (!reject) {
      introduced += kNewPerStep;
      for (const std::string& name : names) reference.declare(name);
    }
    const std::size_t count = 3000 + rng() % 6000;
    for (std::size_t e = 0; e < count; ++e) {
      const auto device = static_cast<std::uint32_t>(rng() % names.size());
      const std::string& op =
          reject ? ops[rng() % ops.size()] : next_op(names[device]);
      // The duplicated op name is referenced through both of its indices.
      std::vector<std::uint32_t> op_indices;
      for (std::uint32_t j = 0; j < frame_ops.size(); ++j) {
        if (frame_ops[j] == op) op_indices.push_back(j);
      }
      events.emplace_back(device, op_indices[rng() % op_indices.size()]);
      if (!reject) reference.feed(names[device], op);
    }
    if (reject) {
      // One record past the device table, somewhere in the frame.
      events[rng() % events.size()].first =
          static_cast<std::uint32_t>(names.size());
    }
    return encode_binary_frame(names, frame_ops, events).substr(12);
  };

  for (std::size_t step = 0; step < kSteps; ++step) {
    const std::string where = "step " + std::to_string(step);
    const std::size_t kind = step < 2 ? 0 : rng() % 6;
    if (kind <= 2) {
      const std::string body = make_frame(false);
      for (auto& checker : checkers) checker->ingest_binary(body);
    } else if (kind == 3) {
      // Rejected: new names and an out-of-range record.  Nothing of it
      // may show, so the reference sees nothing.
      const std::string body = make_frame(true);
      for (auto& checker : checkers) {
        EXPECT_THROW(checker->ingest_binary(body),
                     support::BinaryFormatError)
            << where;
      }
    } else if (kind == 4) {
      // Deferred events first: the 1-shard checker must fall back to
      // routing, and the frame's events follow the pending ones.
      for (int i = 0; i < 200; ++i) {
        const std::string device =
            i % 10 == 0 ? "late-" + std::to_string(step) + "-" +
                              std::to_string(i)
                        : device_name(pick_seen());
        const std::string& op = next_op(device);
        for (auto& checker : checkers) checker->ingest_event(device, op);
        reference.feed(device, op);
      }
      const std::string body = make_frame(false);
      for (auto& checker : checkers) checker->ingest_binary(body);
    } else {
      std::string chunk;
      for (int i = 0; i < 800; ++i) {
        if (i % 97 == 0) {
          chunk += i % 2 == 0 ? "not json\n" : "{\"device\":\"x\"}\n";
          reference.malformed();
          continue;
        }
        const std::string device = device_name(pick_seen());
        const std::string& op = next_op(device);
        chunk += "{\"device\":\"" + device + "\",\"op\":\"" + op + "\"}\n";
        reference.feed(device, op);
      }
      for (auto& checker : checkers) {
        EXPECT_EQ(checker->ingest_ndjson(chunk), chunk.size()) << where;
      }
    }
    for (auto& checker : checkers) {
      expect_same_stats(checker->stats(), reference.stats(),
                        where + " shards " +
                            std::to_string(checker->shard_count()));
    }
  }

  ASSERT_GE(reference.stats().devices, 100000u);
  ASSERT_GT(reference.stats().violations_dropped, 0u);  // the cap is hit
  for (auto& checker : checkers) {
    const std::string where =
        "shards " + std::to_string(checker->shard_count());
    EXPECT_EQ(checker->completed_devices(), reference.completed()) << where;
    EXPECT_EQ(checker->violated_devices(), reference.violated()) << where;
    EXPECT_EQ(checker->incomplete_devices(), reference.incomplete()) << where;
    const std::vector<Violation>& got = checker->violations();
    const std::vector<Violation>& want = reference.violations();
    ASSERT_EQ(got.size(), want.size()) << where;
    for (std::size_t i = 0; i < want.size(); ++i) {
      EXPECT_EQ(got[i].event_index, want[i].event_index) << where;
      EXPECT_EQ(got[i].device_event_index, want[i].device_event_index)
          << where;
      EXPECT_EQ(got[i].device, want[i].device) << where;
      EXPECT_EQ(got[i].operation, want[i].operation) << where;
      EXPECT_EQ(got[i].loc, want[i].loc) << where;
      EXPECT_EQ(got[i].allowed, want[i].allowed) << where;
    }
  }
}

}  // namespace
}  // namespace shelley::monitor
