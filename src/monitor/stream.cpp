#include "monitor/stream.hpp"

#include <algorithm>
#include <bit>
#include <cstring>
#include <utility>

#include "support/json.hpp"
#include "support/thread_pool.hpp"
#include "support/trace.hpp"

namespace shelley::monitor {

namespace {

constexpr char kFrameMagic[4] = {'S', 'M', 'E', 'V'};
constexpr std::uint32_t kFrameVersion = 1;

// Plausibility caps: a corrupted count must fail fast, not allocate.
constexpr std::uint64_t kMaxFrameNames = 1u << 22;
constexpr std::uint64_t kMaxFrameEvents = 1ull << 28;
constexpr std::uint64_t kMaxFrameBytes = 1ull << 32;

// Prefetch distances, in names or events: a frame's table probe, the
// device name its home slot points at, and a device's state in the
// in-place check.
constexpr std::size_t kSlotAhead = 16;
constexpr std::size_t kNameAhead = 8;
constexpr std::size_t kStateAhead = 16;

std::uint32_t read_u32_le(const char* at) {
  std::uint32_t value = 0;
  std::memcpy(&value, at, 4);
  if constexpr (std::endian::native != std::endian::little) {
    value = __builtin_bswap32(value);
  }
  return value;
}

void prefetch(const void* at) { __builtin_prefetch(at); }

/// The intern table's 32-bit tag of a name hash; it also picks the home
/// slot, so the table grows without rehashing names.
std::uint64_t hash_tag(std::size_t hash) {
  const auto wide = static_cast<std::uint64_t>(hash);
  return static_cast<std::uint32_t>(wide ^ (wide >> 32));
}

/// Reads `count` length-prefixed names as views into the reader's buffer.
void read_names(support::BinaryReader& reader, std::uint64_t count,
                std::vector<std::string_view>& out, const char* what) {
  if (count > kMaxFrameNames) {
    throw support::BinaryFormatError(std::string("event frame ") + what +
                                     " count implausible");
  }
  out.clear();
  for (std::uint64_t i = 0; i < count; ++i) {
    out.push_back(reader.raw(static_cast<std::size_t>(reader.u64())));
  }
}

}  // namespace

StreamChecker::StreamChecker(fsm::CompiledDfa table)
    : StreamChecker(std::move(table), Options{}) {}

StreamChecker::StreamChecker(fsm::CompiledDfa table, Options options)
    : table_(std::move(table)), options_(options) {
  if (options_.shards == 0) options_.shards = 1;
  shards_.resize(options_.shards);
}

void StreamChecker::set_source_locations(
    std::unordered_map<std::string, SourceLoc> locs) {
  locations_ = std::move(locs);
}

void StreamChecker::reserve_devices(std::size_t extra) {
  const std::size_t needed = 2 * (devices_.size() + extra);
  if (needed <= device_table_.size()) return;
  std::size_t size = std::max<std::size_t>(device_table_.size(), 16);
  while (size < needed) size *= 2;
  std::vector<std::uint64_t> grown(size, 0);
  const std::size_t mask = size - 1;
  for (const std::uint64_t entry : device_table_) {
    if (entry == 0) continue;
    std::size_t at = (entry >> 32) & mask;
    while (grown[at] != 0) at = (at + 1) & mask;
    grown[at] = entry;
  }
  device_table_ = std::move(grown);
}

std::uint32_t StreamChecker::intern_hashed(std::string_view name,
                                           std::size_t hash) {
  const std::uint64_t tag = hash_tag(hash);
  const std::size_t mask = device_table_.size() - 1;
  std::size_t at = tag & mask;
  for (std::uint64_t entry; (entry = device_table_[at]) != 0;
       at = (at + 1) & mask) {
    if ((entry >> 32) != tag) continue;
    const auto id = static_cast<std::uint32_t>(entry) - 1;
    if (device_names_[id] == name) return id;
  }
  const auto id = static_cast<std::uint32_t>(devices_.size());
  device_table_[at] = (tag << 32) | (id + 1ull);
  DeviceState state;
  state.state = table_.initial();
  devices_.push_back(state);
  device_names_.emplace_back(name);
  device_shards_.push_back(static_cast<std::uint32_t>(hash % shards_.size()));
  return id;
}

std::uint32_t StreamChecker::intern_device(std::string_view name) {
  reserve_devices(1);
  return intern_hashed(name, std::hash<std::string_view>{}(name));
}

void StreamChecker::intern_frame_devices() {
  const std::size_t count = frame_names_.size();
  frame_hashes_.resize(count);
  for (std::size_t i = 0; i < count; ++i) {
    frame_hashes_[i] = std::hash<std::string_view>{}(frame_names_[i]);
  }
  reserve_devices(count);
  frame_devices_.resize(count);
  const std::size_t mask = device_table_.size() - 1;
  for (std::size_t i = 0; i < count; ++i) {
    if (i + kSlotAhead < count) {
      prefetch(&device_table_[hash_tag(frame_hashes_[i + kSlotAhead]) & mask]);
    }
    if (i + kNameAhead < count) {
      const std::uint64_t tag = hash_tag(frame_hashes_[i + kNameAhead]);
      const std::uint64_t home = device_table_[tag & mask];
      if (home != 0 && (home >> 32) == tag) {
        prefetch(&device_names_[static_cast<std::uint32_t>(home) - 1]);
      }
    }
    frame_devices_[i] = intern_hashed(frame_names_[i], frame_hashes_[i]);
  }
}

std::uint32_t StreamChecker::intern_batch_op(std::string_view name) {
  const auto it = batch_op_index_.find(std::string(name));
  if (it != batch_op_index_.end()) return it->second;
  const auto slot = static_cast<std::uint32_t>(batch_ops_.size());
  BatchOp op;
  op.letter = table_.letter_of(name);
  op.name = std::string(name);
  batch_ops_.push_back(std::move(op));
  batch_op_index_.emplace(batch_ops_.back().name, slot);
  return slot;
}

void StreamChecker::route(std::uint32_t device, std::uint32_t op) {
  PendingEvent event;
  event.device = device;
  event.op = op;
  event.index = stats_.events + batch_events_;
  ++batch_events_;
  shards_[device_shards_[device]].push_back(event);
}

std::size_t StreamChecker::ingest_ndjson(std::string_view chunk) {
  std::size_t consumed = 0;
  {
    // NDJSON interns as it parses, so monitor.decode covers both.
    support::trace::Span span("monitor.decode");
    while (true) {
      const std::size_t newline = chunk.find('\n', consumed);
      if (newline == std::string_view::npos) break;
      const std::string_view line = chunk.substr(consumed, newline - consumed);
      consumed = newline + 1;
      if (line.find_first_not_of(" \t\r") == std::string_view::npos) continue;
      try {
        const JsonValue value = parse_json(line);
        const JsonValue* device = value.find("device");
        const JsonValue* op = value.find("op");
        if (device == nullptr || op == nullptr || !device->is_string() ||
            !op->is_string()) {
          ++stats_.malformed;
          continue;
        }
        route(intern_device(device->as_string()),
              intern_batch_op(op->as_string()));
      } catch (const JsonParseError&) {
        ++stats_.malformed;
      }
    }
    span.arg("bytes", consumed);
  }
  check_batch();
  return consumed;
}

void StreamChecker::ingest_binary(std::string_view body) {
  // Decode and validate the whole frame before interning anything, so a
  // rejected frame leaves no trace in the fleet.
  std::string_view cells;
  {
    support::trace::Span span("monitor.decode");
    support::BinaryReader reader(body);
    if (reader.u32() != kFrameVersion) {
      throw support::BinaryFormatError("event frame version unsupported");
    }
    read_names(reader, reader.u64(), frame_names_, "device");
    const std::uint64_t device_count = frame_names_.size();
    read_names(reader, reader.u64(), frame_op_names_, "op");
    const std::uint64_t op_count = frame_op_names_.size();
    const std::uint64_t event_count = reader.u64();
    if (event_count > kMaxFrameEvents) {
      throw support::BinaryFormatError("event frame event count implausible");
    }
    cells = reader.raw(event_count * 8);
    reader.expect_end();
    for (std::uint64_t i = 0; i < event_count; ++i) {
      if (read_u32_le(cells.data() + i * 8) >= device_count ||
          read_u32_le(cells.data() + i * 8 + 4) >= op_count) {
        throw support::BinaryFormatError("event frame index out of range");
      }
    }
    span.arg("events", event_count);
    span.arg("devices", device_count);
  }
  {
    support::trace::Span span("monitor.intern");
    const std::size_t known = devices_.size();
    intern_frame_devices();
    frame_ops_.clear();
    for (const std::string_view name : frame_op_names_) {
      frame_ops_.push_back(intern_batch_op(name));
    }
    span.arg("new_devices", devices_.size() - known);
  }
  if (shards_.size() == 1 && batch_events_ == 0) {
    check_frame_in_place(cells);
    return;
  }
  for (std::size_t i = 0; i < cells.size(); i += 8) {
    route(frame_devices_[read_u32_le(cells.data() + i)],
          frame_ops_[read_u32_le(cells.data() + i + 4)]);
  }
  check_batch();
}

void StreamChecker::ingest_event(std::string_view device,
                                 std::string_view op) {
  route(intern_device(device), intern_batch_op(op));
}

void StreamChecker::flush() { check_batch(); }

void StreamChecker::check_event(std::uint32_t device_id, std::uint32_t op_id,
                                std::uint64_t index, ShardResult& result) {
  DeviceState& device = devices_[device_id];
  const std::uint64_t device_index = device.events++;
  if (device.violated) {
    // Latched, like core::Monitor: every later event of a violated
    // device is a violation but only the latching event is reported.
    ++result.violations;
    return;
  }
  const BatchOp& op = batch_ops_[op_id];
  const std::uint32_t prev = device.state;
  // An operation outside the class alphabet violates without moving;
  // entering a non-live state violates and moves (to the sink).
  if (op.letter != fsm::CompiledDfa::kNoLetter) {
    device.state = table_.step(prev, op.letter);
    if (table_.live(device.state)) {
      ++result.ok;
      return;
    }
  }
  device.violated = true;
  ++result.violations;
  ++result.new_violators;
  // Per-shard report lists are in stream order, so capping each shard at
  // max_violations still reconstructs the exact global first-K after the
  // merge sort (no shard can contribute more than K of the first K).
  if (result.reports.size() >= options_.max_violations) return;
  Violation report;
  report.event_index = index;
  report.device_event_index = device_index;
  report.device = device_names_[device_id];
  report.operation = op.name;
  const auto loc = locations_.find(op.name);
  if (loc != locations_.end()) report.loc = loc->second;
  std::vector<fsm::CompiledDfa::Letter> allowed;
  table_.allowed_letters(prev, allowed);
  report.allowed.reserve(allowed.size());
  for (const fsm::CompiledDfa::Letter letter : allowed) {
    report.allowed.push_back(table_.event_name(letter));
  }
  result.reports.push_back(std::move(report));
}

void StreamChecker::check_shard(std::size_t shard, ShardResult& result) {
  for (const PendingEvent& event : shards_[shard]) {
    check_event(event.device, event.op, event.index, result);
  }
}

void StreamChecker::check_frame_in_place(std::string_view cells) {
  support::trace::Span span("monitor.check");
  const std::size_t count = cells.size() / 8;
  std::vector<ShardResult> results(1);
  const char* at = cells.data();
  for (std::size_t i = 0; i < count; ++i) {
    if (i + kStateAhead < count) {
      prefetch(&devices_[frame_devices_[read_u32_le(
          at + (i + kStateAhead) * 8)]]);
    }
    check_event(frame_devices_[read_u32_le(at + i * 8)],
                frame_ops_[read_u32_le(at + i * 8 + 4)], stats_.events + i,
                results[0]);
  }
  merge(results, count);
  span.arg("events", count);
  check_batch();  // nothing pending: only resets the batch scratch
}

void StreamChecker::merge(std::vector<ShardResult>& results,
                          std::uint64_t events) {
  std::uint64_t new_violators = 0;
  std::vector<Violation> merged;
  for (ShardResult& result : results) {
    stats_.ok += result.ok;
    stats_.violations += result.violations;
    new_violators += result.new_violators;
    for (Violation& report : result.reports) {
      merged.push_back(std::move(report));
    }
  }
  std::sort(merged.begin(), merged.end(),
            [](const Violation& a, const Violation& b) {
              return a.event_index < b.event_index;
            });
  std::uint64_t appended = 0;
  for (Violation& report : merged) {
    if (violations_.size() >= options_.max_violations) break;
    violations_.push_back(std::move(report));
    ++appended;
  }
  stats_.violations_dropped += new_violators - appended;
  stats_.events += events;
}

void StreamChecker::check_batch() {
  if (batch_events_ != 0) {
    support::trace::Span span("monitor.check");
    span.arg("events", batch_events_);
    std::vector<ShardResult> results(shards_.size());
    support::parallel_for(shards_.size(), shards_.size(),
                          [&](std::size_t shard) {
                            check_shard(shard, results[shard]);
                          });
    merge(results, batch_events_);
  }
  stats_.devices = devices_.size();
  batch_ops_.clear();
  batch_op_index_.clear();
  for (std::vector<PendingEvent>& shard : shards_) shard.clear();
  batch_events_ = 0;
}

std::uint64_t StreamChecker::completed_devices() const {
  std::uint64_t count = 0;
  for (const DeviceState& device : devices_) {
    if (!device.violated && table_.accepting(device.state)) ++count;
  }
  return count;
}

std::uint64_t StreamChecker::violated_devices() const {
  std::uint64_t count = 0;
  for (const DeviceState& device : devices_) {
    if (device.violated) ++count;
  }
  return count;
}

std::uint64_t StreamChecker::incomplete_devices() const {
  std::uint64_t count = 0;
  for (const DeviceState& device : devices_) {
    if (!device.violated && !table_.accepting(device.state)) ++count;
  }
  return count;
}

std::size_t ingest_binary_stream(StreamChecker& checker,
                                 std::string_view buffer) {
  std::size_t consumed = 0;
  while (buffer.size() - consumed >= 12) {
    if (std::memcmp(buffer.data() + consumed, kFrameMagic, 4) != 0) {
      throw support::BinaryFormatError("event frame magic mismatch");
    }
    std::uint64_t body_size = 0;
    std::memcpy(&body_size, buffer.data() + consumed + 4, 8);
    if constexpr (std::endian::native != std::endian::little) {
      body_size = __builtin_bswap64(body_size);
    }
    if (body_size > kMaxFrameBytes) {
      throw support::BinaryFormatError("event frame size implausible");
    }
    if (buffer.size() - consumed - 12 < body_size) break;  // partial frame
    checker.ingest_binary(
        buffer.substr(consumed + 12, static_cast<std::size_t>(body_size)));
    consumed += 12 + static_cast<std::size_t>(body_size);
  }
  return consumed;
}

std::string encode_binary_frame(
    const std::vector<std::string>& devices,
    const std::vector<std::string>& ops,
    const std::vector<std::pair<std::uint32_t, std::uint32_t>>& events) {
  support::BinaryWriter body;
  body.u32(kFrameVersion);
  body.u64(devices.size());
  for (const std::string& device : devices) body.str(device);
  body.u64(ops.size());
  for (const std::string& op : ops) body.str(op);
  body.u64(events.size());
  for (const auto& [device, op] : events) {
    body.u32(device);
    body.u32(op);
  }
  support::BinaryWriter frame;
  frame.raw(std::string_view(kFrameMagic, 4));
  frame.u64(body.bytes().size());
  frame.raw(body.bytes());
  return frame.take();
}

}  // namespace shelley::monitor
