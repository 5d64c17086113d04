// The streaming-monitor runtime: a StreamChecker owns the monitor states of
// a whole device fleet and checks batched event streams against one
// compiled class table (fsm/table.hpp) at millions of events per second.
//
// Interning: device names map to dense ids through a flat open-addressing
// table of 64-bit entries (a 32-bit hash tag beside the id), kept at most
// half full.  An SMEV frame is decoded and validated whole first, its names
// as views into the body; then all of them are hashed, the table grows once
// for the frame, and the probes run with software prefetch.  A rejected
// frame therefore interns nothing.
//
// Sharding: every device id is assigned to one shard (hash of its name) at
// first sight, so all of a device's events are checked by the same worker
// in stream order and shards never share mutable state.  A batch is decoded
// on the calling thread (interning devices and operations into dense ids),
// then the per-shard event lists are swept in parallel on the shared
// ThreadPool.  With one shard and no ingest_event() events pending, an SMEV
// frame is checked in place, straight from its event records.  Results are
// deterministic in the shard count: verdict counters are additive and
// violation reports are merged in global event order.
//
// Two wire formats:
//   * NDJSON  -- one {"device": "...", "op": "..."} object per line;
//                undecodable lines are counted (`malformed`), never fatal;
//   * SMEV    -- a length-prefixed binary frame format (see MONITORING.md):
//                "SMEV" | u64 body size | body, where the body is
//                u32 version | device table | op table | u64 event count |
//                (u32 device, u32 op) pairs.  Names are carried once per
//                frame; events are fixed 8-byte records.  Malformed frames
//                throw support::BinaryFormatError (a structured reject,
//                never UB).
//
// Violation reports carry the source-located diagnostics of the batch
// pipeline: operation name and declaration site, device, global event
// index, and the allowed-next set at the point of violation.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "fsm/table.hpp"
#include "support/binary.hpp"
#include "support/source_location.hpp"

namespace shelley::monitor {

/// One rejected event.  `allowed` lists the operations that would have been
/// legal instead, in letter order; `loc` is the declaration site of the
/// offending operation when the caller provided one (unknown operations
/// have none).
struct Violation {
  std::uint64_t event_index = 0;         ///< 0-based index in the stream
  std::uint64_t device_event_index = 0;  ///< 0-based index within the device
  std::string device;
  std::string operation;
  SourceLoc loc;
  std::vector<std::string> allowed;
};

struct StreamStats {
  std::uint64_t events = 0;      ///< decoded events routed to a monitor
  std::uint64_t ok = 0;          ///< events accepted
  std::uint64_t violations = 0;  ///< rejected events (latched repeats too)
  std::uint64_t malformed = 0;   ///< undecodable NDJSON lines
  std::uint64_t devices = 0;     ///< distinct device ids seen
  std::uint64_t violations_dropped = 0;  ///< reports beyond max_violations
};

class StreamChecker {
 public:
  struct Options {
    /// Worker shards; 1 checks on the calling thread.
    std::size_t shards = 1;
    /// Violation reports retained (counting continues past the cap).
    std::size_t max_violations = 1024;
  };

  explicit StreamChecker(fsm::CompiledDfa table);
  StreamChecker(fsm::CompiledDfa table, Options options);

  /// Declaration sites for violation diagnostics, keyed by operation name
  /// (e.g. from ClassSpec::operations).
  void set_source_locations(std::unordered_map<std::string, SourceLoc> locs);

  /// Decodes and checks the complete ('\n'-terminated) NDJSON lines of
  /// `chunk`; returns the bytes consumed, so a chunked caller carries the
  /// trailing partial line into its next read.  (At end of input, append a
  /// final '\n' to flush the last line.)
  std::size_t ingest_ndjson(std::string_view chunk);

  /// Decodes and checks one SMEV frame *body* (everything after the
  /// "SMEV" | u64 size prefix).  Throws support::BinaryFormatError on any
  /// malformation; a throwing frame checks nothing.
  void ingest_binary(std::string_view body);

  /// Routes one already-decoded event (embedding callers, e.g. the daemon's
  /// inline event arrays).  Deferred: nothing is checked until flush() --
  /// or the next ingest_ndjson/ingest_binary call -- runs the batch.
  void ingest_event(std::string_view device, std::string_view op);

  /// Checks every event routed since the last batch.
  void flush();

  /// Per-device verdict latching mirrors core::Monitor: once a device
  /// violates, every later event of that device counts as a violation.
  [[nodiscard]] const std::vector<Violation>& violations() const {
    return violations_;
  }
  [[nodiscard]] const StreamStats& stats() const { return stats_; }

  /// Fleet snapshot: devices whose usage is a valid complete lifecycle
  /// right now / latched violators / started but not completable-stopped.
  [[nodiscard]] std::uint64_t completed_devices() const;
  [[nodiscard]] std::uint64_t violated_devices() const;
  [[nodiscard]] std::uint64_t incomplete_devices() const;

  [[nodiscard]] const fsm::CompiledDfa& table() const { return table_; }
  [[nodiscard]] std::size_t shard_count() const { return shards_.size(); }

 private:
  struct DeviceState {
    std::uint64_t events = 0;
    std::uint32_t state = 0;
    bool violated = false;
  };

  /// One decoded event, routed to its device's shard.  `op` indexes
  /// batch_ops_ (per-batch operation table: compiled letter + name).
  struct PendingEvent {
    std::uint32_t device = 0;
    std::uint32_t op = 0;
    std::uint64_t index = 0;
  };

  struct BatchOp {
    fsm::CompiledDfa::Letter letter = fsm::CompiledDfa::kNoLetter;
    std::string name;
  };

  struct ShardResult {
    std::uint64_t ok = 0;
    std::uint64_t violations = 0;
    std::uint64_t new_violators = 0;  ///< devices that latched this batch
    std::vector<Violation> reports;
  };

  /// Grows the intern table so that `extra` more names keep it at most
  /// half full.
  void reserve_devices(std::size_t extra);
  /// The id of `name`, whose std::hash is `hash`; interns it when new.
  /// The table must have room (reserve_devices).
  std::uint32_t intern_hashed(std::string_view name, std::size_t hash);
  std::uint32_t intern_device(std::string_view name);
  /// Interns frame_names_ into frame_devices_, batched and prefetched.
  void intern_frame_devices();
  std::uint32_t intern_batch_op(std::string_view name);
  void route(std::uint32_t device, std::uint32_t op);
  void check_frame_in_place(std::string_view cells);
  void check_batch();
  void check_shard(std::size_t shard, ShardResult& result);
  /// The per-event body both check paths share: latching, report capping
  /// and the report's contents.
  void check_event(std::uint32_t device, std::uint32_t op,
                   std::uint64_t index, ShardResult& result);
  /// Folds one batch's shard results into stats_ and violations_.
  void merge(std::vector<ShardResult>& results, std::uint64_t events);

  fsm::CompiledDfa table_;
  Options options_;

  // Intern table: power-of-two sized; an entry is (tag << 32) | (id + 1),
  // 0 when empty.  Ids index device_names_, devices_ and device_shards_.
  std::vector<std::uint64_t> device_table_;
  std::vector<std::string> device_names_;
  std::vector<DeviceState> devices_;
  std::vector<std::uint32_t> device_shards_;

  std::unordered_map<std::string, SourceLoc> locations_;

  // Per-batch scratch, cleared (capacity kept) after every check.
  std::vector<BatchOp> batch_ops_;
  std::unordered_map<std::string, std::uint32_t> batch_op_index_;
  std::vector<std::vector<PendingEvent>> shards_;
  std::size_t batch_events_ = 0;

  // Per-frame scratch of ingest_binary (capacity kept): the device and op
  // names as views into the body, the device names' hashes, and the ids
  // both name tables resolve to.
  std::vector<std::string_view> frame_names_;
  std::vector<std::string_view> frame_op_names_;
  std::vector<std::size_t> frame_hashes_;
  std::vector<std::uint32_t> frame_devices_;
  std::vector<std::uint32_t> frame_ops_;

  std::vector<Violation> violations_;
  StreamStats stats_;
};

/// Consumes as many complete length-prefixed SMEV frames
/// ("SMEV" | u64 body size | body) as `buffer` holds, feeding each body to
/// `checker`; returns the bytes consumed (a trailing partial frame stays
/// unconsumed for the caller's next read).  Throws BinaryFormatError on a
/// bad magic, an implausible size, or a malformed frame body.
std::size_t ingest_binary_stream(StreamChecker& checker,
                                 std::string_view buffer);

/// Encodes one SMEV frame (prefix included) from parallel device/op index
/// arrays -- the writer half of the wire format, used by the CLI's
/// `--emit-binary` converter, the benchmark, and tests.
[[nodiscard]] std::string encode_binary_frame(
    const std::vector<std::string>& devices,
    const std::vector<std::string>& ops,
    const std::vector<std::pair<std::uint32_t, std::uint32_t>>& events);

}  // namespace shelley::monitor
