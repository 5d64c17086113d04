// The fleet-ingest input: a generated class, a device population with
// Zipf-skewed activity, and the event stream pre-encoded as SMEV frames.
// The reference counters come from the generator's own walk: each device
// follows its class's usage until (for about 1% of devices) the event index
// the generator chose, where it calls an operation that is not allowed;
// every later event of that device is a latched violation.
#pragma once

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "corpus.hpp"

namespace perfbench {

/// Sizes of the fleet.  Activity is Zipf(0.8) over devices and about 1% of
/// the devices violate (constants of the generator).
struct FleetShape {
  int devices;
  int frames;
  int frame_events;
  int class_ops;  ///< operations of the device class
};

struct FleetFrame {
  std::string bytes;  ///< one whole SMEV frame, prefix included
  std::uint64_t events = 0;
  std::uint64_t ok = 0;
  std::uint64_t violations = 0;
  std::uint64_t new_devices = 0;  ///< devices first seen in this frame
  std::vector<std::uint32_t> devices;  ///< the frame's distinct devices
};

struct FirstViolation {
  std::uint64_t event_index = 0;
  std::uint64_t device_event_index = 0;
  std::string device;
};

struct FleetStream {
  BaseClass cls;
  std::string source;  ///< the class's source text
  std::vector<FleetFrame> frames;
  /// Every violating device's first violation, in stream order.
  std::vector<FirstViolation> first_violations;
  std::uint64_t devices = 0;  ///< distinct devices in the stream
  /// The decoded stream: global device index and operation index.
  std::vector<std::uint32_t> event_device;
  std::vector<std::uint8_t> event_op;
};

FleetStream make_fleet(std::uint64_t seed, const FleetShape& shape);

/// Device name of a global device index.
std::string device_name(std::uint32_t device);

/// A benchmark-owned pass with the access pattern of
/// StreamChecker::ingest_binary over the same frames: look up each of a
/// frame's device names in a hash map of the whole fleet, then advance a
/// per-device state through a dense transition table of the class on every
/// event.  fleet-ingest's host-speed kernel (hostspeed.hpp).  It owns its
/// working set and allocates nothing while it runs.
class FleetReference {
 public:
  explicit FleetReference(const FleetStream& stream);
  /// Two walks over the next frame (cyclic); returns the second one's time
  /// in ms.  The first walk brings the kernel's own working set into the
  /// caches, so the timed one does not depend on what the program's last op
  /// left there.
  double pass();

 private:
  void walk(std::size_t frame);

  const FleetStream& stream_;
  std::vector<std::string> names_;
  std::unordered_map<std::string, std::uint32_t> index_;
  /// (operations + 2) rows: start, one per last operation, sink.
  std::vector<std::uint32_t> table_;
  std::vector<std::uint32_t> states_;
  std::vector<std::size_t> frame_start_;
  std::size_t next_ = 0;
  std::uint64_t sink_ = 0;
};

/// NDJSON encoding of frames [0, frames) of the stream (traced run).
std::string fleet_ndjson(const FleetStream& stream, int frames);

}  // namespace perfbench
