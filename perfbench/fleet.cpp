#include "fleet.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <utility>

#include "monitor/stream.hpp"

namespace perfbench {

std::string device_name(std::uint32_t device) {
  return "dev" + std::to_string(device);
}

FleetStream make_fleet(std::uint64_t seed, const FleetShape& shape) {
  constexpr double kZipfS = 0.8;
  constexpr double kViolatingShare = 0.01;
  // The device class comes from a fixed plan seed, so the table compile of
  // set-up is the same work for every seed; the seed decides the stream.
  Rng plan(0xc1a55f1ee7ULL);
  Rng rng(seed ^ 0xf1ee7f1ee7ULL);
  FleetStream stream;
  stream.cls = make_base(plan, "FleetDevice", shape.class_ops, 4);
  stream.source = "# fleet-ingest device class\n\n" + render_base(stream.cls);

  // Zipf activity: device d has weight 1 / (d + 1)^s.
  const auto devices = static_cast<std::size_t>(shape.devices);
  std::vector<double> cdf(devices);
  double total = 0.0;
  for (std::size_t d = 0; d < devices; ++d) {
    total += 1.0 / std::pow(static_cast<double>(d + 1), kZipfS);
    cdf[d] = total;
  }
  const std::size_t events = static_cast<std::size_t>(shape.frames) *
                             static_cast<std::size_t>(shape.frame_events);
  stream.event_device.resize(events);
  std::vector<std::uint64_t> per_device(devices, 0);
  for (std::size_t i = 0; i < events; ++i) {
    const double u = rng.unit() * total;
    const auto d = static_cast<std::uint32_t>(std::min<std::size_t>(
        static_cast<std::size_t>(
            std::upper_bound(cdf.begin(), cdf.end(), u) - cdf.begin()),
        devices - 1));
    stream.event_device[i] = d;
    ++per_device[d];
  }

  // The violating devices and the device-local index of each violation.
  constexpr std::uint64_t kNever = ~std::uint64_t{0};
  std::vector<std::uint64_t> violate_at(devices, kNever);
  for (std::size_t d = 0; d < devices; ++d) {
    if (per_device[d] > 0 && rng.chance(kViolatingShare)) {
      violate_at[d] = rng.range(0, per_device[d] - 1);
    }
  }

  // Walk every device; encode frame by frame.
  std::vector<int> state(devices, -1);
  std::vector<std::uint64_t> seen(devices, 0);
  std::vector<std::int64_t> local(devices, -1);
  std::vector<std::string> op_names;
  for (int op = 0; op < stream.cls.ops(); ++op) {
    op_names.push_back("op" + std::to_string(op));
  }
  stream.event_op.resize(events);
  std::size_t i = 0;
  for (int f = 0; f < shape.frames; ++f) {
    FleetFrame frame;
    std::vector<std::string> names;
    std::vector<std::uint32_t> frame_devices;
    std::vector<std::pair<std::uint32_t, std::uint32_t>> cells;
    cells.reserve(static_cast<std::size_t>(shape.frame_events));
    for (int e = 0; e < shape.frame_events; ++e, ++i) {
      const std::uint32_t d = stream.event_device[i];
      const std::uint64_t index = seen[d]++;
      if (index == 0) ++frame.new_devices;
      int op = 0;
      if (violate_at[d] != kNever && index > violate_at[d]) {
        op = static_cast<int>(rng.range(0, stream.cls.ops() - 1));
        ++frame.violations;
      } else if (index == violate_at[d]) {
        op = violating_step(rng, stream.cls, state[d]);
        ++frame.violations;
        stream.first_violations.push_back(
            {static_cast<std::uint64_t>(i), index, device_name(d)});
      } else {
        op = valid_step(rng, stream.cls, state[d]);
        state[d] = op;
        ++frame.ok;
      }
      stream.event_op[i] = static_cast<std::uint8_t>(op);
      if (local[d] < 0) {
        local[d] = static_cast<std::int64_t>(names.size());
        names.push_back(device_name(d));
        frame_devices.push_back(d);
      }
      cells.emplace_back(static_cast<std::uint32_t>(local[d]),
                         static_cast<std::uint32_t>(op));
    }
    for (std::uint32_t d : frame_devices) local[d] = -1;
    frame.devices = std::move(frame_devices);
    frame.events = static_cast<std::uint64_t>(shape.frame_events);
    frame.bytes = shelley::monitor::encode_binary_frame(names, op_names, cells);
    stream.devices += frame.new_devices;
    stream.frames.push_back(std::move(frame));
  }
  return stream;
}

FleetReference::FleetReference(const FleetStream& stream) : stream_(stream) {
  std::uint32_t devices = 0;
  for (std::uint32_t d : stream.event_device) {
    devices = std::max(devices, d + 1);
  }
  for (std::uint32_t d = 0; d < devices; ++d) {
    names_.push_back(device_name(d));
    index_.emplace(names_.back(), d);
  }
  const auto ops = static_cast<std::uint32_t>(stream.cls.ops());
  const std::uint32_t sink = ops + 1;
  table_.assign(static_cast<std::size_t>(ops + 2) * ops, sink);
  table_[0] = 1;  // start: only op0
  for (std::uint32_t last = 0; last < ops; ++last) {
    for (int next : stream.cls.allowed_after(static_cast<int>(last))) {
      table_[(last + 1) * ops + static_cast<std::uint32_t>(next)] =
          static_cast<std::uint32_t>(next) + 1;
    }
  }
  states_.assign(devices, 0);
  frame_start_.push_back(0);
  for (const FleetFrame& frame : stream.frames) {
    frame_start_.push_back(frame_start_.back() + frame.events);
  }
}

void FleetReference::walk(std::size_t f) {
  const auto ops = static_cast<std::size_t>(stream_.cls.ops());
  for (std::uint32_t d : stream_.frames[f].devices) {
    sink_ += index_.find(names_[d])->second;
  }
  for (std::size_t i = frame_start_[f]; i < frame_start_[f + 1]; ++i) {
    std::uint32_t& state = states_[stream_.event_device[i]];
    state = table_[state * ops + stream_.event_op[i]];
  }
  sink_ += states_[f];
}

double FleetReference::pass() {
  const std::size_t f = next_++ % stream_.frames.size();
  walk(f);
  const auto start = std::chrono::steady_clock::now();
  walk(f);
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - start)
      .count();
}

std::string fleet_ndjson(const FleetStream& stream, int frames) {
  std::string out;
  std::size_t i = 0;
  for (int f = 0; f < frames; ++f) {
    const std::uint64_t count = stream.frames[static_cast<std::size_t>(f)].events;
    for (std::uint64_t e = 0; e < count; ++e, ++i) {
      out += "{\"device\":\"" + device_name(stream.event_device[i]) +
             "\",\"op\":\"op" + std::to_string(stream.event_op[i]) + "\"}\n";
    }
  }
  return out;
}

}  // namespace perfbench
