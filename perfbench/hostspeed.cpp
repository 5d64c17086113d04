#include "hostspeed.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstddef>
#include <memory_resource>
#include <string>
#include <string_view>
#include <unordered_map>

namespace perfbench {

namespace {

std::atomic<std::uint64_t> g_sink{0};  // keeps the kernel's work observable

double compute_pass() {
  static const std::vector<std::string> keys = [] {
    std::vector<std::string> out;
    Rng rng(42);
    for (int i = 0; i < 12000; ++i) {
      out.push_back("dev" + std::to_string(rng.next() % 1000000));
    }
    return out;
  }();
  static const std::vector<std::uint32_t> chain = [] {
    std::vector<std::uint32_t> out(std::size_t{1} << 20);
    Rng rng(7);
    for (auto& next : out) {
      next = static_cast<std::uint32_t>(rng.next() % out.size());
    }
    return out;
  }();
  // The pass allocates only from this arena, never from the heap the
  // program has shaped.  Only one thread runs the kernel at a time.
  static std::vector<std::byte> arena(std::size_t{4} << 20);
  const auto start = Clock::now();
  std::pmr::monotonic_buffer_resource memory(
      arena.data(), arena.size(), std::pmr::null_memory_resource());
  std::pmr::unordered_map<std::string_view, std::uint32_t> map(&memory);
  std::pmr::vector<std::uint32_t> values(&memory);
  values.reserve(keys.size());
  for (std::size_t i = 0; i < keys.size(); ++i) {
    map.emplace(keys[i], static_cast<std::uint32_t>(i));
  }
  for (std::size_t i = keys.size(); i-- > 0;) {
    values.push_back(map.find(keys[i])->second * 2654435761u);
  }
  std::sort(values.begin(), values.end());
  std::uint32_t at = values[0] % chain.size();
  for (int i = 0; i < 40000; ++i) at = chain[at];
  g_sink += at + values.back();
  return ms_since(start);
}

}  // namespace

double compute_kernel() {
  (void)compute_pass();  // warm-up: the timed pass runs in cache
  return compute_pass();
}

void HostSpeed::sample() {
  const auto at = Clock::now();
  samples_.push_back({at, kernel_()});
}

void HostSpeed::maybe_sample() {
  if (samples_.empty() ||
      Clock::now() - samples_.back().at >= std::chrono::milliseconds(100)) {
    sample();
  }
}

double HostSpeed::factor(Clock::time_point at) const {
  std::vector<double> near;
  for (const Sample& s : samples_) {
    if (s.at > at - std::chrono::milliseconds(500) &&
        s.at < at + std::chrono::milliseconds(500)) {
      near.push_back(s.ms);
    }
  }
  if (near.empty()) {
    // The five samples closest in time.
    std::vector<std::pair<double, double>> by_distance;
    for (const Sample& s : samples_) {
      by_distance.emplace_back(
          std::abs(std::chrono::duration<double>(s.at - at).count()), s.ms);
    }
    std::sort(by_distance.begin(), by_distance.end());
    for (std::size_t i = 0; i < by_distance.size() && i < 5; ++i) {
      near.push_back(by_distance[i].second);
    }
  }
  return near.empty() ? 1.0 : reference_ms_ / median(near);
}

double HostSpeed::median_kernel_ms() const {
  std::vector<double> all;
  for (const Sample& s : samples_) all.push_back(s.ms);
  return median(all);
}

}  // namespace perfbench
