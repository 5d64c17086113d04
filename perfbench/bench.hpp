// Shared pieces of the benchmark program: configuration, clocks, sample
// statistics, and the result every workload reports.
#pragma once

#include <chrono>
#include <cstdint>
#include <filesystem>
#include <map>
#include <string>
#include <vector>

#include "corpus.hpp"
#include "fleet.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double ms_since(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start)
      .count();
}

/// Sizes and thread counts, read from perfbench/config.json, which must
/// name every one of them.
struct Config {
  std::size_t jobs;          ///< shelleyc --jobs / session jobs
  std::size_t max_inflight;  ///< server executor threads

  int cold_projects;
  int cold_warmup_projects;
  int cached_projects;

  int edit_connections;
  int edit_classes;
  int edit_composites;
  int edit_max_ops;
  int edit_monitor_devices;
  int edit_monitor_events;

  FleetShape fleet;
};

Config load_config(const std::string& path);

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

struct Result {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  bool setup_ok = true;  ///< every set-up check passed
  std::vector<Metric> metrics;
  /// Environment and input sizes, printed before the result line.
  std::map<std::string, std::string> env;

  void add(std::string name, double value, std::string unit) {
    metrics.push_back({std::move(name), value, std::move(unit)});
  }
};

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string config = "perfbench/config.json";
  std::filesystem::path work;  ///< scratch directory of this run
};

/// Quantile by nearest rank over a copy of `samples`.
double quantile(std::vector<double> samples, double q);
double median(std::vector<double> samples);

/// Writes `text` to `path`, creating parent directories.
void write_file(const std::filesystem::path& path, const std::string& text);

/// Peak resident set size of this process in MiB.
double peak_rss_mb();
/// Current resident set size of this process in MiB.
double current_rss_mb();

/// The four workloads.  Each fills `result` with every end-to-end metric
/// (untraced) or every per-layer metric (traced).
void run_cold_verify(const Args& args, const Config& config, Result& result);
void run_cached_rerun(const Args& args, const Config& config, Result& result);
void run_edit_loop(const Args& args, const Config& config, Result& result);
void run_fleet_ingest(const Args& args, const Config& config, Result& result);

}  // namespace perfbench
