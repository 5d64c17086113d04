// shelley_perfbench: the repository benchmark.
//
//   shelley_perfbench --workload NAME --seed N --seconds S --trace 0|1
//                     [--config perfbench/config.json]
//   shelley_perfbench --self-test
//
// Prints one {"env": ...} line describing the host and the inputs, then, as
// the last line, {"correct", "attempted", "failed", "metrics"}.  Exits 0
// after a completed run (a run with failed ops still exits 0 and reports
// correct:false); exits 1 on a bad invocation or a run that could not
// complete, without a result line.
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <charconv>
#include <cmath>
#include <fstream>
#include <iostream>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "bench.hpp"
#include "support/json.hpp"

namespace perfbench {

double quantile(std::vector<double> samples, double q) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(samples.size())));
  return samples[std::clamp<std::size_t>(rank, 1, samples.size()) - 1];
}

double median(std::vector<double> samples) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const std::size_t n = samples.size();
  return n % 2 == 1 ? samples[n / 2]
                    : (samples[n / 2 - 1] + samples[n / 2]) / 2.0;
}

void write_file(const std::filesystem::path& path, const std::string& text) {
  std::filesystem::create_directories(path.parent_path());
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << text;
  if (!out) throw std::runtime_error("cannot write " + path.string());
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

double current_rss_mb() {
  std::ifstream statm("/proc/self/statm");
  std::size_t pages = 0;
  std::size_t resident = 0;
  if (!(statm >> pages >> resident)) {
    throw std::runtime_error("cannot read /proc/self/statm");
  }
  return static_cast<double>(resident) *
         static_cast<double>(::sysconf(_SC_PAGESIZE)) / (1024.0 * 1024.0);
}

Config load_config(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("cannot read config " + path);
  std::stringstream buffer;
  buffer << in.rdbuf();
  const shelley::JsonValue root = shelley::parse_json(buffer.str());
  using shelley::JsonValue;
  const auto find = [&path](const JsonValue& object,
                            const std::string& key) -> const JsonValue& {
    const shelley::JsonValue* value = object.find(key);
    if (value == nullptr) {
      throw std::runtime_error("config " + path + " has no \"" + key + "\"");
    }
    return *value;
  };
  const auto get = [&find](const shelley::JsonValue& object, const char* key,
                           auto& field) {
    field = static_cast<std::decay_t<decltype(field)>>(
        find(object, key).as_number());
  };
  Config config{};
  get(root, "jobs", config.jobs);
  get(root, "max_inflight", config.max_inflight);
  const shelley::JsonValue& cold = find(root, "cold-verify");
  get(cold, "projects", config.cold_projects);
  get(cold, "warmup_projects", config.cold_warmup_projects);
  get(find(root, "cached-rerun"), "projects", config.cached_projects);
  const shelley::JsonValue& edit = find(root, "edit-loop");
  get(edit, "connections", config.edit_connections);
  get(edit, "classes", config.edit_classes);
  get(edit, "composites", config.edit_composites);
  get(edit, "max_ops", config.edit_max_ops);
  get(edit, "monitor_devices", config.edit_monitor_devices);
  get(edit, "monitor_events", config.edit_monitor_events);
  const shelley::JsonValue& fleet = find(root, "fleet-ingest");
  get(fleet, "devices", config.fleet.devices);
  get(fleet, "frames", config.fleet.frames);
  get(fleet, "frame_events", config.fleet.frame_events);
  get(fleet, "class_ops", config.fleet.class_ops);
  const unsigned cores = std::max(1u, std::thread::hardware_concurrency());
  if (config.jobs < 1 || config.max_inflight < 1 ||
      config.edit_connections < 1 ||
      static_cast<unsigned>(config.edit_connections) > cores ||
      config.cold_projects < 1 || config.cold_warmup_projects < 1 ||
      config.cold_warmup_projects > config.cold_projects ||
      config.cached_projects < 1 || config.fleet.frames < 1) {
    throw std::runtime_error("config " + path + " is out of range");
  }
  return config;
}

namespace {

std::string number(double value) {
  char buffer[64];
  const auto result = std::to_chars(buffer, buffer + sizeof(buffer), value);
  return std::string(buffer, result.ptr);
}

/// Same seed, same bytes; another seed, other bytes.  Uses fixed small
/// sizes, not config.json.
int self_test() {
  const auto corpus = [](std::uint64_t seed) {
    Rng rng(seed);
    std::string bytes;
    for (const Project& project : make_corpus(rng, "p", 8)) {
      bytes += project_bytes(project);
    }
    const EditProject edit = make_edit_project(rng, "e_", 12, 4, 40);
    bytes += project_bytes(edit.project);
    for (const auto& toggle : edit.toggles) bytes += toggle.defect_text;
    for (const auto& text : edit.comment_texts) bytes += text;
    NdjsonReference reference;
    bytes += make_ndjson_events(rng, edit.monitor_spec, 4, 200, reference);
    bytes += std::to_string(reference.violations) + "/" +
             std::to_string(reference.first_violation_index);
    const FleetStream fleet = make_fleet(
        seed, {.devices = 2000, .frames = 3, .frame_events = 4096,
               .class_ops = 24});
    for (const FleetFrame& frame : fleet.frames) {
      bytes += frame.bytes + std::to_string(frame.violations) + "/" +
               std::to_string(frame.new_devices);
    }
    for (const FirstViolation& v : fleet.first_violations) {
      bytes += std::to_string(v.event_index) + v.device;
    }
    return bytes;
  };
  const std::string a = corpus(7);
  const std::string b = corpus(7);
  const std::string c = corpus(8);
  const bool ok = a == b && a != c && !a.empty();
  std::cout << (ok ? "perfbench self-test: ok\n"
                   : "perfbench self-test: FAILED\n");
  return ok ? 0 : 1;
}

int usage() {
  std::cerr << "usage: shelley_perfbench --workload "
               "cold-verify|cached-rerun|edit-loop|fleet-ingest --seed N "
               "--seconds S --trace 0|1 [--config FILE]\n"
               "       shelley_perfbench --self-test\n";
  return 1;
}

}  // namespace

}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--self-test") return self_test();
    if (i + 1 >= argc) return usage();
    const std::string value = argv[++i];
    try {
      if (arg == "--workload") {
        args.workload = value;
      } else if (arg == "--seed") {
        args.seed = std::stoull(value);
      } else if (arg == "--seconds") {
        args.seconds = std::stod(value);
      } else if (arg == "--trace") {
        args.trace = value == "1";
      } else if (arg == "--config") {
        args.config = value;
      } else {
        return usage();
      }
    } catch (const std::exception&) {
      return usage();
    }
  }
  using Runner = void (*)(const Args&, const Config&, Result&);
  Runner runner = nullptr;
  if (args.workload == "cold-verify") runner = run_cold_verify;
  if (args.workload == "cached-rerun") runner = run_cached_rerun;
  if (args.workload == "edit-loop") runner = run_edit_loop;
  if (args.workload == "fleet-ingest") runner = run_fleet_ingest;
  if (runner == nullptr || args.seconds <= 0) return usage();

  const char* target = std::getenv("CARGO_TARGET_DIR");
  args.work = std::filesystem::path(target != nullptr && *target != '\0'
                                        ? target
                                        : ".bench_build") /
              "perfbench-run" /
              (args.workload + "-" + std::to_string(::getpid()));
  Result result;
  int status = 0;
  try {
    const Config config = load_config(args.config);
    std::filesystem::remove_all(args.work);
    std::filesystem::create_directories(args.work);
    runner(args, config, result);
    if (result.attempted == 0) throw std::runtime_error("no op completed");
    result.env["nproc"] = std::to_string(std::thread::hardware_concurrency());
    result.env["compiler"] = PERFBENCH_CXX_COMPILER;
    result.env["build_type"] = PERFBENCH_BUILD_TYPE;
    result.env["seed"] = std::to_string(args.seed);
    result.env["workload"] = args.workload;
    result.env["trace"] = args.trace ? "1" : "0";
    result.env["jobs"] = std::to_string(config.jobs);
    result.env["max_inflight"] = std::to_string(config.max_inflight);
  } catch (const std::exception& error) {
    std::cerr << "shelley_perfbench: " << error.what() << "\n";
    status = 1;
  }
  std::error_code ignored;
  std::filesystem::remove_all(args.work, ignored);
  if (status != 0) return status;

  bool finite = true;
  shelley::JsonWriter env;
  env.begin_object();
  env.key("env").begin_object();
  for (const auto& [key, value] : result.env) env.key(key).value(value);
  env.end_object();
  env.end_object();
  std::cout << env.str() << "\n";

  std::string metrics;
  for (const Metric& metric : result.metrics) {
    finite = finite && std::isfinite(metric.value);
    metrics += (metrics.empty() ? "" : ", ") + std::string("\"") +
               metric.name + "\": {\"value\": " +
               number(std::isfinite(metric.value) ? metric.value : 0.0) +
               ", \"unit\": \"" + metric.unit + "\"}";
  }
  const bool correct = result.failed == 0 && result.setup_ok && finite;
  std::cout << "{\"correct\": " << (correct ? "true" : "false")
            << ", \"attempted\": " << result.attempted
            << ", \"failed\": " << result.failed << ", \"metrics\": {"
            << metrics << "}}" << std::endl;
  return 0;
}
