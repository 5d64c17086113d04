// The four workloads.  Each builds its inputs from the seed (untimed), sets
// up the program several times (timed, median reported), then runs a
// closed loop for the requested seconds, checking every op.  A traced run
// spends the first part of its time untraced and the rest re-executing each
// op's layers with outside timers (traced.hpp).
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <cstring>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "bench.hpp"
#include "engine/driver.hpp"
#include "engine/query.hpp"
#include "engine/server.hpp"
#include "engine/session.hpp"
#include "engine/workspace.hpp"
#include "monitor/stream.hpp"
#include "shelley/cache.hpp"
#include "support/guard.hpp"
#include "support/json.hpp"
#include "support/thread_pool.hpp"
#include "hostspeed.hpp"
#include "traced.hpp"

namespace perfbench {

namespace engine = shelley::engine;
namespace fs = std::filesystem;

namespace {

/// Host-speed kernel times at the reference host speed (hostspeed.hpp).
constexpr double kComputeReferenceMs = 2.0;
constexpr double kFleetReferenceMs = 8.0;

/// Set-ups per run; the median is reported.  fleet-ingest's set-up is well
/// under a millisecond, so it repeats more.
constexpr int kSetupRepeats = 11;
constexpr int kFleetSetupRepeats = 201;

/// Share of a traced run spent untraced, the baseline of
/// trace_overhead_pct.
constexpr double kTraceUntracedShare = 0.4;

// -- Closed loop ------------------------------------------------------------

struct OpSample {
  Clock::time_point start;
  double latency_ms = 0.0;  ///< raw
  int client = 0;
};

struct LoopStats {
  std::vector<OpSample> ops;  ///< every client's ops
  double wall_s = 0.0;        ///< loop time minus excluded pauses
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  double peak_rss_mb = 0.0;  ///< read as the loop ended
};

/// Per-client sample storage with room for kMaxOpsPerSecond ops per second
/// of a run, sized and touched before the RSS baseline, so that recording
/// samples does not count as program memory in peak_rss_mb.
struct SampleBuffers {
  static constexpr double kMaxOpsPerSecond = 5000.0;
  SampleBuffers(int clients, double seconds)
      : ops(static_cast<std::size_t>(clients)) {
    for (std::vector<OpSample>& client : ops) {
      client.resize(static_cast<std::size_t>(seconds * kMaxOpsPerSecond) + 1);
      client.clear();
    }
  }
  std::vector<std::vector<OpSample>> ops;
};

/// One op of client `client`, the `k`-th of that client.  Sets the op's
/// latency (program time only) and any time to leave out of the wall clock
/// (untimed housekeeping); returns whether every check passed.
using OpFn = std::function<bool(int client, std::uint64_t k,
                                double& latency_ms, double& excluded_ms)>;

/// Runs `clients` closed-loop clients until `seconds` have passed, recording
/// into `buffers`.  Client 0 also samples the host speed between its ops
/// (excluded time).
LoopStats closed_loop(double seconds, int clients, const OpFn& op,
                      HostSpeed& host, SampleBuffers& buffers) {
  LoopStats stats;
  std::mutex mutex;
  double excluded_ms = 0.0;
  const auto start = Clock::now();
  const auto deadline =
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(seconds));
  const auto body = [&](int client) {
    std::vector<OpSample>& ops = buffers.ops[static_cast<std::size_t>(client)];
    ops.clear();
    std::uint64_t failed = 0;
    double excluded = 0.0;
    for (std::uint64_t k = 0; Clock::now() < deadline; ++k) {
      double pause = 0.0;
      if (client == 0) {
        const auto sampled = Clock::now();
        host.maybe_sample();
        pause += ms_since(sampled);
      }
      OpSample sample{Clock::now(), 0.0, client};
      bool ok = false;
      try {
        ok = op(client, k, sample.latency_ms, pause);
      } catch (const std::exception&) {
        // A broken connection or malformed reply: count the op as failed
        // and stop this client, whose later ops could only fail the same way.
        ops.push_back(sample);
        ++failed;
        break;
      }
      if (!ok) ++failed;
      ops.push_back(sample);
      excluded += pause;
    }
    const std::lock_guard<std::mutex> lock(mutex);
    stats.failed += failed;
    excluded_ms += excluded;
  };
  if (clients == 1) {
    body(0);
  } else {
    std::vector<std::thread> threads;
    for (int c = 0; c < clients; ++c) threads.emplace_back(body, c);
    for (std::thread& thread : threads) thread.join();
  }
  host.sample();
  stats.peak_rss_mb = peak_rss_mb();
  for (const std::vector<OpSample>& ops : buffers.ops) {
    stats.ops.insert(stats.ops.end(), ops.begin(), ops.end());
  }
  stats.attempted = stats.ops.size();
  stats.wall_s = (ms_since(start) - excluded_ms) / 1000.0;
  return stats;
}

std::vector<double> raw_latencies(const LoopStats& loop) {
  std::vector<double> out;
  for (const OpSample& op : loop.ops) out.push_back(op.latency_ms);
  return out;
}

std::vector<double> scaled_latencies(const LoopStats& loop,
                                     const HostSpeed& host) {
  std::vector<double> out;
  for (const OpSample& op : loop.ops) {
    out.push_back(op.latency_ms * host.factor(op.start));
  }
  return out;
}

/// Set-up timings: when each repetition started and its raw ms.
using SetupTimes = std::vector<std::pair<Clock::time_point, double>>;

/// The end-to-end metrics, host-speed scaled (hostspeed.hpp), with the raw
/// figures in the env line.  Throughput is the closed-loop rate: each
/// client's ops over its summed op time (housekeeping between ops excluded);
/// events_per_s is that times the mean units (classes, events) per op.
/// peak_rss_mb is the peak RSS above `rss_base_mb`, the RSS once the
/// benchmark's own inputs and kernels were in memory and before the
/// program's first call.
void add_end_to_end(Result& result, const SetupTimes& setup,
                    const HostSpeed& setup_host, const LoopStats& loop,
                    double units, const HostSpeed& host, double rss_base_mb) {
  std::vector<double> setup_ms;
  std::vector<double> raw_setup_ms;
  for (const auto& [at, ms] : setup) {
    setup_ms.push_back(ms * setup_host.factor(at));
    raw_setup_ms.push_back(ms);
  }
  const std::vector<double> scaled = scaled_latencies(loop, host);
  std::map<int, std::pair<double, double>> per_client;  // ops, busy ms
  for (std::size_t i = 0; i < loop.ops.size(); ++i) {
    auto& [ops, busy] = per_client[loop.ops[i].client];
    ops += 1.0;
    busy += scaled[i];
  }
  double throughput = 0.0;
  for (const auto& [client, totals] : per_client) {
    throughput += totals.first / (totals.second / 1000.0);
  }
  const double units_per_op = units / static_cast<double>(loop.attempted);
  result.add("setup_s", median(setup_ms) / 1000.0, "s");
  result.add("throughput_per_s", throughput, "1/s");
  result.add("events_per_s", throughput * units_per_op, "1/s");
  result.add("latency_ms.p50", quantile(scaled, 0.5), "ms");
  result.add("latency_ms.p90", quantile(scaled, 0.9), "ms");
  result.add("peak_rss_mb", loop.peak_rss_mb - rss_base_mb, "MB");

  const std::vector<double> raw = raw_latencies(loop);
  result.env["samples"] = std::to_string(loop.ops.size());
  result.env["setup_repeats"] = std::to_string(setup.size());
  result.env["raw.setup_s"] = std::to_string(median(raw_setup_ms) / 1000.0);
  result.env["raw.throughput_per_s"] = std::to_string(
      static_cast<double>(loop.attempted) / loop.wall_s);
  result.env["raw.latency_ms.p50"] = std::to_string(quantile(raw, 0.5));
  result.env["raw.latency_ms.p90"] = std::to_string(quantile(raw, 0.9));
  result.env["host_kernel_ms"] = std::to_string(host.median_kernel_ms());
  result.env["host_kernel_samples"] = std::to_string(host.samples());
  result.env["raw.peak_rss_mb"] = std::to_string(loop.peak_rss_mb);
  result.env["rss_base_mb"] = std::to_string(rss_base_mb);
}

/// Finishes a traced run: the per-layer sheet plus op time, unaccounted time
/// and the overhead of tracing (traced op p50 against the untraced phase's,
/// both host-speed scaled).
void add_layers(Result& result, Layers& layers, const LoopStats& untraced,
                const LoopStats& traced, double additive_ms,
                const HostSpeed& host) {
  const double ops = static_cast<double>(traced.attempted);
  double op_total = 0.0;
  for (const OpSample& op : traced.ops) op_total += op.latency_ms;
  layers.set("op_ms", ops > 0 ? op_total / ops : 0.0);
  layers.set("unaccounted_ms", ops > 0 ? (op_total - additive_ms) / ops : 0.0);
  layers.set("trace_overhead_pct",
             (median(scaled_latencies(traced, host)) /
                  median(scaled_latencies(untraced, host)) -
              1.0) *
                 100.0);
  if (const double lex = layers.total("upy.lex_ms"); lex > 0) {
    layers.set("upy.tokens_per_s", layers.total("upy.tokens") / lex * 1000.0);
  }
  for (const auto& [spec, value] : layers.report(ops)) {
    result.add(spec.name, value, spec.unit);
  }
  result.attempted = untraced.attempted + traced.attempted;
  result.failed = untraced.failed + traced.failed;
  result.env["samples"] = std::to_string(traced.ops.size());
}

// -- shelleyc runs ----------------------------------------------------------

struct ToolRun {
  int status = 0;
  std::string out;
  std::string err;
  bool operator==(const ToolRun&) const = default;
};

ToolRun run_shelleyc(const std::vector<std::string>& files,
                     const Config& config,
                     const std::optional<std::string>& cache_dir = {},
                     bool cache_stats = false) {
  engine::CliOptions options;
  options.files = files;
  options.jobs = config.jobs;
  options.cache_dir = cache_dir;
  options.cache_stats = cache_stats;
  std::istringstream in;
  std::ostringstream out;
  std::ostringstream err;
  ToolRun run;
  run.status = engine::run_tool(options, in, out, err);
  run.out = out.str();
  run.err = err.str();
  return run;
}

/// The "Name: ok|FAILED" lines heading a text report.
std::map<std::string, bool> report_verdicts(const std::string& out) {
  std::map<std::string, bool> verdicts;
  std::istringstream lines(out);
  std::string line;
  while (std::getline(lines, line) && !line.empty()) {
    const auto colon = line.rfind(": ");
    if (colon == std::string::npos) break;
    const std::string verdict = line.substr(colon + 2);
    if (verdict != "ok" && verdict != "FAILED") break;
    verdicts[line.substr(0, colon)] = verdict == "ok";
  }
  return verdicts;
}

/// The planted answer: exit status and every class verdict.
bool matches_plan(const Project& project, const ToolRun& run) {
  return run.status == project.expected_status() && run.err.empty() &&
         report_verdicts(run.out) == project.verdicts;
}

struct Corpus {
  std::vector<Project> projects;
  std::vector<std::vector<std::string>> paths;
};

Corpus write_corpus(const Args& args, const std::string& name, int count,
                    Result& result) {
  // A fixed salt per corpus name keeps the two corpora distinct.
  std::uint64_t salt = 0;
  for (char c : name) salt = salt * 131 + static_cast<unsigned char>(c);
  Rng rng(args.seed ^ salt);
  Corpus corpus;
  corpus.projects = make_corpus(rng, name.substr(0, 1), count);
  std::size_t bytes = 0;
  std::size_t classes = 0;
  int defective = 0;
  for (int p = 0; p < count; ++p) {
    const Project& project = corpus.projects[static_cast<std::size_t>(p)];
    std::vector<std::string> paths;
    for (const SourceFile& file : project.files) {
      const fs::path path = args.work / name / ("p" + std::to_string(p)) /
                            file.name;
      write_file(path, file.text);
      paths.push_back(path.string());
    }
    bytes += project.bytes();
    classes += project.verdicts.size();
    defective += project.expected_status() != 0 ? 1 : 0;
    corpus.paths.push_back(std::move(paths));
  }
  result.env["corpus_projects"] = std::to_string(count);
  result.env["corpus_bytes"] = std::to_string(bytes);
  result.env["corpus_classes"] = std::to_string(classes);
  result.env["corpus_defective_projects"] = std::to_string(defective);
  return corpus;
}

}  // namespace

// -- cold-verify and cached-rerun -------------------------------------------

namespace {

/// Both workloads run one run_tool per op over a corpus project.  Without a
/// cache (cold-verify) set-up is a warm-up pass and every op is checked
/// against the planted answer.  With one (cached-rerun) set-up is the cache
/// fill, and every op must replay every class from the cache: its output is
/// the cold output plus a --cache-stats block of all hits and nothing else.
void run_verify(const Args& args, const Config& config, bool cached,
                Result& result) {
  const Corpus corpus =
      write_corpus(args, cached ? "cached" : "cold",
                   cached ? config.cached_projects : config.cold_projects,
                   result);
  const auto count = corpus.projects.size();
  // Each cache fill gets a fresh directory, so no deletion (and the disk's
  // discard of the freed blocks) runs next to a timed fill.
  const auto fill_dir = [&](int r) -> std::optional<std::string> {
    if (!cached) return std::nullopt;
    return (args.work / ("cache-" + std::to_string(r))).string();
  };
  std::optional<std::string> cache_dir;
  HostSpeed host(compute_kernel, kComputeReferenceMs);
  host.sample();  // also builds the kernel's tables before the baseline
  SampleBuffers buffers(1, args.seconds);
  const double rss_base = current_rss_mb();

  // Cached: the cold run of every project (untimed) is the reference.
  std::vector<ToolRun> reference;
  std::vector<ToolRun> expected;
  if (cached) {
    for (std::size_t p = 0; p < count; ++p) {
      reference.push_back(run_shelleyc(corpus.paths[p], config));
      result.setup_ok = result.setup_ok &&
                        matches_plan(corpus.projects[p], reference.back());
      ToolRun run = reference.back();
      run.out += "\ncache statistics\n  hits            " +
                 std::to_string(corpus.projects[p].verdicts.size()) +
                 "\n  misses          0\n  invalidations   0\n"
                 "  stores          0\n  store failures  0\n";
      expected.push_back(std::move(run));
    }
  }
  const auto correct = [&](std::size_t p, const ToolRun& run) {
    return cached ? run == expected[p] : matches_plan(corpus.projects[p], run);
  };

  // Set-up: the cache fill over the corpus, or the warm-up pass.
  SetupTimes setup;
  const std::size_t setup_projects =
      cached ? count : static_cast<std::size_t>(config.cold_warmup_projects);
  for (int r = 0; r < kSetupRepeats; ++r) {
    cache_dir = fill_dir(r);
    std::vector<ToolRun> runs;
    host.sample();
    const auto start = Clock::now();
    for (std::size_t p = 0; p < setup_projects; ++p) {
      runs.push_back(run_shelleyc(corpus.paths[p], config, cache_dir));
    }
    setup.emplace_back(start, ms_since(start));
    host.sample();
    for (std::size_t p = 0; p < runs.size(); ++p) {
      result.setup_ok = result.setup_ok &&
                        (cached ? runs[p] == reference[p]
                                : matches_plan(corpus.projects[p], runs[p]));
    }
  }

  std::uint64_t classes = 0;
  const OpFn plain = [&](int, std::uint64_t k, double& latency, double&) {
    const std::size_t p = k % count;
    const auto start = Clock::now();
    const ToolRun run =
        run_shelleyc(corpus.paths[p], config, cache_dir, cached);
    latency = ms_since(start);
    classes += corpus.projects[p].verdicts.size();
    return correct(p, run);
  };

  if (!args.trace) {
    const LoopStats loop = closed_loop(args.seconds, 1, plain, host, buffers);
    result.attempted = loop.attempted;
    result.failed = loop.failed;
    add_end_to_end(result, setup, host, loop, static_cast<double>(classes),
                   host, rss_base);
    return;
  }
  const double untraced_s = args.seconds * kTraceUntracedShare;
  const LoopStats untraced = closed_loop(untraced_s, 1, plain, host, buffers);
  Layers layers;
  double additive = 0.0;
  std::optional<shelley::core::BehaviorCache> cache;
  if (cache_dir) cache.emplace(*cache_dir);
  const OpFn traced = [&](int c, std::uint64_t k, double& latency,
                          double& pause) {
    const bool ok = plain(c, k, latency, pause);
    const auto start = Clock::now();
    additive += trace_pipeline(corpus.projects[k % count],
                               cache ? &*cache : nullptr, layers);
    pause = ms_since(start);
    return ok;
  };
  const LoopStats loop =
      closed_loop(args.seconds - untraced_s, 1, traced, host, buffers);
  if (cache) {
    const auto stats = cache->stats();
    layers.set("shelley.cache.hit_ratio",
               static_cast<double>(stats.hits) /
                   static_cast<double>(std::max<std::uint64_t>(
                       1, stats.hits + stats.misses + stats.invalidations)));
  }
  add_layers(result, layers, untraced, loop, additive, host);
}

}  // namespace

void run_cold_verify(const Args& args, const Config& config, Result& result) {
  run_verify(args, config, false, result);
}

void run_cached_rerun(const Args& args, const Config& config, Result& result) {
  run_verify(args, config, true, result);
}

// -- edit-loop ----------------------------------------------------------------

namespace {

/// A blocking NDJSON client: send one line, read exactly one reply line.
class Client {
 public:
  explicit Client(const std::string& socket_path) {
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    if (socket_path.size() >= sizeof(addr.sun_path)) {
      throw std::runtime_error("socket path too long: " + socket_path);
    }
    std::memcpy(addr.sun_path, socket_path.c_str(), socket_path.size() + 1);
    fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (fd_ < 0 || ::connect(fd_, reinterpret_cast<const sockaddr*>(&addr),
                             sizeof(addr)) != 0) {
      if (fd_ >= 0) ::close(fd_);
      throw std::runtime_error("cannot connect to " + socket_path);
    }
  }
  ~Client() { ::close(fd_); }
  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;

  std::string request(const std::string& line) {
    const std::string framed = line + "\n";
    std::size_t sent = 0;
    while (sent < framed.size()) {
      const ssize_t n = ::send(fd_, framed.data() + sent,
                               framed.size() - sent, MSG_NOSIGNAL);
      if (n <= 0) throw std::runtime_error("send failed");
      sent += static_cast<std::size_t>(n);
    }
    for (;;) {
      const auto newline = buffer_.find('\n', scanned_);
      if (newline != std::string::npos) {
        std::string reply = buffer_.substr(0, newline);
        buffer_.erase(0, newline + 1);
        scanned_ = 0;
        return reply;
      }
      scanned_ = buffer_.size();
      char chunk[65536];
      const ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
      if (n <= 0) throw std::runtime_error("server closed the connection");
      buffer_.append(chunk, static_cast<std::size_t>(n));
    }
  }

 private:
  int fd_ = -1;
  std::string buffer_;
  std::size_t scanned_ = 0;
};

/// One editor session's inputs, requests and expected replies.
struct EditSession {
  EditProject edit;
  std::vector<std::string> paths;
  std::string load;
  std::string verify = "{\"cmd\":\"verify\"}";
  std::vector<std::string> plant;    ///< per toggle: update to its defect
  std::vector<std::string> restore;  ///< per toggle: update back to valid
  std::vector<std::string> comment_edit;     ///< per file
  std::vector<std::string> comment_restore;  ///< per file
  std::string monitor;
  std::string ndjson;
  NdjsonReference monitor_reference;
  ToolRun expected_valid;               ///< cold run, every class valid
  std::vector<ToolRun> expected_defect;  ///< cold run, per planted toggle
};

/// The edits of a session's op k: toggle (k / 2) mod n is planted on even
/// ops and restored on odd ones; the comment-only edit goes to the next file.
struct EditStep {
  std::size_t toggle = 0;
  bool plant = true;
  std::size_t comment_file = 0;
};

EditStep edit_step(const EditProject& edit, std::uint64_t k) {
  EditStep step;
  step.toggle = static_cast<std::size_t>(k / 2 % edit.toggles.size());
  step.plant = k % 2 == 0;
  step.comment_file =
      (edit.toggles[step.toggle].file + 1) % edit.project.files.size();
  return step;
}

std::string update_request(const std::string& path, const std::string& text) {
  shelley::JsonWriter writer;
  writer.begin_object();
  writer.key("cmd").value("update");
  writer.key("file").value(path);
  writer.key("text").value(text);
  writer.end_object();
  return writer.str();
}

bool verify_reply_matches(const std::string& reply, const ToolRun& expected) {
  const shelley::JsonValue value = shelley::parse_json(reply);
  return value.find("rejected") == nullptr && value.at("ok").as_bool() &&
         static_cast<int>(value.at("status").as_number()) == expected.status &&
         value.at("output").as_string() == expected.out &&
         value.at("errors").as_string() == expected.err;
}

bool update_reply_ok(const std::string& reply) {
  const shelley::JsonValue value = shelley::parse_json(reply);
  return value.find("rejected") == nullptr && value.at("ok").as_bool() &&
         value.at("status").as_number() == 0;
}

bool monitor_reply_matches(const std::string& reply,
                           const NdjsonReference& reference) {
  const shelley::JsonValue value = shelley::parse_json(reply);
  const auto number = [&](const char* key) {
    return static_cast<std::uint64_t>(value.at(key).as_number());
  };
  const auto& reports = value.at("reports").as_array();
  return value.find("rejected") == nullptr && value.at("ok").as_bool() &&
         number("events") == reference.events &&
         number("violations") == reference.violations &&
         number("devices") == reference.devices &&
         number("violated_devices") == 1 && reports.size() == 1 &&
         static_cast<std::uint64_t>(reports[0].at("index").as_number()) ==
             reference.first_violation_index;
}

/// A running SocketServer with one connected client per session.
class ServerFixture {
 public:
  ServerFixture(const Config& config, const std::string& socket_path,
                int clients) {
    engine::CliOptions defaults;
    defaults.jobs = config.jobs;
    engine::SocketServer::Options options;
    options.socket_path = socket_path;
    options.max_inflight = config.max_inflight;
    server_ = std::make_unique<engine::SocketServer>(defaults, options,
                                                     nullptr);
    std::ostringstream err;
    if (!server_->start(err)) {
      throw std::runtime_error("server start failed: " + err.str());
    }
    thread_ = std::thread([this] { server_->serve(); });
    for (int c = 0; c < clients; ++c) {
      clients_.push_back(std::make_unique<Client>(socket_path));
    }
  }
  ~ServerFixture() {
    clients_.clear();
    server_->request_stop();
    thread_.join();
  }
  ServerFixture(const ServerFixture&) = delete;
  ServerFixture& operator=(const ServerFixture&) = delete;

  Client& client(int c) { return *clients_[static_cast<std::size_t>(c)]; }

 private:
  std::unique_ptr<engine::SocketServer> server_;
  std::thread thread_;
  std::vector<std::unique_ptr<Client>> clients_;
};

/// Runs `fn(c)` for every client on its own thread and waits for all.
void for_each_client(int clients, const std::function<void(int)>& fn) {
  std::vector<std::thread> threads;
  for (int c = 0; c < clients; ++c) threads.emplace_back(fn, c);
  for (std::thread& thread : threads) thread.join();
}

}  // namespace

void run_edit_loop(const Args& args, const Config& config, Result& result) {
  const int clients = config.edit_connections;
  Rng rng(args.seed ^ 0xed17ULL);
  std::vector<EditSession> sessions(static_cast<std::size_t>(clients));
  std::size_t bytes = 0;
  std::size_t largest = 0;
  for (int c = 0; c < clients; ++c) {
    EditSession& s = sessions[static_cast<std::size_t>(c)];
    s.edit = make_edit_project(rng, "e" + std::to_string(c) + "_",
                               config.edit_classes, config.edit_composites,
                               config.edit_max_ops);
    const auto& files = s.edit.project.files;
    shelley::JsonWriter load;
    load.begin_object();
    load.key("cmd").value("load");
    load.key("files").begin_array();
    for (std::size_t f = 0; f < files.size(); ++f) {
      const fs::path path =
          args.work / "edit" / ("s" + std::to_string(c)) / files[f].name;
      write_file(path, files[f].text);
      s.paths.push_back(path.string());
      load.value(path.string());
      s.comment_edit.push_back(
          update_request(path.string(), s.edit.comment_texts[f]));
      s.comment_restore.push_back(update_request(path.string(), files[f].text));
      bytes += files[f].text.size();
      largest = std::max(largest, files[f].text.size());
    }
    load.end_array();
    load.end_object();
    s.load = load.str();
    s.ndjson = make_ndjson_events(rng, s.edit.monitor_spec,
                                  config.edit_monitor_devices,
                                  config.edit_monitor_events,
                                  s.monitor_reference);
    shelley::JsonWriter monitor;
    monitor.begin_object();
    monitor.key("cmd").value("monitor");
    monitor.key("class").value(s.edit.monitor_class);
    monitor.key("ndjson").value(s.ndjson);
    monitor.end_object();
    s.monitor = monitor.str();
    for (const EditProject::Toggle& toggle : s.edit.toggles) {
      const std::string& path = s.paths[toggle.file];
      s.plant.push_back(update_request(path, toggle.defect_text));
      s.restore.push_back(update_request(path, files[toggle.file].text));
    }
  }
  HostSpeed host(compute_kernel, kComputeReferenceMs);
  host.sample();  // also builds the kernel's tables before the baseline
  SampleBuffers buffers(clients, args.seconds);
  const double rss_base = current_rss_mb();

  // Cold references: every class valid, then each toggle planted (untimed).
  for (EditSession& s : sessions) {
    const auto& files = s.edit.project.files;
    s.expected_valid = run_shelleyc(s.paths, config);
    result.setup_ok = result.setup_ok &&
                      matches_plan(s.edit.project, s.expected_valid);
    for (const EditProject::Toggle& toggle : s.edit.toggles) {
      const std::string& path = s.paths[toggle.file];
      write_file(path, toggle.defect_text);
      s.expected_defect.push_back(run_shelleyc(s.paths, config));
      write_file(path, files[toggle.file].text);
      Project planted = s.edit.project;
      planted.verdicts[toggle.cls] = false;
      result.setup_ok = result.setup_ok &&
                        matches_plan(planted, s.expected_defect.back());
    }
  }
  result.env["edit_sessions"] = std::to_string(clients);
  result.env["edit_bytes"] = std::to_string(bytes);
  result.env["edit_largest_file_bytes"] = std::to_string(largest);
  result.env["edit_toggles"] = std::to_string(config.edit_composites);
  result.env["edit_monitor_events"] =
      std::to_string(config.edit_monitor_events);

  shelley::support::guard::ScopedLimits guard({});
  const std::string socket_path = (args.work / "edit.sock").string();

  // Set-up: server start, every session's load, and its first verify.
  SetupTimes setup;
  std::unique_ptr<ServerFixture> server;
  for (int r = 0; r < kSetupRepeats; ++r) {
    server.reset();
    std::atomic<bool> ok{true};
    host.sample();
    const auto start = Clock::now();
    server = std::make_unique<ServerFixture>(config, socket_path, clients);
    for_each_client(clients, [&](int c) {
      const EditSession& s = sessions[static_cast<std::size_t>(c)];
      Client& client = server->client(c);
      try {
        const bool loaded = update_reply_ok(client.request(s.load));
        const std::string verified = client.request(s.verify);
        if (!loaded || !verify_reply_matches(verified, s.expected_valid)) {
          ok = false;
        }
      } catch (const std::exception&) {
        ok = false;
      }
    });
    setup.emplace_back(start, ms_since(start));
    host.sample();
    result.setup_ok = result.setup_ok && ok;
  }

  // The five request lines of op k and the cold run its verifies must equal.
  const auto op_lines = [&](const EditSession& s, std::uint64_t k) {
    const EditStep step = edit_step(s.edit, k);
    return std::array<const std::string*, 5>{
        step.plant ? &s.plant[step.toggle] : &s.restore[step.toggle],
        &s.verify,
        step.plant ? &s.comment_edit[step.comment_file]
                   : &s.comment_restore[step.comment_file],
        &s.verify, &s.monitor};
  };
  const auto op_expected = [&](const EditSession& s,
                               std::uint64_t k) -> const ToolRun& {
    const EditStep step = edit_step(s.edit, k);
    return step.plant ? s.expected_defect[step.toggle] : s.expected_valid;
  };

  // One op: semantic edit + verify, comment-only edit + verify, monitor.
  std::vector<std::uint64_t> rejected(static_cast<std::size_t>(clients), 0);
  const auto op = [&](int c, std::uint64_t k, double& latency,
                      std::vector<double>* trips) {
    const EditSession& s = sessions[static_cast<std::size_t>(c)];
    Client& client = server->client(c);
    const auto lines = op_lines(s, k);
    std::string replies[5];
    const auto start = Clock::now();
    for (int i = 0; i < 5; ++i) {
      const auto sent = Clock::now();
      replies[i] = client.request(*lines[static_cast<std::size_t>(i)]);
      if (trips != nullptr) trips->push_back(ms_since(sent));
    }
    latency = ms_since(start);
    for (const std::string& reply : replies) {
      if (reply.find("\"rejected\":true") != std::string::npos) {
        ++rejected[static_cast<std::size_t>(c)];
      }
    }
    const ToolRun& expected = op_expected(s, k);
    return update_reply_ok(replies[0]) &&
           verify_reply_matches(replies[1], expected) &&
           update_reply_ok(replies[2]) &&
           verify_reply_matches(replies[3], expected) &&
           monitor_reply_matches(replies[4], s.monitor_reference);
  };
  // Each client's ops continue from its own op counter across the phases of
  // a traced run, so the session's edit state carries over.
  std::vector<std::uint64_t> done(static_cast<std::size_t>(clients), 0);
  const OpFn plain = [&](int c, std::uint64_t, double& latency, double&) {
    return op(c, done[static_cast<std::size_t>(c)]++, latency, nullptr);
  };
  const double events_per_op = config.edit_monitor_events;

  if (!args.trace) {
    const LoopStats loop =
        closed_loop(args.seconds, clients, plain, host, buffers);
    result.attempted = loop.attempted;
    result.failed = loop.failed;
    add_end_to_end(result, setup, host, loop,
                   static_cast<double>(loop.attempted) * events_per_op, host,
                   rss_base);
    server.reset();
    return;
  }

  const double untraced_s = args.seconds * kTraceUntracedShare;
  const LoopStats untraced =
      closed_loop(untraced_s, clients, plain, host, buffers);

  // Mirrors per session: an in-process Session fed the same request lines,
  // and a bare Workspace + QueryEngine replaying the same edits.  Both are
  // brought to the live session's state first (untimed): after an odd
  // number of ops the last toggle is planted and its comment edited.
  struct Mirror {
    std::unique_ptr<engine::Session> session;
    std::unique_ptr<engine::Workspace> workspace;
    std::unique_ptr<engine::QueryEngine> engine;
    Layers layers;
    double additive = 0.0;
    double ndjson_ns = 0.0;
    double ndjson_events = 0.0;
  };
  // The texts op k writes: (toggle file, text), (comment file, text).
  const auto op_texts = [&](const EditSession& s, std::uint64_t k) {
    const EditStep step = edit_step(s.edit, k);
    const auto& toggle = s.edit.toggles[step.toggle];
    const auto& files = s.edit.project.files;
    return std::array<std::pair<std::size_t, const std::string*>, 2>{
        std::pair{toggle.file, step.plant ? &toggle.defect_text
                                          : &files[toggle.file].text},
        std::pair{step.comment_file,
                  step.plant ? &s.edit.comment_texts[step.comment_file]
                             : &files[step.comment_file].text}};
  };
  std::vector<Mirror> mirrors(static_cast<std::size_t>(clients));
  for (int c = 0; c < clients; ++c) {
    const EditSession& s = sessions[static_cast<std::size_t>(c)];
    Mirror& m = mirrors[static_cast<std::size_t>(c)];
    engine::CliOptions defaults;
    defaults.jobs = config.jobs;
    m.session = std::make_unique<engine::Session>(defaults);
    (void)m.session->handle_line(s.load);
    (void)m.session->handle_line(s.verify);
    m.workspace = std::make_unique<engine::Workspace>();
    m.engine = std::make_unique<engine::QueryEngine>(*m.workspace);
    for (const std::string& path : s.paths) m.workspace->load_file(path);
    (void)m.engine->verify_all(config.jobs);
    m.workspace->rewind_to_loaded();
    const std::uint64_t k = done[static_cast<std::size_t>(c)];
    if (k % 2 == 1) {
      const auto lines = op_lines(s, k - 1);
      (void)m.session->handle_line(*lines[0]);
      (void)m.session->handle_line(*lines[2]);
      for (const auto& [file, text] : op_texts(s, k - 1)) {
        m.engine->apply_update(
            m.workspace->update_source(s.paths[file], *text));
      }
    }
  }

  const OpFn traced = [&](int c, std::uint64_t, double& latency,
                          double& pause) {
    const EditSession& s = sessions[static_cast<std::size_t>(c)];
    Mirror& m = mirrors[static_cast<std::size_t>(c)];
    std::vector<double> trips;
    const std::uint64_t k = done[static_cast<std::size_t>(c)]++;
    const bool ok = op(c, k, latency, &trips);
    const auto pause_start = Clock::now();
    const auto lines = op_lines(s, k);
    const char* kinds[5] = {"engine.session.update_ms",
                            "engine.session.verify_ms",
                            "engine.session.update_ms",
                            "engine.session.verify_ms",
                            "engine.session.monitor_ms"};
    double handled = 0.0;
    double trip_total = 0.0;
    for (std::size_t i = 0; i < 5; ++i) {
      const auto start = Clock::now();
      const auto outcome = m.session->handle_line(*lines[i]);
      const double ms = ms_since(start);
      m.layers.add(kinds[i], ms);
      handled += ms;
      trip_total += trips[i];
      m.layers.add("support.json_ms", time_json_round_trip(*lines[i]) +
                                          time_json_round_trip(
                                              outcome.response));
    }
    m.layers.add("engine.wire_ms", trip_total - handled);
    m.additive += trip_total;

    // The same edits straight on the workspace and query engine.
    const char* invalidated[2] = {"engine.memo.invalidated",
                                  "engine.memo.invalidated_comment"};
    const auto texts = op_texts(s, k);
    for (std::size_t i = 0; i < 2; ++i) {
      auto start = Clock::now();
      const auto update =
          m.workspace->update_source(s.paths[texts[i].first], *texts[i].second);
      m.layers.add("engine.workspace.update_ms", ms_since(start));
      m.layers.add(invalidated[i],
                   static_cast<double>(m.engine->apply_update(update)));
      start = Clock::now();
      (void)m.engine->verify_all(config.jobs);
      m.layers.add("engine.query.verify_all_ms", ms_since(start));
      m.workspace->rewind_to_loaded();
    }
    const auto* spec =
        m.workspace->verifier().find_class(s.edit.monitor_class);
    auto start = Clock::now();
    shelley::fsm::CompiledDfa table = m.engine->compiled_table(*spec);
    m.layers.add("engine.query.compiled_table_ms", ms_since(start));
    shelley::monitor::StreamChecker checker(std::move(table));
    start = Clock::now();
    checker.ingest_ndjson(s.ndjson);
    m.ndjson_ns += ms_since(start) * 1e6;
    m.ndjson_events += static_cast<double>(s.monitor_reference.events);
    pause = ms_since(pause_start);
    return ok;
  };
  const LoopStats loop =
      closed_loop(args.seconds - untraced_s, clients, traced, host, buffers);

  // Fold the per-session sheets into one.
  Layers layers;
  double additive = 0.0;
  double ndjson_ns = 0.0;
  double ndjson_events = 0.0;
  double memo_hits = 0.0;
  double memo_lookups = 0.0;
  for (const Mirror& m : mirrors) {
    for (const LayerSpec& spec : layer_specs()) {
      layers.add(spec.name, m.layers.total(spec.name));
    }
    additive += m.additive;
    ndjson_ns += m.ndjson_ns;
    ndjson_events += m.ndjson_events;
    const auto memo = m.engine->memo().stats();
    memo_hits += static_cast<double>(memo.hits);
    memo_lookups += static_cast<double>(memo.hits + memo.misses);
  }
  layers.set("monitor.ndjson_ns_per_event", ndjson_ns / ndjson_events);
  layers.set("engine.memo.hit_ratio", memo_hits / std::max(1.0, memo_lookups));
  std::uint64_t rejects = 0;
  for (std::uint64_t r : rejected) rejects += r;
  layers.set("engine.server.rejected", static_cast<double>(rejects));
  server.reset();
  add_layers(result, layers, untraced, loop, additive, host);
}

// -- fleet-ingest -------------------------------------------------------------

void run_fleet_ingest(const Args& args, const Config& config, Result& result) {
  const FleetStream stream = make_fleet(args.seed, config.fleet);
  const std::string ndjson = args.trace ? fleet_ndjson(stream, 1) : "";
  result.env["fleet_devices"] = std::to_string(stream.devices);
  result.env["fleet_frames"] = std::to_string(stream.frames.size());
  result.env["fleet_frame_events"] =
      std::to_string(config.fleet.frame_events);
  result.env["fleet_frame_bytes"] =
      std::to_string(stream.frames.front().bytes.size());
  result.env["fleet_violating_devices"] =
      std::to_string(stream.first_violations.size());

  namespace monitor = shelley::monitor;
  const monitor::StreamChecker::Options options;  // shelley-monitor defaults

  // Set-up: the table compile through the query engine.  It is compute
  // work, scaled by the compute kernel; the frames by the fleet reference.
  FleetReference reference(stream);
  HostSpeed host([&reference] { return reference.pass(); },
                 kFleetReferenceMs);
  HostSpeed setup_host(compute_kernel, kComputeReferenceMs);
  host.sample();  // the kernels' tables are in memory before the baseline
  setup_host.sample();
  SampleBuffers buffers(1, args.seconds);
  const double rss_base = current_rss_mb();
  SetupTimes setup;
  shelley::fsm::CompiledDfa table;
  std::unordered_map<std::string, shelley::SourceLoc> locations;
  double compile_ms = 0.0;
  for (int r = 0; r < kFleetSetupRepeats; ++r) {
    if (r % 20 == 0) setup_host.sample();
    const auto start = Clock::now();
    engine::Workspace workspace;
    workspace.load_source("fleet.py", stream.source);
    engine::QueryEngine query(workspace);
    const auto* spec = workspace.verifier().find_class(stream.cls.name);
    if (spec == nullptr) throw std::runtime_error("fleet class not loaded");
    const auto compile_start = Clock::now();
    table = query.compiled_table(*spec);
    compile_ms = ms_since(compile_start);
    locations.clear();
    for (const auto& op : spec->operations) locations.emplace(op.name, op.loc);
    setup.emplace_back(start, ms_since(start));
  }
  setup_host.sample();
  const auto fresh_checker = [&](std::size_t shards) {
    monitor::StreamChecker::Options shard_options = options;
    shard_options.shards = shards;
    auto checker =
        std::make_unique<monitor::StreamChecker>(table, shard_options);
    checker->set_source_locations(locations);
    return checker;
  };
  auto checker = fresh_checker(options.shards);

  // The retained reports of an epoch prefix: the first max_violations first
  // violations among events [0, events).
  const auto check_reports = [&](std::uint64_t events) {
    std::vector<const FirstViolation*> want;
    for (const FirstViolation& v : stream.first_violations) {
      if (v.event_index < events) want.push_back(&v);
    }
    const auto& got = checker->violations();
    const std::size_t kept = std::min(want.size(), options.max_violations);
    bool ok = got.size() == kept &&
              checker->violated_devices() == want.size() &&
              checker->stats().violations_dropped == want.size() - kept;
    for (std::size_t i = 0; ok && i < kept; ++i) {
      ok = got[i].event_index == want[i]->event_index &&
           got[i].device_event_index == want[i]->device_event_index &&
           got[i].device == want[i]->device;
    }
    return ok;
  };

  const std::size_t frames = stream.frames.size();
  std::uint64_t events = 0;
  std::uint64_t epoch_events = 0;
  const auto op = [&](std::uint64_t k, double& latency, double& pause) {
    const std::size_t f = k % frames;
    bool ok = true;
    if (f == 0 && k > 0) {
      // Epoch end: check the reports, then start a fresh fleet (untimed).
      const auto start = Clock::now();
      ok = check_reports(epoch_events);
      checker = fresh_checker(options.shards);
      epoch_events = 0;
      pause = ms_since(start);
    }
    const FleetFrame& frame = stream.frames[f];
    const monitor::StreamStats before = checker->stats();
    const std::string_view body = std::string_view(frame.bytes).substr(12);
    const auto start = Clock::now();
    checker->ingest_binary(body);
    latency = ms_since(start);
    const monitor::StreamStats& after = checker->stats();
    events += frame.events;
    epoch_events += frame.events;
    return ok && after.events - before.events == frame.events &&
           after.ok - before.ok == frame.ok &&
           after.violations - before.violations == frame.violations &&
           after.devices - before.devices == frame.new_devices;
  };
  const OpFn plain = [&](int, std::uint64_t k, double& latency,
                         double& pause) { return op(k, latency, pause); };

  if (!args.trace) {
    const LoopStats loop = closed_loop(args.seconds, 1, plain, host, buffers);
    result.attempted = loop.attempted;
    result.failed = loop.failed + (check_reports(epoch_events) ? 0 : 1);
    add_end_to_end(result, setup, setup_host, loop, static_cast<double>(events),
                   host, rss_base);
    return;
  }

  const double untraced_s = args.seconds * kTraceUntracedShare;
  const LoopStats untraced = closed_loop(untraced_s, 1, plain, host, buffers);
  // Traced phase: the same frames on a mirror checker, on a sharded one,
  // and as bare table steps over the decoded letters.
  const std::size_t shards = shelley::support::ThreadPool::hardware_default();
  auto mirror = fresh_checker(options.shards);
  auto sharded = fresh_checker(shards);
  std::vector<shelley::fsm::CompiledDfa::Letter> letters;
  for (int op_index = 0; op_index < stream.cls.ops(); ++op_index) {
    letters.push_back(table.letter_of("op" + std::to_string(op_index)));
  }
  std::vector<std::uint32_t> states(static_cast<std::size_t>(
                                        config.fleet.devices),
                                    table.initial());
  std::vector<std::size_t> frame_start(frames + 1, 0);
  for (std::size_t f = 0; f < frames; ++f) {
    frame_start[f + 1] = frame_start[f] + stream.frames[f].events;
  }
  // Bring the mirrors to the live checker's point in the epoch (untimed).
  for (std::size_t f = 0; f < untraced.attempted % frames; ++f) {
    const std::string_view body =
        std::string_view(stream.frames[f].bytes).substr(12);
    mirror->ingest_binary(body);
    sharded->ingest_binary(body);
    for (std::size_t i = frame_start[f]; i < frame_start[f + 1]; ++i) {
      std::uint32_t& state = states[stream.event_device[i]];
      state = table.step(state, letters[stream.event_op[i]]);
    }
  }
  Layers layers;
  double additive = 0.0;
  double mirror_ns = 0.0;
  double step_ns = 0.0;
  double sharded_ns = 0.0;
  double traced_events = 0.0;
  std::uint64_t sink = 0;
  std::uint64_t k_traced = untraced.attempted;
  const OpFn traced = [&](int, std::uint64_t, double& latency,
                          double& pause) {
    const std::uint64_t k = k_traced++;
    const std::size_t f = k % frames;
    const bool ok = op(k, latency, pause);
    const auto pause_start = Clock::now();
    if (f == 0) {
      mirror = fresh_checker(options.shards);
      sharded = fresh_checker(shards);
      std::fill(states.begin(), states.end(), table.initial());
    }
    const std::string_view body =
        std::string_view(stream.frames[f].bytes).substr(12);
    auto start = Clock::now();
    mirror->ingest_binary(body);
    const double ingest_ms = ms_since(start);
    start = Clock::now();
    for (std::size_t i = frame_start[f]; i < frame_start[f + 1]; ++i) {
      std::uint32_t& state = states[stream.event_device[i]];
      state = table.step(state, letters[stream.event_op[i]]);
    }
    const double step_ms = ms_since(start);
    start = Clock::now();
    sharded->ingest_binary(body);
    sharded_ns += ms_since(start) * 1e6;
    mirror_ns += ingest_ms * 1e6;
    step_ns += step_ms * 1e6;
    additive += ingest_ms;
    traced_events += static_cast<double>(stream.frames[f].events);
    pause += ms_since(pause_start);
    return ok;
  };
  const LoopStats loop =
      closed_loop(args.seconds - untraced_s, 1, traced, host, buffers);
  for (std::uint32_t state : states) sink += state;
  result.env["fleet_step_checksum"] = std::to_string(sink);

  // NDJSON: the first frame's events as text, on a fresh checker.
  auto text_checker = fresh_checker(options.shards);
  const auto ndjson_start = Clock::now();
  text_checker->ingest_ndjson(ndjson);
  const double ndjson_ns = ms_since(ndjson_start) * 1e6;

  layers.set("monitor.ingest_ns_per_event", mirror_ns / traced_events);
  layers.set("fsm.table.step_ns_per_event", step_ns / traced_events);
  layers.set("monitor.overhead_ns_per_event",
             (mirror_ns - step_ns) / traced_events);
  layers.set("monitor.sharded_ns_per_event", sharded_ns / traced_events);
  layers.set("monitor.ndjson_ns_per_event",
             ndjson_ns / static_cast<double>(stream.frames.front().events));
  layers.set("engine.query.compiled_table_ms", compile_ms);
  layers.set("monitor.devices", static_cast<double>(stream.devices));
  layers.set("monitor.violations",
             static_cast<double>(stream.first_violations.size()));
  const bool text_ok =
      text_checker->stats().events == stream.frames.front().events &&
      text_checker->stats().violations == stream.frames.front().violations;
  add_layers(result, layers, untraced, loop, additive, host);
  if (!text_ok || !check_reports(epoch_events)) ++result.failed;
}

}  // namespace perfbench
