// The per-layer metrics of the traced run.  Every traced run reports every
// metric below; a layer the workload never calls reports 0.  Times are
// per-op means (so additive layers sum to the mean op time), counts are
// per-op means, ratios and per-event costs are totals over the run.
#pragma once

#include <map>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

struct LayerSpec {
  const char* name;
  const char* unit;
};

/// Every per-layer metric, in BENCHMARK.json order.
inline const std::vector<LayerSpec>& layer_specs() {
  static const std::vector<LayerSpec> specs = {
      {"upy.lex_ms", "ms"},
      {"upy.parse_ms", "ms"},
      {"upy.tokens_per_s", "1/s"},
      {"shelley.spec_ms", "ms"},
      {"shelley.fingerprint_ms", "ms"},
      {"shelley.analysis_ms", "ms"},
      {"shelley.lint_ms", "ms"},
      {"shelley.check_ms", "ms"},
      {"shelley.render_ms", "ms"},
      {"ir.lower_ms", "ms"},
      {"ir.infer_ms", "ms"},
      {"fsm.determinize_ms", "ms"},
      {"fsm.minimize_ms", "ms"},
      {"fsm.inclusion_ms", "ms"},
      {"fsm.dfa_states", "count"},
      {"fsm.min_states", "count"},
      {"ltlf.to_dfa_ms", "ms"},
      {"ltlf.dfa_states", "count"},
      {"shelley.cache.load_ms", "ms"},
      {"shelley.cache.hit_ratio", "ratio"},
      {"shelley.cache.bytes_read", "bytes"},
      {"engine.workspace.update_ms", "ms"},
      {"engine.memo.hit_ratio", "ratio"},
      {"engine.memo.invalidated", "count"},
      {"engine.memo.invalidated_comment", "count"},
      {"engine.query.verify_all_ms", "ms"},
      {"engine.query.compiled_table_ms", "ms"},
      {"engine.session.update_ms", "ms"},
      {"engine.session.verify_ms", "ms"},
      {"engine.session.monitor_ms", "ms"},
      {"engine.wire_ms", "ms"},
      {"engine.server.rejected", "count"},
      {"support.json_ms", "ms"},
      {"monitor.ingest_ns_per_event", "ns"},
      {"fsm.table.step_ns_per_event", "ns"},
      {"monitor.overhead_ns_per_event", "ns"},
      {"monitor.ndjson_ns_per_event", "ns"},
      {"monitor.sharded_ns_per_event", "ns"},
      {"monitor.devices", "count"},
      {"monitor.violations", "count"},
      {"op_ms", "ms"},
      {"unaccounted_ms", "ms"},
      {"trace_overhead_pct", "%"},
  };
  return specs;
}

/// Accumulates layer totals over the traced ops of one run.
class Layers {
 public:
  /// Adds `value` to a per-op total (reported divided by the op count).
  void add(const std::string& name, double value) { totals_[name] += value; }
  /// Sets a metric reported as is.
  void set(const std::string& name, double value) { fixed_[name] = value; }
  [[nodiscard]] double total(const std::string& name) const {
    const auto it = totals_.find(name);
    return it == totals_.end() ? 0.0 : it->second;
  }
  /// The metrics of the run: per-op means of the totals, the fixed values,
  /// and 0 for every layer this workload never reached.
  [[nodiscard]] std::vector<std::pair<LayerSpec, double>> report(
      double ops) const {
    std::vector<std::pair<LayerSpec, double>> out;
    for (const LayerSpec& spec : layer_specs()) {
      double value = 0.0;
      if (const auto it = fixed_.find(spec.name); it != fixed_.end()) {
        value = it->second;
      } else if (const auto t = totals_.find(spec.name); t != totals_.end()) {
        value = ops > 0 ? t->second / ops : 0.0;
      }
      out.emplace_back(spec, value);
    }
    return out;
  }

 private:
  std::map<std::string, double> totals_;
  std::map<std::string, double> fixed_;
};

}  // namespace perfbench
