#include "traced.hpp"

#include <filesystem>

#include "bench.hpp"
#include "fsm/ops.hpp"
#include "ir/inference.hpp"
#include "ir/lowering.hpp"
#include "ltlf/automaton.hpp"
#include "ltlf/parser.hpp"
#include "shelley/automata.hpp"
#include "shelley/cache.hpp"
#include "shelley/graph.hpp"
#include "shelley/invocation.hpp"
#include "shelley/lint.hpp"
#include "shelley/spec.hpp"
#include "shelley/verifier.hpp"
#include "support/json.hpp"
#include "upy/lexer.hpp"
#include "upy/parser.hpp"

namespace perfbench {

namespace core = shelley::core;
namespace fsm = shelley::fsm;

namespace {

/// Times `fn` and adds the elapsed ms to `layer`; returns fn's result.
template <typename Fn>
auto timed(Layers& layers, const char* layer, Fn&& fn) {
  const auto start = Clock::now();
  if constexpr (std::is_void_v<decltype(fn())>) {
    fn();
    layers.add(layer, ms_since(start));
  } else {
    auto value = fn();
    layers.add(layer, ms_since(start));
    return value;
  }
}

/// The isolated kernel re-executions of one class: its automata builds,
/// subsystem inclusions and claim translations, as check_base_claims and
/// check_composite perform them.
void trace_kernel(const core::ClassSpec& spec, core::Verifier& verifier,
                  Layers& layers) {
  shelley::SymbolTable& symbols = verifier.symbols();
  shelley::DiagnosticEngine sink;
  const auto minimal = [&](const fsm::Nfa& nfa,
                           const std::vector<shelley::Symbol>* alphabet) {
    const fsm::Dfa dfa = timed(layers, "fsm.determinize_ms", [&] {
      return alphabet != nullptr ? fsm::determinize(nfa, *alphabet)
                                 : fsm::determinize(nfa);
    });
    layers.add("fsm.dfa_states", static_cast<double>(dfa.state_count()));
    fsm::Dfa min = timed(layers, "fsm.minimize_ms",
                         [&] { return fsm::minimize(dfa); });
    layers.add("fsm.min_states", static_cast<double>(min.state_count()));
    return min;
  };
  const auto claims = [&](const std::vector<shelley::Symbol>& alphabet) {
    for (const core::Claim& claim : spec.claims) {
      const fsm::Dfa dfa = timed(layers, "ltlf.to_dfa_ms", [&] {
        return shelley::ltlf::to_dfa(
            shelley::ltlf::parse(claim.text, symbols, claim.loc), alphabet);
      });
      layers.add("ltlf.dfa_states", static_cast<double>(dfa.state_count()));
    }
  };

  if (!spec.is_composite) {
    if (spec.claims.empty()) return;
    const fsm::Dfa usage = minimal(core::usage_nfa(spec, symbols), nullptr);
    claims(usage.alphabet());
    return;
  }

  shelley::ir::LoweringContext context;
  for (const core::SubsystemDecl& subsystem : spec.subsystems) {
    context.tracked_fields.insert(subsystem.field);
  }
  context.symbols = &symbols;
  for (const core::Operation& op : spec.operations) {
    const shelley::ir::Program program = timed(
        layers, "ir.lower_ms",
        [&] { return shelley::ir::lower_block(op.body, context); });
    timed(layers, "ir.infer_ms",
          [&] { (void)shelley::ir::infer(program); });
  }

  const auto behaviors = core::extract_behaviors(spec, symbols, sink);
  const core::SystemModel model =
      core::build_system_model(spec, behaviors, symbols, sink);
  const std::vector<shelley::Symbol> alphabet = model.full_alphabet();
  const fsm::Dfa system = minimal(model.nfa, &alphabet);
  for (const core::SubsystemDecl& subsystem : spec.subsystems) {
    const core::ClassSpec* sub = verifier.find_class(subsystem.class_name);
    if (sub == nullptr) continue;
    const fsm::Dfa usage = minimal(
        core::usage_nfa(*sub, symbols, subsystem.field + "."), nullptr);
    timed(layers, "fsm.inclusion_ms", [&] {
      (void)fsm::inclusion_witness(
          system, fsm::extend_alphabet_ignore(usage, alphabet));
    });
  }
  claims(model.event_symbols);
}

/// The total of the layers trace_pipeline adds up (those of either mode).
double pipeline_total(const Layers& layers) {
  static constexpr const char* kAdditive[] = {
      "upy.lex_ms",           "upy.parse_ms",           "shelley.spec_ms",
      "shelley.fingerprint_ms", "shelley.analysis_ms",  "shelley.lint_ms",
      "shelley.check_ms",     "shelley.cache.load_ms",  "shelley.render_ms"};
  double total = 0.0;
  for (const char* name : kAdditive) total += layers.total(name);
  return total;
}

}  // namespace

double trace_pipeline(const Project& project, core::BehaviorCache* cache,
                      Layers& layers) {
  const double before = pipeline_total(layers);
  // Front end: lex, then parse (which lexes again; its own share is parse
  // minus lex), then one spec extraction per class.
  double lex_ms = 0.0;
  double tokens = 0.0;
  for (const SourceFile& file : project.files) {
    const auto start = Clock::now();
    const auto stream = shelley::upy::lex(file.text);
    lex_ms += ms_since(start);
    tokens += static_cast<double>(stream.size());
  }
  layers.add("upy.lex_ms", lex_ms);
  layers.add("upy.tokens", tokens);
  std::vector<shelley::upy::Module> modules;
  double parse_ms = 0.0;
  for (const SourceFile& file : project.files) {
    const auto start = Clock::now();
    modules.push_back(shelley::upy::parse_module(file.text));
    parse_ms += ms_since(start);
  }
  layers.add("upy.parse_ms", parse_ms - lex_ms);
  shelley::DiagnosticEngine scratch;
  for (const auto& module : modules) {
    for (const auto& cls : module.classes) {
      timed(layers, "shelley.spec_ms",
            [&] { (void)core::extract_class_spec(cls, scratch); });
    }
  }

  // The registered workspace the later layers run against (untimed: it
  // repeats the front end above).
  core::Verifier verifier;
  for (const SourceFile& file : project.files) {
    (void)verifier.add_source_recover(file.text);
  }
  const core::ClassLookup lookup = [&](const std::string& name) {
    return verifier.find_class(name);
  };
  shelley::DiagnosticEngine sink;
  core::Report report;
  for (const core::ClassSpec& spec : verifier.classes()) {
    if (!spec.is_system) continue;
    if (cache != nullptr) {
      const auto key = timed(layers, "shelley.fingerprint_ms",
                             [&] { return verifier.cache_key(spec); });
      const auto start = Clock::now();
      auto verdict = cache->load_verdict(key);
      if (!verdict) continue;  // counted as a miss in the hit ratio
      report.classes.push_back(
          verifier.replay_verdict(spec, std::move(*verdict), sink));
      layers.add("shelley.cache.load_ms", ms_since(start));
      std::error_code error;
      const auto bytes = std::filesystem::file_size(
          cache->entry_path(key, core::BehaviorCache::Kind::kVerdict), error);
      if (!error) layers.add("shelley.cache.bytes_read",
                             static_cast<double>(bytes));
      continue;
    }
    core::ClassReport cls;
    cls.class_name = spec.name;
    cls.is_composite = spec.is_composite;
    timed(layers, "shelley.analysis_ms", [&] {
      (void)core::DependencyGraph::build(spec, sink);
      cls.invocation_errors = core::analyze_invocations(spec, lookup, sink);
    });
    cls.lint_findings = timed(layers, "shelley.lint_ms", [&] {
      return core::lint_class(spec, verifier.symbols(), sink);
    });
    cls.check = timed(layers, "shelley.check_ms", [&] {
      return spec.is_composite
                 ? core::check_composite(spec, lookup, verifier.symbols(),
                                         sink, verifier.check_options())
                 : core::check_base_claims(spec, verifier.symbols(), sink,
                                           verifier.check_options());
    });
    report.classes.push_back(std::move(cls));
    trace_kernel(spec, verifier, layers);
  }
  timed(layers, "shelley.render_ms",
        [&] { (void)report.render(verifier.symbols()); });

  return pipeline_total(layers) - before;
}

namespace {

void rewrite(const shelley::JsonValue& value, shelley::JsonWriter& writer) {
  switch (value.kind()) {
    case shelley::JsonValue::Kind::kNull:
      writer.null();
      break;
    case shelley::JsonValue::Kind::kBool:
      writer.value(value.as_bool());
      break;
    case shelley::JsonValue::Kind::kNumber:
      writer.value(value.as_number());
      break;
    case shelley::JsonValue::Kind::kString:
      writer.value(value.as_string());
      break;
    case shelley::JsonValue::Kind::kArray:
      writer.begin_array();
      for (const auto& item : value.as_array()) rewrite(item, writer);
      writer.end_array();
      break;
    case shelley::JsonValue::Kind::kObject:
      writer.begin_object();
      for (const auto& [key, item] : value.as_object()) {
        writer.key(key);
        rewrite(item, writer);
      }
      writer.end_object();
      break;
  }
}

}  // namespace

double time_json_round_trip(std::string_view line) {
  const auto start = Clock::now();
  const shelley::JsonValue value = shelley::parse_json(line);
  shelley::JsonWriter writer;
  rewrite(value, writer);
  return ms_since(start);
}

}  // namespace perfbench
