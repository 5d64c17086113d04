// Outside timers for the traced run: re-executions of the public calls of
// each layer on the same inputs an op just used.  Nothing inside the
// program is switched on.
#pragma once

#include <string>
#include <string_view>

#include "corpus.hpp"
#include "layers.hpp"

namespace shelley::core {
class BehaviorCache;
}

namespace perfbench {

/// Re-runs the pipeline of one project the way Verifier::verify_spec
/// orders it, timing each public call into `layers`.  Without a cache:
/// lex, parse, spec, analysis, lint, check, render (additive), plus the
/// isolated ir/fsm/ltlf re-executions inside check.  With a cache: lex,
/// parse, spec, fingerprint, cache load + replay, render (additive), plus
/// hit and byte counts.  Returns the sum of the additive layers in ms.
double trace_pipeline(const Project& project, shelley::core::BehaviorCache* cache,
                      Layers& layers);

/// support::json parse of `line` plus its re-serialization; returns ms.
double time_json_round_trip(std::string_view line);

}  // namespace perfbench
