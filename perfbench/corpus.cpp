#include "corpus.hpp"

#include <algorithm>
#include <cmath>
#include <set>
#include <stdexcept>

namespace perfbench {

std::uint64_t Rng::next() {
  std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

std::uint64_t Rng::range(std::uint64_t lo, std::uint64_t hi) {
  return lo + next() % (hi - lo + 1);
}

double Rng::unit() {
  return static_cast<double>(next() >> 11) * 0x1.0p-53;
}

namespace {

std::string op_name(int op) { return "op" + std::to_string(op); }

std::string quoted_list(const std::vector<std::string>& names) {
  std::string out = "[";
  for (std::size_t i = 0; i < names.size(); ++i) {
    if (i != 0) out += ", ";
    out += "\"" + names[i] + "\"";
  }
  return out + "]";
}

std::string op_list(const std::vector<int>& ops) {
  std::vector<std::string> names;
  for (int op : ops) names.push_back(op_name(op));
  return quoted_list(names);
}

int pick(Rng& rng, const std::vector<int>& values) {
  return values[rng.range(0, values.size() - 1)];
}

}  // namespace

std::vector<int> BaseClass::allowed_after(int op) const {
  std::set<int> all;
  for (const auto& exit : successors[static_cast<std::size_t>(op)]) {
    all.insert(exit.begin(), exit.end());
  }
  return {all.begin(), all.end()};
}

bool BaseClass::ok() const {
  return std::all_of(claims.begin(), claims.end(),
                     [](const auto& claim) { return claim.second; });
}

BaseClass make_base(Rng& rng, const std::string& name, int ops,
                    int max_exits) {
  BaseClass cls;
  cls.name = name;
  cls.successors.resize(static_cast<std::size_t>(ops));
  for (int op = 0; op < ops; ++op) {
    auto& exits = cls.successors[static_cast<std::size_t>(op)];
    std::set<std::vector<int>> seen;
    // Exit 0 keeps the ring: op -> op+1.
    std::vector<int> ring{(op + 1) % ops};
    if (ops > 2 && rng.chance(0.4)) {
      const int extra = static_cast<int>(rng.range(0, ops - 1));
      if (extra != ring[0]) ring.push_back(extra);
    }
    seen.insert(ring);
    exits.push_back(ring);
    const int wanted = static_cast<int>(rng.range(1, max_exits));
    for (int attempt = 0; static_cast<int>(exits.size()) < wanted &&
                          attempt < 8;
         ++attempt) {
      std::vector<int> list;
      const int size = static_cast<int>(rng.range(0, 2));
      for (int i = 0; i < size; ++i) {
        const int target = static_cast<int>(rng.range(0, ops - 1));
        if (std::find(list.begin(), list.end(), target) == list.end()) {
          list.push_back(target);
        }
      }
      if (seen.insert(list).second) exits.push_back(list);
    }
  }
  return cls;
}

std::pair<std::string, bool> base_claim(Rng& rng, const BaseClass& cls,
                                        bool truth) {
  const int n = cls.ops();
  if (truth) {
    if (rng.chance(0.5)) {
      const int k = static_cast<int>(rng.range(1, n - 1));
      return {"(!" + op_name(k) + ") W op0", true};
    }
    const int i = static_cast<int>(rng.range(0, n - 1));
    std::string next;
    for (int succ : cls.allowed_after(i)) {
      next += (next.empty() ? "" : " | ") + op_name(succ);
    }
    return {"G (" + op_name(i) + " -> N (" + next + "))", true};
  }
  // G (op_i -> N op_x) needs an operation with two possible successors.
  std::vector<int> branching;
  for (int i = 0; i < n; ++i) {
    if (cls.allowed_after(i).size() >= 2) branching.push_back(i);
  }
  if (!branching.empty() && rng.chance(0.5)) {
    const int i = pick(rng, branching);
    const int x = pick(rng, cls.allowed_after(i));
    return {"G (" + op_name(i) + " -> N " + op_name(x) + ")", false};
  }
  const int k = static_cast<int>(rng.range(0, n - 1));
  return {"G !" + op_name(k), false};
}

std::string render_base(const BaseClass& cls) {
  std::string out;
  for (const auto& [text, truth] : cls.claims) {
    out += "@claim(\"" + text + "\")\n";
  }
  out += "@sys\nclass " + cls.name + ":\n";
  out += "    def __init__(self):\n";
  out += "        self.pin = Pin(" + std::to_string(cls.ops()) + ", IN)\n";
  for (int op = 0; op < cls.ops(); ++op) {
    const auto& exits = cls.successors[static_cast<std::size_t>(op)];
    out += "\n    # " + op_name(op) + ": " + std::to_string(exits.size()) +
           " exit point" + (exits.size() == 1 ? "" : "s") + "\n";
    out += op == 0 ? "    @op_initial_final\n" : "    @op_final\n";
    out += "    def " + op_name(op) + "(self):\n";
    if (exits.size() == 1) {
      out += "        return " + op_list(exits[0]) + "\n";
      continue;
    }
    for (std::size_t e = 0; e < exits.size(); ++e) {
      if (e == 0) {
        out += "        if self.pin.value() == 0:\n";
      } else if (e + 1 < exits.size()) {
        out += "        elif self.pin.value() == " + std::to_string(e) +
               ":\n";
      } else {
        out += "        else:\n";
      }
      out += "            return " + op_list(exits[e]) + "\n";
    }
  }
  return out;
}

int valid_step(Rng& rng, const BaseClass& cls, int prev) {
  if (prev < 0) return 0;
  return pick(rng, cls.allowed_after(prev));
}

int violating_step(Rng& rng, const BaseClass& cls, int prev) {
  std::vector<int> bad;
  if (prev < 0) {
    for (int op = 1; op < cls.ops(); ++op) bad.push_back(op);
  } else {
    const std::vector<int> allowed = cls.allowed_after(prev);
    for (int op = 0; op < cls.ops(); ++op) {
      if (!std::binary_search(allowed.begin(), allowed.end(), op)) {
        bad.push_back(op);
      }
    }
  }
  if (bad.empty()) {
    throw std::logic_error("perfbench: class " + cls.name +
                           " allows every operation after op" +
                           std::to_string(prev));
  }
  return pick(rng, bad);
}

int Project::expected_status() const {
  for (const auto& [name, ok] : verdicts) {
    if (!ok) return 1;
  }
  return 0;
}

std::size_t Project::bytes() const {
  std::size_t total = 0;
  for (const SourceFile& file : files) total += file.text.size();
  return total;
}

namespace {

enum class Defect { kNone, kClaim, kUsage, kUntested };

/// Emits one use of `field.op` that follows the callee's exits: a bare call
/// for a single-exit operation, a match over every exit otherwise; each
/// branch may go on with one allowed successor.
void emit_use(Rng& rng, const BaseClass& cls, const std::string& field,
              int op, int depth, const std::string& indent,
              std::string& out) {
  const auto& exits = cls.successors[static_cast<std::size_t>(op)];
  const std::string call = "self." + field + "." + op_name(op) + "()";
  if (exits.size() == 1) {
    out += indent + call + "\n";
    if (depth < 2 && !exits[0].empty() && rng.chance(0.5)) {
      emit_use(rng, cls, field, pick(rng, exits[0]), depth + 1, indent, out);
    }
    return;
  }
  out += indent + "match " + call + ":\n";
  for (const auto& exit : exits) {
    out += indent + "    case " + op_list(exit) + ":\n";
    if (depth < 2 && !exit.empty() && rng.chance(0.5)) {
      emit_use(rng, cls, field, pick(rng, exit), depth + 1,
               indent + "        ", out);
    } else {
      out += indent + "        pass\n";
    }
  }
}

struct Composite {
  std::string text;
  bool ok = true;
};

/// `plan` picks the subsystem classes (how much work the composite holds),
/// `rng` everything else.
Composite make_composite(Rng& plan, Rng& rng, const std::string& name,
                         const std::vector<BaseClass>& bases, int m,
                         int claim_count, Defect defect) {
  std::vector<const BaseClass*> subs;
  for (int i = 0; i < m; ++i) {
    subs.push_back(&bases[plan.range(0, bases.size() - 1)]);
  }
  // The untested-call defect needs a multi-exit op0 somewhere.
  int defective = -1;
  if (defect == Defect::kUntested) {
    std::vector<int> multi;
    for (int i = 0; i < m; ++i) {
      if (subs[static_cast<std::size_t>(i)]->successors[0].size() > 1) {
        multi.push_back(i);
      }
    }
    if (multi.empty()) {
      defect = Defect::kUsage;
    } else {
      defective = pick(rng, multi);
    }
  }
  if (defect == Defect::kUsage) {
    std::vector<int> wide;
    for (int i = 0; i < m; ++i) {
      if (subs[static_cast<std::size_t>(i)]->ops() >= 2) wide.push_back(i);
    }
    if (wide.empty()) {
      defect = Defect::kClaim;
    } else {
      defective = pick(rng, wide);
    }
  }

  // Claims: ordering facts over subsystems whose first call is op0.
  std::vector<int> sound;
  for (int i = 0; i < m; ++i) {
    if (i != defective) sound.push_back(i);
  }
  const auto field = [](int i) { return "s" + std::to_string(i); };
  const auto ordered_pair = [&]() {
    int u = pick(rng, sound);
    int v = pick(rng, sound);
    while (v == u) v = pick(rng, sound);
    return std::pair<int, int>{std::min(u, v), std::max(u, v)};
  };
  const auto true_claim = [&]() -> std::string {
    if (sound.size() >= 2 && rng.chance(0.5)) {
      const auto [u, v] = ordered_pair();
      return "(!" + field(v) + ".op0) W " + field(u) + ".op0";
    }
    const int u = pick(rng, sound);
    const BaseClass& cls = *subs[static_cast<std::size_t>(u)];
    const int k = static_cast<int>(rng.range(1, cls.ops() - 1));
    return "(!" + field(u) + "." + op_name(k) + ") W " + field(u) + ".op0";
  };
  const auto false_claim = [&]() -> std::string {
    if (sound.size() >= 2 && rng.chance(0.5)) {
      const auto [u, v] = ordered_pair();
      return "(!" + field(u) + ".op0) W " + field(v) + ".op0";
    }
    return "G !" + field(pick(rng, sound)) + ".op0";
  };
  std::vector<std::string> claims;
  for (int i = 0; i < claim_count && !sound.empty(); ++i) {
    claims.push_back(true_claim());
  }
  if (defect == Defect::kClaim) {
    claims.insert(claims.begin() +
                      static_cast<long>(rng.range(0, claims.size())),
                  false_claim());
  }

  Composite result;
  result.ok = defect == Defect::kNone;
  std::string& out = result.text;
  for (const std::string& claim : claims) {
    out += "@claim(\"" + claim + "\")\n";
  }
  std::vector<std::string> fields;
  for (int i = 0; i < m; ++i) fields.push_back(field(i));
  out += "@sys(" + quoted_list(fields) + ")\nclass " + name + ":\n";
  out += "    def __init__(self):\n";
  for (int i = 0; i < m; ++i) {
    out += "        self." + field(i) + " = " +
           subs[static_cast<std::size_t>(i)]->name + "()\n";
  }
  // Subsystem uses in order, split over a chain of steps.
  const int steps = static_cast<int>(rng.range(1, m));
  std::vector<int> first_use(static_cast<std::size_t>(steps), 0);
  for (int s = 1; s < steps; ++s) {
    first_use[static_cast<std::size_t>(s)] =
        static_cast<int>(rng.range(first_use[static_cast<std::size_t>(s - 1)],
                                   m));
  }
  for (int s = 0; s < steps; ++s) {
    const int begin = first_use[static_cast<std::size_t>(s)];
    const int end = s + 1 < steps ? first_use[static_cast<std::size_t>(s + 1)]
                                  : m;
    out += "\n";
    out += s == 0 ? "    @op_initial_final\n" : "    @op_final\n";
    out += "    def step" + std::to_string(s) + "(self):\n";
    for (int i = begin; i < end; ++i) {
      const BaseClass& cls = *subs[static_cast<std::size_t>(i)];
      if (i == defective && defect == Defect::kUntested) {
        out += "        self." + field(i) + ".op0()\n";
      } else if (i == defective && defect == Defect::kUsage) {
        emit_use(rng, cls, field(i),
                 static_cast<int>(rng.range(1, cls.ops() - 1)), 1,
                 "        ", out);
      } else {
        emit_use(rng, cls, field(i), 0, 0, "        ", out);
      }
    }
    if (begin == end) out += "        print(\"idle\")\n";
    out += s + 1 < steps
               ? "        return [\"step" + std::to_string(s + 1) + "\"]\n"
               : "        return []\n";
  }
  return result;
}

void add_claims(Rng& rng, BaseClass& cls, int count, bool defective) {
  for (int i = 0; i < count; ++i) {
    cls.claims.push_back(base_claim(rng, cls, true));
  }
  if (defective) {
    cls.claims.insert(cls.claims.begin() +
                          static_cast<long>(rng.range(0, cls.claims.size())),
                      base_claim(rng, cls, false));
  }
}

std::string file_header(const std::string& prefix, const std::string& file,
                        int revision) {
  return "# " + prefix + "/" + file + " revision " +
         std::to_string(revision) + "\n";
}

template <typename T>
void shuffle(Rng& rng, std::vector<T>& values) {
  for (std::size_t i = values.size(); i > 1; --i) {
    std::swap(values[i - 1], values[rng.range(0, i - 1)]);
  }
}

/// `n` values at the quantiles (i + 0.5) / n of a distribution, in seeded
/// order: every draw of a given size is the same multiset.
template <typename At>
std::vector<int> spread(Rng& rng, int n, At at) {
  std::vector<int> values;
  for (int i = 0; i < n; ++i) values.push_back(at((i + 0.5) / n));
  shuffle(rng, values);
  return values;
}

/// Pairs (size, count): sizes at the quantiles of `at` as in spread(),
/// counts cycling through [lo, hi] along the sorted sizes, the pairs then
/// shuffled together -- so which sizes carry which counts is the same for
/// every seed too.
template <typename At>
std::vector<std::pair<int, int>> spread_pairs(Rng& rng, int n, At at, int lo,
                                              int hi) {
  std::vector<std::pair<int, int>> pairs;
  for (int i = 0; i < n; ++i) {
    pairs.emplace_back(at((i + 0.5) / n), lo + i % (hi - lo + 1));
  }
  shuffle(rng, pairs);
  return pairs;
}

auto uniform_at(int lo, int hi) {
  return [lo, hi](double u) {
    return std::clamp(lo + static_cast<int>(u * (hi - lo + 1)), lo, hi);
  };
}

auto log_uniform_at(int lo, int hi) {
  return [lo, hi](double u) {
    const double span = static_cast<double>(hi + 1) / lo;
    return std::clamp(static_cast<int>(lo * std::pow(span, u)), lo, hi);
  };
}

/// Renders base classes round-robin over `files` files.
void add_base_files(const std::string& prefix,
                    const std::vector<BaseClass>& bases, int files,
                    Project& project) {
  const int count = static_cast<int>(bases.size());
  files = std::min(files, count);
  for (int f = 0; f < files; ++f) {
    SourceFile file{"b" + std::to_string(f) + ".py", ""};
    file.text = file_header(prefix, file.name, 0);
    for (int b = f; b < count; b += files) {
      file.text += "\n\n" + render_base(bases[static_cast<std::size_t>(b)]);
    }
    project.files.push_back(std::move(file));
  }
}

}  // namespace

std::vector<Project> make_corpus(Rng& rng, const std::string& prefix,
                                 int count) {
  constexpr int kMinBases = 3;
  constexpr int kMaxBases = 8;
  constexpr int kMinOps = 2;
  constexpr int kMaxOps = 40;
  constexpr int kMaxExits = 4;
  constexpr int kMaxClaims = 3;
  constexpr int kMinSubsystems = 2;
  constexpr int kMaxSubsystems = 8;
  constexpr int kMaxComposites = 2;
  constexpr double kDefectRate = 0.25;  // share of projects with defects
  constexpr int kFiles = 3;             // files the base classes spread over
  // How much work each project holds -- its class counts, operation and
  // claim counts, subsystem counts and picks, and its planted defects -- is
  // drawn from a fixed plan seed, so every corpus of a given size holds the
  // same work; the seed decides the project order and all structure.
  Rng plan(0x5eedc0de);
  const std::vector<int> base_counts =
      spread(plan, count, uniform_at(kMinBases, kMaxBases));
  const std::vector<int> composite_counts =
      spread(plan, count, uniform_at(1, kMaxComposites));
  int bases_total = 0;
  int composites_total = 0;
  for (int p = 0; p < count; ++p) {
    bases_total += base_counts[static_cast<std::size_t>(p)];
    composites_total += composite_counts[static_cast<std::size_t>(p)];
  }
  // (operations, claims) of every base class; (subsystems, claims) of
  // every composite.
  const auto base_plan = spread_pairs(
      plan, bases_total, log_uniform_at(kMinOps, kMaxOps), 0,
      kMaxClaims);
  const auto composite_plan = spread_pairs(
      plan, composites_total,
      uniform_at(kMinSubsystems, kMaxSubsystems), 0,
      kMaxClaims);
  const int defective_total =
      static_cast<int>(std::lround(count * kDefectRate));
  std::vector<int> defective(static_cast<std::size_t>(count), 0);
  std::fill_n(defective.begin(), defective_total, 1);
  shuffle(plan, defective);

  std::vector<Project> corpus;
  std::size_t next_base = 0;
  std::size_t next_composite = 0;
  for (int p = 0; p < count; ++p) {
    const int base_count = base_counts[static_cast<std::size_t>(p)];
    const int composite_count = composite_counts[static_cast<std::size_t>(p)];
    // A defective project plants one or two defects in distinct classes.
    std::set<int> planted;
    if (defective[static_cast<std::size_t>(p)] != 0) {
      const int defects = static_cast<int>(plan.range(1, 2));
      while (static_cast<int>(planted.size()) < defects) {
        planted.insert(static_cast<int>(
            plan.range(0, base_count + composite_count - 1)));
      }
    }
    const std::string name = prefix + std::to_string(p) + "_";
    Project project;
    std::vector<BaseClass> bases;
    for (int b = 0; b < base_count; ++b) {
      const auto [ops, claims] = base_plan[next_base++];
      BaseClass cls = make_base(rng, name + "B" + std::to_string(b), ops,
                                kMaxExits);
      add_claims(rng, cls, claims, planted.contains(b));
      project.verdicts[cls.name] = cls.ok();
      bases.push_back(std::move(cls));
    }
    add_base_files(name, bases, kFiles, project);
    SourceFile composites{"c.py", file_header(name, "c.py", 0)};
    for (int c = 0; c < composite_count; ++c) {
      const Defect defect = planted.contains(base_count + c)
                                ? static_cast<Defect>(plan.range(1, 3))
                                : Defect::kNone;
      const std::string cls = name + "C" + std::to_string(c);
      const auto [subsystems, claims] = composite_plan[next_composite++];
      Composite composite = make_composite(plan, rng, cls, bases, subsystems,
                                           claims, defect);
      project.verdicts[cls] = composite.ok;
      composites.text += "\n\n" + composite.text;
    }
    project.files.push_back(std::move(composites));
    corpus.push_back(std::move(project));
  }
  shuffle(rng, corpus);
  return corpus;
}

EditProject make_edit_project(Rng& rng, const std::string& prefix,
                              int classes, int composites, int max_ops) {
  constexpr int kMaxExits = 4;
  constexpr int kMaxClaims = 3;
  constexpr int kFiles = 4;
  const std::string valid_claim = "(!op1) W op0";
  EditProject edit;
  // Sizes come from a fixed plan seed (see make_corpus); the seed decides
  // the structure.  Toggle classes have 12 operations; the monitored class
  // has 24, so some operation is always a violation (an operation allows at
  // most 8 successors).
  Rng plan(0x5eedc0de);
  auto base_plan =
      spread_pairs(plan, classes, log_uniform_at(4, max_ops), 0, kMaxClaims);
  for (int t = 0; t < composites; ++t) {
    base_plan[static_cast<std::size_t>(t)].first = 12;
  }
  base_plan[static_cast<std::size_t>(composites)].first = 24;
  std::vector<BaseClass> bases;
  for (int b = 0; b < classes; ++b) {
    const auto [ops, claims] = base_plan[static_cast<std::size_t>(b)];
    BaseClass cls = make_base(rng, prefix + "B" + std::to_string(b), ops,
                              kMaxExits);
    add_claims(rng, cls, claims, false);
    if (b < composites) cls.claims.insert(cls.claims.begin(), {valid_claim, true});
    edit.project.verdicts[cls.name] = true;
    bases.push_back(std::move(cls));
  }
  edit.monitor_class = bases[static_cast<std::size_t>(composites)].name;
  edit.monitor_spec = bases[static_cast<std::size_t>(composites)];
  add_base_files(prefix, bases, kFiles, edit.project);

  // Composite t is built over toggle class t (two subsystems).
  auto composite_plan = spread_pairs(plan, composites, uniform_at(2, 2), 0,
                                     kMaxClaims);
  SourceFile comp{"c.py", file_header(prefix, "c.py", 0)};
  for (int c = 0; c < composites; ++c) {
    const std::vector<BaseClass> pool{bases[static_cast<std::size_t>(c)]};
    const std::string name = prefix + "C" + std::to_string(c);
    const auto [subsystems, claims] =
        composite_plan[static_cast<std::size_t>(c)];
    Composite composite = make_composite(plan, rng, name, pool, subsystems,
                                         claims, Defect::kNone);
    edit.project.verdicts[name] = true;
    comp.text += "\n\n" + composite.text;
  }
  edit.project.files.push_back(std::move(comp));

  for (int t = 0; t < composites; ++t) {
    EditProject::Toggle toggle;
    toggle.cls = bases[static_cast<std::size_t>(t)].name;
    toggle.file = static_cast<std::size_t>(t % kFiles);
    const std::string& text = edit.project.files[toggle.file].text;
    const std::string claim = "@claim(\"" + valid_claim + "\")\n";
    const std::size_t at =
        text.rfind(claim, text.find("class " + toggle.cls + ":"));
    toggle.defect_text = text.substr(0, at) + "@claim(\"G !op1\")\n" +
                         text.substr(at + claim.size());
    edit.toggles.push_back(std::move(toggle));
  }
  for (const SourceFile& file : edit.project.files) {
    edit.comment_texts.push_back(file_header(prefix, file.name, 1) +
                                 file.text.substr(file.text.find('\n') + 1));
  }
  return edit;
}

std::string make_ndjson_events(Rng& rng, const BaseClass& cls, int devices,
                               int events, NdjsonReference& reference) {
  std::vector<int> state(static_cast<std::size_t>(devices), -1);
  std::vector<bool> violated(static_cast<std::size_t>(devices), false);
  const int bad_device = static_cast<int>(rng.range(0, devices - 1));
  const int bad_index = static_cast<int>(rng.range(events / 4, events / 2));
  std::string out;
  reference = {};
  std::set<int> seen;
  for (int i = 0; i < events; ++i) {
    int device = static_cast<int>(rng.range(0, devices - 1));
    if (i == bad_index) device = bad_device;
    const auto d = static_cast<std::size_t>(device);
    int op = 0;
    if (violated[d]) {
      op = static_cast<int>(rng.range(0, cls.ops() - 1));
      ++reference.violations;
    } else if (i == bad_index) {
      op = violating_step(rng, cls, state[d]);
      violated[d] = true;
      ++reference.violations;
      reference.first_violation_index = static_cast<std::uint64_t>(i);
    } else {
      op = valid_step(rng, cls, state[d]);
      state[d] = op;
    }
    seen.insert(device);
    out += "{\"device\":\"dev" + std::to_string(device) + "\",\"op\":\"" +
           op_name(op) + "\"}\n";
  }
  reference.events = static_cast<std::uint64_t>(events);
  reference.devices = seen.size();
  return out;
}

std::string project_bytes(const Project& project) {
  std::string out;
  for (const SourceFile& file : project.files) {
    out += file.name + "\n" + file.text + "\n";
  }
  for (const auto& [name, ok] : project.verdicts) {
    out += name + (ok ? " ok\n" : " FAILED\n");
  }
  return out;
}

}  // namespace perfbench
