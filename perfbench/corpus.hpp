// Seeded input generators for the benchmark.  Every expected answer -- the
// verdict of each class, the exit status of each project, the violation
// count and first-violation index of each device -- follows from how the
// generator builds its inputs, never from running the verifier.
//
// Base classes: operations op0..op{n-1}, op0 the only initial operation,
// every operation final.  Exit 0 of op_i always allows op_{i+1 mod n}, so
// every operation is reachable; the exits of one operation have pairwise
// distinct successor lists.  With every operation final, a valid call prefix
// is a complete usage, which makes claim truth decidable by construction:
//   (!op_k) W op0                 true   (op0 is the only initial operation)
//   G (op_i -> N (U(op_i)))       true   (U = union of op_i's successors)
//   G !op_k                       false  (op0 op1 .. op_k is complete)
//   G (op_i -> N op_x), |U|>=2    false  (op_i then another successor)
//
// Composites use each subsystem in one step of a step0 -> step1 -> ... chain
// of final operations, as a match tree that follows the callee's exits, so
// every projection is a valid complete usage.  Planted defects: a false
// claim, a first call on a non-initial operation, or an untested call of a
// multi-exit operation.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

/// splitmix64: a fixed, platform-independent generator, so a seed names the
/// same bytes everywhere.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : state_(seed) {}
  std::uint64_t next();
  /// Uniform in [lo, hi].
  std::uint64_t range(std::uint64_t lo, std::uint64_t hi);
  /// Uniform in [0, 1).
  double unit();
  bool chance(double p) { return unit() < p; }

 private:
  std::uint64_t state_;
};

struct BaseClass {
  std::string name;
  /// successors[op][exit] = successor operation indices of that exit.
  std::vector<std::vector<std::vector<int>>> successors;
  /// Claim text and its truth.
  std::vector<std::pair<std::string, bool>> claims;

  [[nodiscard]] int ops() const { return static_cast<int>(successors.size()); }
  /// U(op): every operation allowed right after `op`.
  [[nodiscard]] std::vector<int> allowed_after(int op) const;
  [[nodiscard]] bool ok() const;
};

/// A base class with `ops` operations and up to `max_exits` exits each.
BaseClass make_base(Rng& rng, const std::string& name, int ops,
                    int max_exits);
/// One claim template instance with the requested truth.
std::pair<std::string, bool> base_claim(Rng& rng, const BaseClass& cls,
                                        bool truth);
/// Source text of a base class.
std::string render_base(const BaseClass& cls);

/// The next operation of a valid walk after `prev` (-1: the first call).
int valid_step(Rng& rng, const BaseClass& cls, int prev);
/// An operation that is a violation right after `prev` (-1: the first call,
/// where every non-initial operation violates).
int violating_step(Rng& rng, const BaseClass& cls, int prev);

struct SourceFile {
  std::string name;  ///< file name relative to its project directory
  std::string text;
};

struct Project {
  std::vector<SourceFile> files;
  /// Planted verdict of every @sys class, in no particular order.
  std::map<std::string, bool> verdicts;
  [[nodiscard]] int expected_status() const;
  [[nodiscard]] std::size_t bytes() const;
};

/// `count` projects for the cold-verify / cached-rerun corpus: 3-8 base
/// classes over 3 files (2-40 operations, 1-4 exits each, 0-3 claims) and
/// 1-2 composites over 2-8 subsystems; a quarter of the projects carry
/// planted defects.  How much work each project holds (class, operation,
/// claim and subsystem counts, subsystem picks, planted defects) comes from
/// a fixed plan: counts are spread evenly over their ranges, so the corpus
/// is wide, and it holds the same work for every seed.  The seed decides the
/// project order and every structural detail (exits, successors, claim
/// templates, match trees, defect sites).
std::vector<Project> make_corpus(Rng& rng, const std::string& prefix,
                                 int count);

/// The editor-session project of edit-loop.  Every op of a session edits
/// one of several toggle classes, in turn, so an op's cost averages over
/// their structure: one op plants a defect in the class (one of its claims
/// made false), the next restores it.  Each toggle class is the subsystem
/// of one composite, so an edit invalidates a closure of two classes.
struct EditProject {
  struct Toggle {
    std::string cls;
    std::size_t file = 0;     ///< index into project.files
    std::string defect_text;  ///< that file with the class's defect planted
  };
  Project project;  ///< the valid state, as loaded
  std::vector<Toggle> toggles;
  /// Per file: the text with only its header comment edited.
  std::vector<std::string> comment_texts;
  std::string monitor_class;
  BaseClass monitor_spec;
};

/// `classes` base classes (4..max_ops operations) over 4 files and
/// `composites` composites; the first `composites` base classes are toggle
/// classes, base class `composites` is the monitored one.
EditProject make_edit_project(Rng& rng, const std::string& prefix,
                              int classes, int composites, int max_ops);

/// `events` NDJSON monitor events over `devices` devices walking `cls`, with
/// exactly one device violating.  Returns the text and fills the reference
/// counters.
struct NdjsonReference {
  std::uint64_t events = 0;
  std::uint64_t violations = 0;
  std::uint64_t devices = 0;
  std::uint64_t first_violation_index = 0;
};
std::string make_ndjson_events(Rng& rng, const BaseClass& cls, int devices,
                               int events, NdjsonReference& reference);

/// Byte-for-byte serialization of a whole project (for the determinism
/// self-test).
std::string project_bytes(const Project& project);

}  // namespace perfbench
