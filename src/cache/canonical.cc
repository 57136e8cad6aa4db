#include "cache/canonical.h"

#include <cstdint>
#include <string>
#include <vector>

#include "util/hash.h"

namespace tdlib {
namespace {

// Bump if the token stream ever changes shape, so fingerprints from
// different library versions can never alias. Both renderings carry it.
constexpr char kVersionTag[] = "tdlib-canonical 3";
constexpr std::uint64_t kVersionWord = 3;

// The canonical form is one token stream; the text rendering and the
// fingerprint are two sinks over the same walk, so they cannot drift. A
// sink takes the scalar tokens below one at a time and each relabeled row
// whole (its `arity` labels), since rows are where the volume is.
enum class Tok : std::uint8_t {
  kCount,   // dependency count of D
  kDep,     // arity of the next dependency
  kBody,    // body row count
  kHead,    // head row count
  kGoal,    // D0 follows
  kConfig,  // one of kConfigFields solver budgets / knobs
};

constexpr int kConfigFields = 13;

// Dense relabeling scratch for one dependency at a time: label[base[attr] +
// var] is the canonical index of variable id `var` of `attr` (-1 = not seen
// yet; ids are dense below Tableau::NumVars), next[attr] the next index to
// hand out, row the current relabeled row. One instance per thread is
// reused across dependencies and calls, so a warm walk allocates nothing.
struct Relabel {
  std::vector<int> label;
  std::vector<int> base;
  std::vector<int> next;
  std::vector<std::uint32_t> row;
};

// Relabels one dependency's variables per attribute by first occurrence
// (body rows first, then head rows, each row left to right) and emits the
// relabeled rows. The labels are shared between body and head, so a
// universal head variable resolves to the index its body occurrence
// introduced — exactly the equality pattern, with names and allocation
// order erased.
template <typename Sink>
void WalkDependency(const Dependency& dep, Relabel* scratch, Sink& sink) {
  const int arity = dep.schema().arity();
  scratch->base.resize(arity);
  scratch->next.assign(arity, 0);
  scratch->row.resize(arity);
  int vars = 0;
  for (int attr = 0; attr < arity; ++attr) {
    scratch->base[attr] = vars;
    vars += dep.body().NumVars(attr);
  }
  scratch->label.assign(vars, -1);
  int* const label = scratch->label.data();
  const int* const base = scratch->base.data();
  int* const next = scratch->next.data();
  std::uint32_t* const out = scratch->row.data();
  auto walk_tableau = [&](const Tableau& t, Tok tag) {
    sink(tag, static_cast<std::uint64_t>(t.num_rows()));
    for (const Row& row : t.rows()) {
      const int* const ids = row.data();
      for (int attr = 0; attr < arity; ++attr) {
        int& l = label[base[attr] + ids[attr]];
        if (l < 0) l = next[attr]++;
        out[attr] = static_cast<std::uint32_t>(l);
      }
      sink.Row(out, arity);
    }
  };
  sink(Tok::kDep, static_cast<std::uint64_t>(arity));
  walk_tableau(dep.body(), Tok::kBody);
  walk_tableau(dep.head(), Tok::kHead);
}

// The whole problem: D in order, the goal, then every deterministic budget
// and matching-strategy knob. They all either steer the verdict (rounds,
// steps, tuples) or the counters the cached DeterministicSummary must
// reproduce (use_delta splits hom_nodes differently, auto_burst /
// max_fires_per_pass move pass boundaries, match_slice_ids changes
// match_tasks). Deadlines are excluded because CacheableConfig already
// rejects them; pool/cancel are runtime wiring with byte-identical output
// by the engine's parallelism contract. Signed fields travel as their
// two's-complement word.
template <typename Sink>
void WalkProblem(const DependencySet& d, const Dependency& d0,
                 const DualSolverConfig& config, Sink& sink) {
  thread_local Relabel scratch;
  sink(Tok::kCount, static_cast<std::uint64_t>(d.items.size()));
  for (const Dependency& dep : d.items) WalkDependency(dep, &scratch, sink);
  sink(Tok::kGoal, 0);
  WalkDependency(d0, &scratch, sink);
  const ChaseConfig& chase = config.base_chase;
  const CounterexampleConfig& cex = config.base_counterexample;
  const std::uint64_t fields[kConfigFields] = {
      static_cast<std::uint64_t>(config.rounds),
      config.resume_chase ? 1u : 0u,
      chase.max_steps,
      chase.max_tuples,
      chase.hom_max_nodes,
      chase.record_trace ? 1u : 0u,
      chase.eager_goal_check ? 1u : 0u,
      chase.use_delta ? 1u : 0u,
      chase.max_fires_per_pass,
      chase.auto_burst ? 1u : 0u,
      chase.match_slice_ids,
      static_cast<std::uint64_t>(cex.max_tuples),
      cex.max_candidates,
  };
  for (std::uint64_t field : fields) sink(Tok::kConfig, field);
}

// Renders the token stream as the line-oriented debug text.
class TextSink {
 public:
  TextSink() : out_(kVersionTag) { out_ += '\n'; }

  void operator()(Tok tok, std::uint64_t value) {
    switch (tok) {
      case Tok::kCount: Line("", value); break;
      case Tok::kDep: Line("dep ", value); break;
      case Tok::kBody: Line("b ", value); break;
      case Tok::kHead: Line("h ", value); break;
      case Tok::kGoal: out_ += "goal\n"; break;
      case Tok::kConfig:
        out_ += config_seen_ == 0 ? "cfg " : " ";
        out_ += std::to_string(value);
        if (++config_seen_ == kConfigFields) out_ += '\n';
        break;
    }
  }

  void Row(const std::uint32_t* labels, int arity) {
    for (int attr = 0; attr < arity; ++attr) {
      out_ += std::to_string(labels[attr]);
      out_ += ' ';
    }
    out_ += '\n';
  }

  std::string Take() { return std::move(out_); }

 private:
  void Line(const char* label, std::uint64_t value) {
    out_ += label;
    out_ += std::to_string(value);
    out_ += '\n';
  }

  std::string out_;
  int config_seen_ = 0;
};

// Feeds the token stream into the 128-bit word hasher: one word per scalar
// token, the token kind in the top byte, and a row's labels packed two to a
// word. The stream parses back unambiguously (every count precedes what it
// counts and every row holds exactly `arity` labels), so distinct problems
// give distinct word sequences.
class HashSink {
 public:
  HashSink() { hasher_.Add(kVersionWord); }

  void operator()(Tok tok, std::uint64_t value) {
    hasher_.Add((static_cast<std::uint64_t>(tok) << 56) ^ value);
  }

  void Row(const std::uint32_t* labels, int arity) {
    int attr = 0;
    for (; attr + 1 < arity; attr += 2) {
      hasher_.Add(labels[attr] |
                  static_cast<std::uint64_t>(labels[attr + 1]) << 32);
    }
    if (attr < arity) hasher_.Add(labels[attr]);
  }

  Hash128 Finish() const { return hasher_.Finish(); }

 private:
  Hasher128 hasher_;
};

}  // namespace

bool CacheableConfig(const DualSolverConfig& config) {
  return config.base_chase.deadline_seconds <= 0 &&
         config.base_counterexample.deadline_seconds <= 0;
}

std::string CanonicalProblemText(const DependencySet& d, const Dependency& d0,
                                 const DualSolverConfig& config) {
  TextSink sink;
  WalkProblem(d, d0, config, sink);
  return sink.Take();
}

CacheFingerprint FingerprintProblem(const DependencySet& d,
                                    const Dependency& d0,
                                    const DualSolverConfig& config) {
  CacheFingerprint fp;
  if (!CacheableConfig(config)) return fp;
  HashSink sink;
  WalkProblem(d, d0, config, sink);
  const Hash128 h = sink.Finish();
  fp.hi = h.hi;
  fp.lo = h.lo;
  fp.valid = true;
  return fp;
}

}  // namespace tdlib
