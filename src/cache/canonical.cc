#include "cache/canonical.h"

#include <cstdint>
#include <string>
#include <utility>

#include "core/canonical_walk.h"
#include "util/hash.h"

namespace tdlib {
namespace {

// Bump if the token stream ever changes shape, so fingerprints from
// different library versions can never alias. Both renderings carry it.
// Version 4: dependencies enter the fingerprint as their digests.
constexpr char kVersionTag[] = "tdlib-canonical 4";
constexpr std::uint64_t kVersionWord = 4;

// The problem-level scalar tokens; each dependency's own run is the
// core/canonical_walk.h walk.
enum class Tok : std::uint8_t {
  kCount,   // dependency count of D
  kGoal,    // D0 follows
  kConfig,  // one of kConfigFields solver budgets / knobs
};

constexpr int kConfigFields = 13;

// The whole problem: D in order, the goal, then every deterministic budget
// and matching-strategy knob. They all either steer the verdict (rounds,
// steps, tuples) or the counters the cached DeterministicSummary must
// reproduce (use_delta splits hom_nodes differently, auto_burst /
// max_fires_per_pass move pass boundaries, match_slice_ids changes
// match_tasks). Deadlines are excluded because CacheableConfig already
// rejects them; pool/cancel are runtime wiring with byte-identical output
// by the engine's parallelism contract. Signed fields travel as their
// two's-complement word. A sink takes the scalar tokens one at a time and
// each dependency whole, through Dep().
template <typename Sink>
void WalkProblem(const DependencySet& d, const Dependency& d0,
                 const DualSolverConfig& config, Sink& sink) {
  sink(Tok::kCount, static_cast<std::uint64_t>(d.items.size()));
  for (const Dependency& dep : d.items) sink.Dep(dep);
  sink(Tok::kGoal, 0);
  sink.Dep(d0);
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

// Renders the token stream as the line-oriented debug text, each
// dependency through the same walk its digest was computed from.
class TextSink {
 public:
  explicit TextSink(std::string first_line) : out_(std::move(first_line)) {}

  void operator()(Tok tok, std::uint64_t value) {
    switch (tok) {
      case Tok::kCount: Line("", value); break;
      case Tok::kGoal: out_ += "goal\n"; break;
      case Tok::kConfig:
        out_ += config_seen_ == 0 ? "cfg " : " ";
        out_ += std::to_string(value);
        if (++config_seen_ == kConfigFields) out_ += '\n';
        break;
    }
  }

  void operator()(CanonicalTok tok, std::uint64_t value) {
    switch (tok) {
      case CanonicalTok::kDep: Line("dep ", value); break;
      case CanonicalTok::kBody: Line("b ", value); break;
      case CanonicalTok::kHead: Line("h ", value); break;
    }
  }

  void Row(const std::uint32_t* labels, int arity) {
    for (int attr = 0; attr < arity; ++attr) {
      out_ += std::to_string(labels[attr]);
      out_ += ' ';
    }
    out_ += '\n';
  }

  void Dep(const Dependency& dep) {
    WalkCanonicalDependency(dep.body(), dep.head(), *this);
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
// token with the token kind in the top byte, and each dependency as the two
// words of its digest, which Build computed from its walk. The layout is
// fixed once the count is read, so distinct streams give distinct word
// sequences. No row is read and nothing is allocated.
class HashSink {
 public:
  HashSink() { hasher_.Add(kVersionWord); }

  void operator()(Tok tok, std::uint64_t value) {
    hasher_.Add((static_cast<std::uint64_t>(tok) << 56) ^ value);
  }

  void Dep(const Dependency& dep) {
    const Hash128& digest = dep.CanonicalDigest();
    hasher_.Add(digest.hi);
    hasher_.Add(digest.lo);
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

std::string CanonicalDependencyText(const Dependency& dep) {
  TextSink sink("");
  sink.Dep(dep);
  return sink.Take();
}

std::string CanonicalProblemText(const DependencySet& d, const Dependency& d0,
                                 const DualSolverConfig& config) {
  TextSink sink(std::string(kVersionTag) + '\n');
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
