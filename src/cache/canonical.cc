#include "cache/canonical.h"

#include <sstream>
#include <unordered_map>
#include <vector>

#include "util/hash.h"

namespace tdlib {
namespace {

// Relabels one dependency's variables per attribute by first occurrence
// (body rows first, then head rows, each row left to right) and appends the
// relabeled rows. The maps are shared between body and head, so a universal
// head variable resolves to the index its body occurrence introduced —
// exactly the equality pattern, with names and allocation order erased.
void EncodeDependency(const Dependency& dep, std::ostream& os) {
  const int arity = dep.schema().arity();
  std::vector<std::unordered_map<int, int>> relabel(arity);
  auto canon = [&relabel](int attr, int var) {
    auto inserted = relabel[attr].emplace(
        var, static_cast<int>(relabel[attr].size()));
    return inserted.first->second;
  };
  auto encode_tableau = [&](const Tableau& t, char tag) {
    os << tag << ' ' << t.num_rows() << '\n';
    for (const Row& row : t.rows()) {
      for (int attr = 0; attr < arity; ++attr) {
        os << canon(attr, row[attr]) << ' ';
      }
      os << '\n';
    }
  };
  os << "dep " << arity << '\n';
  encode_tableau(dep.body(), 'b');
  encode_tableau(dep.head(), 'h');
}

}  // namespace

bool CacheableConfig(const DualSolverConfig& config) {
  return config.base_chase.deadline_seconds <= 0 &&
         config.base_counterexample.deadline_seconds <= 0;
}

std::string CanonicalProblemText(const DependencySet& d, const Dependency& d0,
                                 const DualSolverConfig& config) {
  std::ostringstream oss;
  // Version tag: bump if the encoding ever changes shape, so fingerprints
  // from different library versions can never alias.
  oss << "tdlib-canonical 2\n" << d.items.size() << '\n';
  for (const Dependency& dep : d.items) EncodeDependency(dep, oss);
  oss << "goal\n";
  EncodeDependency(d0, oss);
  // Every deterministic budget and matching-strategy knob: they all either
  // steer the verdict (rounds, steps, tuples) or the counters the cached
  // DeterministicSummary must reproduce (use_delta splits hom_nodes
  // differently, auto_burst/max_fires_per_pass move pass boundaries,
  // match_slice_ids changes match_tasks). Deadlines are excluded because
  // CacheableConfig already rejects them; pool/cancel are runtime wiring
  // with byte-identical output by the engine's parallelism contract.
  const ChaseConfig& chase = config.base_chase;
  const CounterexampleConfig& cex = config.base_counterexample;
  oss << "cfg " << config.rounds << ' ' << (config.resume_chase ? 1 : 0)
      << ' ' << chase.max_steps << ' ' << chase.max_tuples << ' '
      << chase.hom_max_nodes << ' ' << (chase.record_trace ? 1 : 0) << ' '
      << (chase.eager_goal_check ? 1 : 0) << ' ' << (chase.use_delta ? 1 : 0)
      << ' ' << chase.max_fires_per_pass << ' ' << (chase.auto_burst ? 1 : 0)
      << ' ' << chase.match_slice_ids << ' ' << cex.max_tuples << ' '
      << cex.max_candidates << '\n';
  return oss.str();
}

CacheFingerprint FingerprintProblem(const DependencySet& d,
                                    const Dependency& d0,
                                    const DualSolverConfig& config) {
  CacheFingerprint fp;
  if (!CacheableConfig(config)) return fp;
  const std::string text = CanonicalProblemText(d, d0, config);
  const Hash128 h = HashBytes128(text.data(), text.size());
  fp.hi = h.hi;
  fp.lo = h.lo;
  fp.valid = true;
  return fp;
}

}  // namespace tdlib
