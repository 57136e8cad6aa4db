// Dependency satisfaction over finite instances (model checking).
//
// This is the "logical consequence" primitive of the paper's *true database
// interpretation*: a dependency holds in a finite database M iff every
// homomorphic match of its antecedents extends to a match of its conclusion.
// The part (B) verification ("this structure is a model for each dependency
// in D but not for D0") is exactly this check.
#ifndef TDLIB_CORE_SATISFACTION_H_
#define TDLIB_CORE_SATISFACTION_H_

#include <cstdint>
#include <optional>
#include <utility>
#include <vector>

#include "core/dependency.h"
#include "logic/homomorphism.h"
#include "logic/instance.h"

namespace tdlib {

/// Three-valued satisfaction verdict. kUnknown only occurs when a node
/// budget is configured and exhausted.
enum class Satisfaction { kSatisfied, kViolated, kUnknown };

/// Outcome details of a satisfaction check.
struct SatisfactionResult {
  Satisfaction verdict = Satisfaction::kUnknown;

  /// When kViolated: a body valuation with no head extension.
  std::optional<Valuation> counterexample;

  /// Number of body homomorphisms enumerated.
  std::uint64_t body_matches = 0;

  /// Total search nodes across body and head searches.
  std::uint64_t nodes = 0;

  /// Candidate tuples tried across all searches: the per-candidate
  /// filtering work left after the index picks each row's posting list.
  std::uint64_t candidates = 0;
};

/// The standard seed for a head-witness search: a valuation over
/// `dep.head()`'s variable space with every universal variable bound to its
/// value in `body_match` and every existential variable left free. The
/// general (multi-row) head check searches from it; a TD head probe binds
/// the same values.
Valuation HeadSeedValuation(const Dependency& dep, const Valuation& body_match);

/// Allocation-free variant for match streams: writes the seed into *out,
/// reusing its buffers (after the first call per (caller, dep) no
/// allocation happens). `out` is caller-owned scratch — the reuse stays
/// per-caller, so concurrent match tasks still share nothing.
void HeadSeedValuationInto(const Dependency& dep, const Valuation& body_match,
                           Valuation* out);

/// Head-witness tester for ONE dependency against ONE instance, reusable
/// across a whole body-match stream. What it builds is fixed once, at
/// construction, by the dependency:
///  - a TD head is one row, so a witness check is one index probe
///    (ProbeRow, logic/homomorphism.h) on the head row's universal
///    positions — no search object, no seed valuation;
///  - a multi-row (EID) head — or a caller asking for a delta window or an
///    id cap — keeps the backtracking search, seeded per check
///    through HeadSeedValuationInto into the checker's own scratch.
/// Either way the counters are exactly those of the general head search,
/// so the dispatch is invisible in hom_nodes/hom_candidates. Shared by
/// satisfaction checking and the chase's match/fire phases. Strictly
/// single-thread; concurrent match tasks each own their checker
/// (per-caller scratch, nothing shared). Reads the instance through a
/// reference, so it observes tuples inserted between calls (the chase's
/// firing phase relies on this); both referents must outlive the checker.
class HeadChecker {
 public:
  HeadChecker(const Dependency& dep, const Instance& instance,
              const HomSearchOptions& options);

  /// True if `h` (a body match for the dependency) extends to its head;
  /// merges the head check's counters into *stats.
  bool Witnessed(const Valuation& h, HomSearchStats* stats);

 private:
  Dependency dep_;
  const Instance& instance_;
  std::uint64_t max_nodes_;
  // TD heads: the probe key — one (attr, value) per position of the
  // dependency's HeadRowUniversals, refilled from each body match.
  std::vector<std::pair<int, int>> key_;
  // Multi-row heads: the general search and its seed scratch.
  std::optional<HomomorphismSearch> search_;
  Valuation seed_;
};

/// Checks whether `instance` satisfies `dep`.
SatisfactionResult CheckSatisfaction(const Dependency& dep,
                                     const Instance& instance,
                                     HomSearchOptions options = {});

/// Convenience: true iff the check returns kSatisfied.
bool Satisfies(const Instance& instance, const Dependency& dep);

/// Checks a set; returns the index of the first violated dependency, or -1
/// if all are satisfied. (Asserts if any check hits a budget.)
int FirstViolated(const DependencySet& deps, const Instance& instance);

}  // namespace tdlib

#endif  // TDLIB_CORE_SATISFACTION_H_
