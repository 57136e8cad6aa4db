#include "core/satisfaction.h"

#include <cassert>

namespace tdlib {

// Pure function of (dep, body_match): no shared scratch buffer or cached
// result. Concurrent match tasks reach this through their own HeadChecker
// (one multi-row head search per body match), so any future memoization
// here must be per-caller, never a shared static — a shared seed valuation
// would be written by every task at once. HeadSeedValuationInto keeps
// exactly that discipline: the scratch is the CALLER's.
void HeadSeedValuationInto(const Dependency& dep, const Valuation& body_match,
                           Valuation* out) {
  // ResetFor reuses *out's buffer: a match stream seeds thousands of head
  // searches per dependency without touching the allocator.
  out->ResetFor(dep.head());
  for (int attr = 0; attr < dep.schema().arity(); ++attr) {
    for (int v = 0; v < dep.head().NumVars(attr); ++v) {
      if (dep.IsUniversal(attr, v)) out->Set(attr, v, body_match.Get(attr, v));
    }
  }
}

Valuation HeadSeedValuation(const Dependency& dep,
                            const Valuation& body_match) {
  Valuation initial;
  HeadSeedValuationInto(dep, body_match, &initial);
  return initial;
}

HeadChecker::HeadChecker(const Dependency& dep, const Instance& instance,
                         const HomSearchOptions& options)
    : dep_(dep), instance_(instance), max_nodes_(options.max_nodes) {
  // The probe reproduces an unrestricted search; a caller asking for a
  // delta window or an id cap gets that search itself.
  if (dep.IsTd() && options.delta_begin < 0 && options.id_cap < 0) {
    key_ = dep.HeadRowUniversals();
  } else {
    search_.emplace(dep.head(), instance, options);
  }
}

bool HeadChecker::Witnessed(const Valuation& h, HomSearchStats* stats) {
  if (!search_.has_value()) {
    const std::vector<std::pair<int, int>>& universals =
        dep_.HeadRowUniversals();
    for (std::size_t i = 0; i < universals.size(); ++i) {
      key_[i].second = h.Get(universals[i].first, universals[i].second);
    }
    return ProbeRow(instance_, key_, max_nodes_, stats) >= 0;
  }
  HeadSeedValuationInto(dep_, h, &seed_);
  search_->SetInitial(seed_);
  HomSearchStatus status = search_->FindAny(nullptr);
  stats->MergeFrom(search_->stats());
  return status == HomSearchStatus::kFound;
}

SatisfactionResult CheckSatisfaction(const Dependency& dep,
                                     const Instance& instance,
                                     HomSearchOptions options) {
  SatisfactionResult result;
  // Per-call stats aggregation: each search owns its HomSearchStats and the
  // counters are summed here after each search finishes (the same
  // sum-after-join discipline the parallel chase uses).
  HomSearchStats stats;

  HomomorphismSearch body_search(dep.body(), instance, options);
  // One HeadChecker serves the whole body-match stream — reuse keeps the
  // allocator off the per-match path (the chase uses the same class).
  HeadChecker head(dep, instance, options);
  HomSearchStatus body_status = body_search.ForEach([&](const Valuation& h) {
    ++result.body_matches;
    // Try to extend h to the head: universal variables keep their binding,
    // existential variables are free.
    HomSearchStats head_stats;
    bool witnessed = head.Witnessed(h, &head_stats);
    stats.MergeFrom(head_stats);
    if (head_stats.budget_hit) {
      return false;
    }
    if (!witnessed) {
      result.counterexample = h;
      return false;  // found a violation; stop
    }
    return true;
  });
  stats.MergeFrom(body_search.stats());
  result.nodes = stats.nodes;
  result.candidates = stats.candidates;

  if (stats.budget_hit || body_status == HomSearchStatus::kBudget) {
    result.verdict = Satisfaction::kUnknown;
    result.counterexample.reset();
  } else if (result.counterexample.has_value()) {
    result.verdict = Satisfaction::kViolated;
  } else {
    result.verdict = Satisfaction::kSatisfied;
  }
  return result;
}

bool Satisfies(const Instance& instance, const Dependency& dep) {
  return CheckSatisfaction(dep, instance).verdict == Satisfaction::kSatisfied;
}

int FirstViolated(const DependencySet& deps, const Instance& instance) {
  for (std::size_t i = 0; i < deps.items.size(); ++i) {
    SatisfactionResult r = CheckSatisfaction(deps.items[i], instance);
    assert(r.verdict != Satisfaction::kUnknown);
    if (r.verdict == Satisfaction::kViolated) return static_cast<int>(i);
  }
  return -1;
}

}  // namespace tdlib
