#include "oracle.h"

#include <functional>

#include "util/hash.h"

namespace tdbench {
namespace {

using tdlib::Dependency;
using tdlib::DualVerdict;
using tdlib::Row;

// One dependency flattened for the nested loops: every (attribute,
// variable) pair gets a slot in one assignment vector.
struct Flat {
  std::vector<std::vector<int>> body;  // slot per attribute, per row
  std::vector<std::vector<int>> head;
  int slots = 0;
};

Flat Flatten(const Dependency& dep) {
  const int arity = dep.schema().arity();
  std::vector<int> offset(static_cast<std::size_t>(arity), 0);
  Flat flat;
  for (int a = 0; a < arity; ++a) {
    offset[a] = flat.slots;
    flat.slots += dep.body().NumVars(a);
  }
  auto slot_row = [&](const Row& row) {
    std::vector<int> out(row.size());
    for (std::size_t a = 0; a < row.size(); ++a) out[a] = offset[a] + row[a];
    return out;
  };
  for (const Row& row : dep.body().rows()) flat.body.push_back(slot_row(row));
  for (const Row& row : dep.head().rows()) flat.head.push_back(slot_row(row));
  return flat;
}

// Tries every tuple for rows[i], rows[i+1], ... under `value` (slot ->
// value, -1 = unassigned); calls `done` on each complete assignment and
// stops as soon as it returns true. Returns whether it did.
bool Assign(const std::vector<std::vector<int>>& rows, std::size_t i,
            const Database& db, std::vector<int>* value,
            const std::function<bool()>& done) {
  if (i == rows.size()) return done();
  const std::vector<int>& row = rows[i];
  for (const std::vector<int>& tuple : db) {
    std::vector<int> bound;
    bool fits = true;
    for (std::size_t a = 0; a < row.size() && fits; ++a) {
      int& v = (*value)[static_cast<std::size_t>(row[a])];
      if (v == -1) {
        v = tuple[a];
        bound.push_back(row[a]);
      } else if (v != tuple[a]) {
        fits = false;
      }
    }
    if (fits && Assign(rows, i + 1, db, value, done)) return true;
    for (int slot : bound) (*value)[static_cast<std::size_t>(slot)] = -1;
  }
  return false;
}

}  // namespace

Database ToDatabase(const tdlib::Instance& instance) {
  Database db;
  db.reserve(instance.NumTuples());
  for (std::size_t i = 0; i < instance.NumTuples(); ++i) {
    const tdlib::TupleRef t = instance.tuple(static_cast<int>(i));
    std::vector<int> tuple(static_cast<std::size_t>(t.arity()));
    for (int a = 0; a < t.arity(); ++a) tuple[a] = t[a];
    db.push_back(std::move(tuple));
  }
  return db;
}

bool Holds(const Dependency& dep, const Database& db) {
  const Flat flat = Flatten(dep);
  std::vector<int> value(static_cast<std::size_t>(flat.slots), -1);
  // A body assignment with no head extension is a violation.
  const bool violated = Assign(flat.body, 0, db, &value, [&] {
    std::vector<int> extended = value;
    return !Assign(flat.head, 0, db, &extended, [] { return true; });
  });
  return !violated;
}

bool SmallCounterexampleExists(const tdlib::DependencySet& d,
                               const Dependency& d0) {
  const int arity = d0.schema().arity();
  const int cells = 1 << arity;
  Database all;
  for (int code = 0; code < cells; ++code) {
    std::vector<int> tuple(static_cast<std::size_t>(arity));
    for (int a = 0; a < arity; ++a) tuple[a] = (code >> a) & 1;
    all.push_back(std::move(tuple));
  }
  for (std::uint32_t subset = 1; subset < (1u << cells); ++subset) {
    Database db;
    for (int k = 0; k < cells; ++k) {
      if (subset & (1u << k)) db.push_back(all[static_cast<std::size_t>(k)]);
    }
    if (Holds(d0, db)) continue;
    bool model = true;
    for (const Dependency& dep : d.items) {
      if (!Holds(dep, db)) {
        model = false;
        break;
      }
    }
    if (model) return true;
  }
  return false;
}

Fields Fields::Of(const tdlib::JobResult& r) {
  return Fields{r.verdict,     r.rounds_used,    r.chase_steps,
                r.chase_passes, r.hom_nodes,     r.match_tasks,
                r.carried_passes, r.candidates_checked};
}

Fields Fields::Of(const tdlib::DualResult& r) {
  const tdlib::ChaseResult& c = r.implication.chase;
  return Fields{r.verdict,   r.rounds_used,   c.steps,
                c.passes,    c.hom_nodes,     c.match_tasks,
                c.carried_passes, r.counterexample.candidates_checked};
}

std::uint64_t Fields::Digest() const {
  std::size_t h = static_cast<std::size_t>(verdict);
  for (std::uint64_t v :
       {static_cast<std::uint64_t>(rounds_used), chase_steps, chase_passes,
        hom_nodes, match_tasks, carried_passes, candidates_checked}) {
    tdlib::HashCombine(&h, static_cast<std::size_t>(v));
  }
  return h;
}

bool operator==(const Fields& a, const Fields& b) {
  return a.verdict == b.verdict && a.rounds_used == b.rounds_used &&
         a.chase_steps == b.chase_steps && a.chase_passes == b.chase_passes &&
         a.hom_nodes == b.hom_nodes && a.match_tasks == b.match_tasks &&
         a.carried_passes == b.carried_passes &&
         a.candidates_checked == b.candidates_checked;
}

bool ServedAsCopy(const tdlib::JobResult& r, const Fields& source) {
  return r.status == tdlib::JobStatus::kCompleted &&
         r.cache_source == tdlib::CacheSource::kHit && Fields::Of(r) == source;
}

std::string CheckWitness(const tdlib::DependencySet& d, const Dependency& d0,
                         const Database& witness) {
  for (std::size_t k = 0; k < d.items.size(); ++k) {
    if (!Holds(d.items[k], witness)) {
      return "witness violates member " + std::to_string(k) + " of D";
    }
  }
  if (Holds(d0, witness)) return "witness satisfies D0";
  return "";
}

std::string CheckRegime(Regime regime, DualVerdict verdict) {
  const bool refuted = verdict == DualVerdict::kRefutedFinite ||
                       verdict == DualVerdict::kRefutedByFixpoint;
  switch (regime) {
    case Regime::kImplied:
      return verdict == DualVerdict::kImplied ? "" : "implied regime not IMPLIED";
    case Regime::kRefuted:
      return refuted ? "" : "refuted regime not refuted";
    case Regime::kGap:
      return verdict != DualVerdict::kImplied ? "" : "gap regime IMPLIED";
    case Regime::kRandom:
      return "";
  }
  return "";
}

std::string CheckCertificate(const Problem& problem,
                             const tdlib::DualResult& dual) {
  const tdlib::Job& job = problem.job;
  std::string error = CheckRegime(problem.regime, dual.verdict);
  if (error.empty()) {
    switch (dual.verdict) {
      case DualVerdict::kRefutedFinite:
        error = dual.counterexample.witness
                    ? CheckWitness(job.dependencies, job.goal,
                                   ToDatabase(*dual.counterexample.witness))
                    : "REFUTED-FINITE without a witness";
        break;
      case DualVerdict::kRefutedByFixpoint:
        error = dual.implication.counterexample
                    ? CheckWitness(job.dependencies, job.goal,
                                   ToDatabase(*dual.implication.counterexample))
                    : "REFUTED-FIXPOINT without a universal model";
        break;
      case DualVerdict::kImplied:
        if (problem.regime == Regime::kRandom &&
            SmallCounterexampleExists(job.dependencies, job.goal)) {
          error = "IMPLIED, but a small counterexample exists";
        }
        break;
      case DualVerdict::kUnknown:
        break;
    }
  }
  return error.empty() ? error : job.name + ": " + error;
}

Verified VerifyProblem(const Problem& problem) {
  const tdlib::DualResult dual = tdlib::SolveImplication(
      problem.job.dependencies, problem.job.goal, problem.job.config);
  return Verified{Fields::Of(dual), CheckCertificate(problem, dual)};
}

}  // namespace tdbench
