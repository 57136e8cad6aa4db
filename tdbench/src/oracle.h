// Correctness checks that share no code with the solver: a naive
// nested-loop TD satisfaction test, a bounded brute-force counterexample
// search, and the certificate and regime checks built on them.
//
// Only the plain data accessors of tdlib's values are read here (tableau
// rows, variable counts, instance tuples); nothing from core/satisfaction,
// logic/homomorphism or chase/counterexample is called.
#ifndef TDBENCH_ORACLE_H_
#define TDBENCH_ORACLE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "chase/dual_solver.h"
#include "engine/job.h"
#include "problems.h"

namespace tdbench {

/// A database: a list of tuples, one value per attribute.
using Database = std::vector<std::vector<int>>;

/// The tuples of `instance`.
Database ToDatabase(const tdlib::Instance& instance);

/// True iff `dep` holds in `db`: every assignment of its body rows to tuples
/// that agrees on shared variables extends to an assignment of its head
/// rows. Checked by nested loops over the tuples, one loop per row.
bool Holds(const tdlib::Dependency& dep, const Database& db);

/// True iff some database over the domain {0, 1} in every attribute (all
/// 2^(2^arity) of them) satisfies every member of `d` and violates `d0`.
/// Only for arity <= 3.
bool SmallCounterexampleExists(const tdlib::DependencySet& d,
                               const tdlib::Dependency& d0);

/// The fields of a result that are a function of the job alone.
struct Fields {
  tdlib::DualVerdict verdict = tdlib::DualVerdict::kUnknown;
  int rounds_used = 0;
  std::uint64_t chase_steps = 0;
  std::uint64_t chase_passes = 0;
  std::uint64_t hom_nodes = 0;
  std::uint64_t match_tasks = 0;
  std::uint64_t carried_passes = 0;
  std::uint64_t candidates_checked = 0;

  static Fields Of(const tdlib::JobResult& result);
  static Fields Of(const tdlib::DualResult& result);
  /// A 64-bit digest, so a run can keep one word per job.
  std::uint64_t Digest() const;
  friend bool operator==(const Fields& a, const Fields& b);
  friend bool operator!=(const Fields& a, const Fields& b) { return !(a == b); }
};

/// True iff `r` is what a renamed copy of a cached problem must get back:
/// a completed cache hit carrying its source's fields.
bool ServedAsCopy(const tdlib::JobResult& r, const Fields& source);

/// "" when `witness` satisfies every member of `d` and violates `d0`,
/// otherwise what is wrong with it.
std::string CheckWitness(const tdlib::DependencySet& d,
                         const tdlib::Dependency& d0, const Database& witness);

/// The serial reference for one problem: SolveImplication's result, checked.
struct Verified {
  Fields fields;
  std::string error;  ///< "" when every check passed
};

/// "" when `dual` is a sound answer to `problem`: a refutation's witness
/// (finite model or universal model) satisfies D and violates D0; an
/// IMPLIED random problem has no small counterexample; a sweep verdict
/// matches its regime.
std::string CheckCertificate(const Problem& problem,
                             const tdlib::DualResult& dual);

/// Solves `problem` serially with SolveImplication and checks the result
/// with CheckCertificate.
Verified VerifyProblem(const Problem& problem);

/// "" when `verdict` is allowed for `regime` by the paper's construction.
std::string CheckRegime(Regime regime, tdlib::DualVerdict verdict);

}  // namespace tdbench

#endif  // TDBENCH_ORACLE_H_
