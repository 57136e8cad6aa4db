// Template dependencies and embedded implicational dependencies.
//
// A template dependency (TD, Sadri & Ullman 1980) states: whenever the
// antecedent rows all match tuples of the database, a tuple matching the
// conclusion row is also present. Symbols of the conclusion that appear in
// the antecedents are universally quantified; the rest are existential.
//
//   R(a, b, c) & R(a, b', c')  =>  R(a*, b, c')        (the paper's Fig. 1)
//
// An embedded implicational dependency (EID, Chandra–Lewis–Makowsky 1981)
// generalizes the conclusion to a conjunction of atoms. tdlib represents
// both with one class, `Dependency`; `IsTd()` distinguishes them. The paper
// proves its result for TDs, which strengthens the EID result — keeping both
// in the library lets the test suite exercise exactly that containment.
#ifndef TDLIB_CORE_DEPENDENCY_H_
#define TDLIB_CORE_DEPENDENCY_H_

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "logic/tableau.h"
#include "util/hash.h"
#include "util/status.h"

namespace tdlib {

/// An implicational dependency body => head over a single typed relation.
///
/// Body and head are tableaux over one shared variable space: both Tableau
/// objects carry identical per-attribute variable counts and names. A
/// variable is *universal* iff it occurs in some body row; all other
/// variables are existentially quantified in the head.
///
/// A Dependency is immutable after Build(), so its body, head, universality
/// bitmap, head-row universals and canonical digest live in one shared,
/// const representation:
/// copying a Dependency (into a Job, a DependencySet, a wire message, an
/// in-flight runner) bumps a reference count instead of copying tableaux,
/// and copies alias the same storage for as long as any of them lives.
class Dependency {
 public:
  /// Use DependencyBuilder to construct; this type is immutable after build.
  class Builder;

  const Schema& schema() const { return rep_->body.schema(); }
  const SchemaPtr& schema_ptr() const { return rep_->body.schema_ptr(); }

  const Tableau& body() const { return rep_->body; }
  const Tableau& head() const { return rep_->head; }

  /// True iff this is a template dependency (single conclusion atom).
  bool IsTd() const { return rep_->head.num_rows() == 1; }

  /// True iff variable (attr, var) occurs in the body ("universal").
  bool IsUniversal(int attr, int var) const {
    return rep_->universal[attr][var];
  }

  /// The head rows' universal positions as (attr, var) pairs, sorted, each
  /// once: the variables a head-witness check binds from a body match (for
  /// a TD, one per attribute at most — what ProbeRow in
  /// logic/homomorphism.h binds). A body match's values on them are its
  /// *head key*: whether the head is witnessed depends on nothing else.
  /// Computed once by Build().
  const std::vector<std::pair<int, int>>& HeadRowUniversals() const {
    return rep_->head_universals;
  }

  /// 128-bit digest of this dependency's canonical walk
  /// (core/canonical_walk.h): equal exactly when two dependencies are equal
  /// up to variable and attribute renaming, with row order kept. Computed
  /// once by Build(); the result cache's fingerprint combines these digests
  /// instead of re-walking rows (cache/canonical.h).
  const Hash128& CanonicalDigest() const { return rep_->digest; }

  /// A dependency is *full* when every head variable is universal (the
  /// paper: "if a*, b*, ..., c* all appear among the antecedents, then the
  /// dependency is said to be full, otherwise embedded").
  bool IsFull() const;

  /// A dependency is *trivial* when the head already maps into the body
  /// fixing universal variables — such a dependency holds in every database.
  bool IsTrivial() const;

  /// Human-readable single-line rendering:
  ///   R(a,b,c) & R(a,b1,c1) => R(a2,b,c1)
  std::string ToString() const;

  /// Structural validation; returns "" or a description of the first
  /// problem (empty body, head/body variable-space mismatch, ...).
  std::string CheckInvariants() const;

  /// Builds a copy of this dependency whose variables are freshly renamed
  /// (used when the same dependency is instantiated repeatedly).
  Dependency RenameVariables(const std::string& suffix) const;

 private:
  struct Rep {
    Tableau body;
    Tableau head;
    std::vector<std::vector<bool>> universal;  // [attr][var]
    std::vector<std::pair<int, int>> head_universals;
    Hash128 digest;
  };

  explicit Dependency(std::shared_ptr<const Rep> rep) : rep_(std::move(rep)) {}

  std::shared_ptr<const Rep> rep_;
};

/// Incrementally assembles a Dependency. Typical use:
///
///   Dependency::Builder b(schema);
///   int a = b.Var(0, "a"), s1 = b.Var(1, "b"), ...;
///   b.AddBodyRow({a, s1, z1});
///   b.AddHeadRow({a2, s1, z2});
///   Dependency d = std::move(b).Build().value();
class Dependency::Builder {
 public:
  explicit Builder(SchemaPtr schema) : body_(schema), head_(std::move(schema)) {}

  /// Allocates a fresh typed variable; usable in body and head rows.
  int Var(int attr, std::string name = "");

  /// Appends an antecedent atom.
  void AddBodyRow(Row row) { body_.AddRow(std::move(row)); }

  /// Appends a conclusion atom.
  void AddHeadRow(Row row) { head_.AddRow(std::move(row)); }

  /// Validates and produces the dependency.
  Result<Dependency> Build() &&;

 private:
  Tableau body_;
  Tableau head_;
};

/// A named finite set of dependencies (the paper's "D").
struct DependencySet {
  std::vector<Dependency> items;
  std::vector<std::string> names;  ///< parallel to items; may be empty

  void Add(Dependency d, std::string name = "");
  std::string ToString() const;
};

}  // namespace tdlib

#endif  // TDLIB_CORE_DEPENDENCY_H_
