// The canonicalizer: implication problems modulo renaming.
//
// The Gurevich–Lewis reduction (and production traffic generally) produces
// floods of implication questions that differ only by variable and
// attribute *names* — millions of user queries collapse onto a much smaller
// space of problems up to renaming. This module computes that quotient:
// a canonical form of (D, D0, solver budgets) that is invariant under
//
//   * attribute renaming  — attributes are reduced to their positions, so
//     schemas {A,B,C} and {X,Y,Z} canonicalize identically;
//   * variable renaming   — within each attribute, variables are relabeled
//     by first occurrence scanning body rows then head rows left to right,
//     which erases both display names and the (arbitrary) allocation order
//     of variable ids while preserving the equality pattern;
//   * dependency names    — DependencySet::names and Job::name are
//     provenance, not semantics, and are excluded.
//
// and sensitive to everything the engine's byte-identity contract depends
// on: dependency ORDER in D (the canonical fire order keys on dependency
// index, so permuting D legitimately changes traces and counters), row
// order inside each tableau, and every deterministic solver budget
// (rounds, step/tuple/node budgets, matching-strategy knobs) — two jobs
// share a fingerprint only if a fresh solve of either produces the same
// DeterministicSummary bytes, which is what lets the result cache replay
// verdicts verbatim. Wall-clock deadlines make runs nondeterministic, so
// configs carrying one are not cacheable at all (CacheableConfig).
//
// The canonical form is a token stream: the dependency count; per
// dependency its canonical walk (core/canonical_walk.h: its arity, then the
// body row count and relabeled rows, then the head row count and relabeled
// rows); the goal marker and D0 the same way; then the 13 config fields.
// Each dependency is relabeled on its own and is immutable once built, so
// Dependency::Builder::Build walks it once and keeps a 128-bit digest of its
// run. FingerprintProblem hashes the scalar tokens as 64-bit words
// (util/hash.h::Hasher128) and each dependency as its digest: it reads no
// row and allocates nothing, so fingerprinting a resubmitted problem costs
// two hashed words per dependency however large its tableaux are. A freshly
// built dependency has paid its walk in Build instead, so a one-shot job
// (parsed, generated or decoded just before it is submitted) costs what it
// did when the fingerprint walked the rows; the saving is for callers that
// submit the same built Dependency objects again.
// CanonicalProblemText renders the same stream as text, each dependency
// through the same walk its digest came from. Sharing the walk is what
// keeps the two from drifting: equal texts <=> equal fingerprints.
#ifndef TDLIB_CACHE_CANONICAL_H_
#define TDLIB_CACHE_CANONICAL_H_

#include <string>

#include "cache/fingerprint.h"
#include "chase/dual_solver.h"
#include "core/dependency.h"

namespace tdlib {

/// True iff results under `config` are a deterministic function of
/// (D, D0, config) — the precondition for caching them. Wall-clock
/// deadlines (chase or model-search side) stop runs at machine-load-
/// dependent points, so they void cacheability; every other budget
/// (steps, tuples, nodes, candidates, rounds) trips deterministically.
bool CacheableConfig(const DualSolverConfig& config);

/// Renders one dependency's canonical walk as the text lines it has inside
/// CanonicalProblemText. Two dependencies have equal texts exactly when
/// their Dependency::CanonicalDigest values are equal (barring a 128-bit
/// hash collision).
std::string CanonicalDependencyText(const Dependency& dep);

/// Renders the canonical token stream described in the file comment as
/// line-oriented text. Exposed for tests, debugging and size reporting; the
/// cache itself only ever sees the hash.
std::string CanonicalProblemText(const DependencySet& d, const Dependency& d0,
                                 const DualSolverConfig& config);

/// Hashes the canonical token stream, each dependency as its digest, into a
/// 128-bit content address (util/hash.h::Hasher128). Returns an INVALID
/// fingerprint when `config` is not cacheable, so callers can gate on
/// `.valid` alone.
CacheFingerprint FingerprintProblem(const DependencySet& d,
                                    const Dependency& d0,
                                    const DualSolverConfig& config);

}  // namespace tdlib

#endif  // TDLIB_CACHE_CANONICAL_H_
