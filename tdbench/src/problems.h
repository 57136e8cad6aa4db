// The implication problems the workloads submit: the Gurevich–Lewis
// reduction sweep, a stream of small random-TD problems, and isomorphic
// renamed copies of either.
#ifndef TDBENCH_PROBLEMS_H_
#define TDBENCH_PROBLEMS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "engine/job.h"
#include "harness.h"
#include "util/rng.h"

namespace tdbench {

/// Which construction a sweep job came from; the paper fixes its verdict.
enum class Regime {
  kImplied,  ///< derivable word problem: part (A), D implies D0
  kRefuted,  ///< finite cancellative separating model: part (B), refuted
  kGap,      ///< neither promise set: never IMPLIED
  kRandom,   ///< random TDs: no verdict known in advance
};

/// One problem of a workload, with what the checks need to know about it.
struct Problem {
  tdlib::Job job;
  Regime regime = Regime::kRandom;
};

/// The reduction sweep of engine/workload.h (ReductionSweepWorkload under
/// DefaultWorkloadSolverConfig): job i is regime i % 3 at padding i / 3.
/// Building it (NormalizeTo21 + GurevichLewisReduction::Create per job) is
/// timed as one call; its mean per job goes into `ledger` as one
/// "reduction.build_ms" sample.
std::vector<Problem> BuildSweep(int size, Ledger* ledger);

/// Random-TD problem `index` of the stream `stream`: three random TDs over
/// (A, B, C) imply a fourth, non-trivial one (the RandomTdWorkload family),
/// drawn from a generator seeded by (stream, index) alone.
Problem RandomProblem(std::uint64_t stream, std::uint64_t index);

/// An isomorphic copy of `source`: new attribute, variable and dependency
/// names (tagged with `tag`), and inside every dependency each attribute's
/// variable ids are allocated in a random order drawn from `rng`. Row
/// order, dependency order and solver budgets are kept, so the copy has the
/// same canonical form as its source.
tdlib::Job RenamedCopy(const tdlib::Job& source, tdlib::Rng* rng,
                       const std::string& tag);

/// `job` with one body row of its first dependency changed: the row's
/// first variable is replaced by a fresh one. Used by the self-test as a
/// "renamed copy" that is not isomorphic to its source.
tdlib::Job WithOneRowChanged(const tdlib::Job& job);

}  // namespace tdbench

#endif  // TDBENCH_PROBLEMS_H_
