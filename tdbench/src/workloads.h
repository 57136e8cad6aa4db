// The three benchmark workloads and the self-test of the checks.
#ifndef TDBENCH_WORKLOADS_H_
#define TDBENCH_WORKLOADS_H_

#include <cstdint>
#include <string>

#include "harness.h"

namespace tdbench {

struct RunOptions {
  std::uint64_t seed = 1;
  double seconds = 10;
  /// Traced run: program metrics and trace spans on, per-layer metrics out.
  bool trace = false;
  Clock::time_point process_start;
  /// The tdworker executable (cluster_small).
  std::string worker_command;
};

/// One client submits the 24-job reduction sweep as a batch, pass after
/// pass, to a fresh 2-thread SolverService with an empty result cache.
Outcome RunSweepCold(const RunOptions& options);

/// Two closed-loop clients submit renamed copies of problems whose
/// verdicts set-up has cached; every request should be a cache hit.
Outcome RunRenamedRepeat(const RunOptions& options);

/// One client keeps a window of distinct small random-TD jobs in flight
/// through a ClusterRouter with two single-thread tdworker processes.
Outcome RunClusterSmall(const RunOptions& options);

/// Shows that every check can fail: each planted fault must be caught.
/// Returns "" when all were, otherwise the first fault that slipped through.
std::string SelfTest();

}  // namespace tdbench

#endif  // TDBENCH_WORKLOADS_H_
