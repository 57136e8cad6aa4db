// Measurement plumbing shared by the tdbench workloads: clocks, CPU and
// memory readings of this process and of its child processes, a fixed-size
// latency histogram, the per-layer ledger and the JSON result line.
#ifndef TDBENCH_HARNESS_H_
#define TDBENCH_HARNESS_H_

#include <sys/types.h>

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace tdbench {

using Clock = std::chrono::steady_clock;

inline double SecondsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// User+system CPU seconds of this process (all threads).
double SelfCpuSeconds();

/// User+system CPU seconds of process `pid` from /proc (clock-tick
/// resolution); 0 when the process is gone.
double PidCpuSeconds(pid_t pid);

/// Peak resident set of this process, in MB.
double SelfPeakRssMb();

/// Peak resident set (VmHWM) of process `pid`, in MB; 0 when it is gone.
double PidPeakRssMb(pid_t pid);

/// Live child processes of this process (any thread may have spawned them).
std::vector<pid_t> ChildPids();

/// Median of `values` (0 for an empty vector).
double Median(std::vector<double> values);

/// Latency histogram with 0.1% wide logarithmic buckets from 100 ns to
/// 1000 s. Memory stays fixed however many jobs a run completes, so the
/// benchmark's own bookkeeping does not move peak_rss_mb with throughput.
class LatencyHistogram {
 public:
  LatencyHistogram();

  void Add(double seconds);
  void Merge(const LatencyHistogram& other);
  std::int64_t count() const { return count_; }

  /// The q-quantile (0 < q < 1) in seconds: the geometric centre of the
  /// bucket holding the ceil(q * count)-th smallest sample.
  double Quantile(double q) const;

 private:
  std::vector<std::int64_t> buckets_;
  std::int64_t count_ = 0;
};

/// Per-layer samples, keyed by metric name. A Ledger belongs to one thread;
/// threads merge theirs at the end of a run.
class Ledger {
 public:
  void Add(const std::string& name, double value) {
    samples_[name].push_back(value);
  }
  void Merge(const Ledger& other);
  const std::vector<double>& Samples(const std::string& name) const;

 private:
  std::map<std::string, std::vector<double>> samples_;
};

/// One metric of the result line.
struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

/// What a workload hands back to main.
struct Outcome {
  bool correct = true;
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  std::vector<Metric> metrics;
};

/// Figures every workload measures over its timed part.
struct EndToEnd {
  double setup_seconds = 0;
  double timed_seconds = 0;
  std::int64_t jobs = 0;  ///< verdicts published in the timed part
  /// User+system CPU over the timed part (workers included on
  /// cluster_small).
  double cpu_seconds = 0;
  LatencyHistogram latency;
  double peak_rss_mb = 0;

  double JobsPerSecond() const {
    return timed_seconds > 0 ? static_cast<double>(jobs) / timed_seconds : 0;
  }
  double CpuSecondsPerJob() const {
    return jobs > 0 ? cpu_seconds / static_cast<double>(jobs) : 0;
  }
};

/// The six end-to-end metrics, in BENCHMARK.json order.
std::vector<Metric> EndToEndMetrics(const EndToEnd& e2e);

/// Renders the result line: {"correct":...,"attempted":...,"failed":...,
/// "metrics":{name:{"value":v,"unit":u},...}}.
std::string ResultJson(const Outcome& outcome);

}  // namespace tdbench

#endif  // TDBENCH_HARNESS_H_
