// tdbench: runs one workload against tdlib and prints its metrics.
//
//   tdbench --workload=NAME --seed=N --seconds=S --trace=0|1
//           [--trace-file=PATH]
//   tdbench --self-test
//
// NAME is sweep_cold, renamed_repeat or cluster_small (see README.md). The
// last line of standard output is one JSON object: {"correct", "attempted",
// "failed", "metrics"}, with the end-to-end metrics when --trace=0 and the
// per-layer metrics when --trace=1. A traced run also switches on the
// library's metrics registry and trace spans and writes the spans, with the
// benchmark's own, as a Chrome trace to --trace-file.
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>

#include "util/metrics.h"
#include "util/trace_span.h"
#include "workloads.h"

namespace {

bool Flag(const std::string& arg, const char* name, std::string* value) {
  const std::string prefix = std::string("--") + name + "=";
  if (arg.rfind(prefix, 0) != 0) return false;
  *value = arg.substr(prefix.size());
  return true;
}

int Usage(const std::string& problem) {
  std::fprintf(stderr,
               "tdbench: %s\nusage: tdbench --workload=sweep_cold|"
               "renamed_repeat|cluster_small --seed=N --seconds=S "
               "--trace=0|1 [--trace-file=PATH] | --self-test\n",
               problem.c_str());
  return 64;
}

void WriteTrace(const std::string& path) {
  if (path.empty()) return;
  std::ofstream out(path);
  const tdlib::TraceBuffer& buffer = tdlib::TraceBuffer::Global();
  buffer.WriteChromeTrace(out);
  std::fprintf(stderr, "tdbench: trace %s: %llu spans recorded, %llu dropped\n",
               path.c_str(),
               static_cast<unsigned long long>(buffer.TotalRecorded()),
               static_cast<unsigned long long>(buffer.Dropped()));
}

}  // namespace

int main(int argc, char** argv) {
  tdbench::RunOptions options;
  options.process_start = tdbench::Clock::now();
  options.worker_command = TDBENCH_TDWORKER;
  std::string workload;
  std::string trace_file;
  bool self_test = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    std::string value;
    char* end = nullptr;
    if (arg == "--self-test") {
      self_test = true;
    } else if (Flag(arg, "workload", &value)) {
      workload = value;
    } else if (Flag(arg, "seed", &value)) {
      options.seed = std::strtoull(value.c_str(), &end, 10);
      if (value.empty() || *end != '\0') return Usage("bad --seed");
    } else if (Flag(arg, "seconds", &value)) {
      options.seconds = std::strtod(value.c_str(), &end);
      if (value.empty() || *end != '\0' || !(options.seconds > 0)) {
        return Usage("bad --seconds");
      }
    } else if (Flag(arg, "trace", &value)) {
      if (value != "0" && value != "1") return Usage("bad --trace");
      options.trace = value == "1";
    } else if (Flag(arg, "trace-file", &value)) {
      trace_file = value;
    } else {
      return Usage("unknown argument " + arg);
    }
  }

  if (self_test) {
    const std::string missed = tdbench::SelfTest();
    if (!missed.empty()) {
      std::fprintf(stderr, "tdbench: self-test FAILED: %s\n", missed.c_str());
      return 1;
    }
    std::printf("self-test passed: every planted fault was caught\n");
    return 0;
  }

  if (options.trace) {
    tdlib::SetMetricsEnabled(true);
    tdlib::SetTracingEnabled(true);
  }
  tdbench::Outcome outcome;
  if (workload == "sweep_cold") {
    outcome = tdbench::RunSweepCold(options);
  } else if (workload == "renamed_repeat") {
    outcome = tdbench::RunRenamedRepeat(options);
  } else if (workload == "cluster_small") {
    outcome = tdbench::RunClusterSmall(options);
  } else {
    return Usage("unknown --workload '" + workload + "'");
  }
  if (options.trace) WriteTrace(trace_file);

  // The checks must themselves be able to fail; a run whose self-test lets
  // a planted fault through cannot vouch for its own outputs.
  const std::string missed = tdbench::SelfTest();
  if (!missed.empty()) {
    std::fprintf(stderr, "tdbench: self-test FAILED: %s\n", missed.c_str());
    outcome.correct = false;
  }
  std::printf("%s\n", tdbench::ResultJson(outcome).c_str());
  return 0;
}
