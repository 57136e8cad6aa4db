#include "harness.h"

#include <dirent.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>

namespace tdbench {
namespace {

constexpr double kHistMin = 1e-7;
constexpr double kHistMax = 1e3;
const double kLogStep = std::log1p(1e-3);
const int kHistBuckets =
    static_cast<int>(std::ceil(std::log(kHistMax / kHistMin) / kLogStep)) + 1;

// Reads /proc/<pid>/stat and returns the fields after the ")" that closes
// the command name (which may itself contain spaces and parentheses).
std::vector<std::string> StatFields(pid_t pid) {
  std::ifstream in("/proc/" + std::to_string(pid) + "/stat");
  std::string line;
  std::getline(in, line);
  const std::size_t close = line.rfind(')');
  std::vector<std::string> fields;
  if (close == std::string::npos) return fields;
  std::istringstream rest(line.substr(close + 1));
  std::string field;
  while (rest >> field) fields.push_back(field);
  return fields;
}

// Formats a double with every significant digit.
std::string Number(double v) {
  if (!std::isfinite(v)) v = 0;
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

}  // namespace

double SelfCpuSeconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_utime.tv_sec + usage.ru_stime.tv_sec) +
         1e-6 * static_cast<double>(usage.ru_utime.tv_usec +
                                    usage.ru_stime.tv_usec);
}

double PidCpuSeconds(pid_t pid) {
  // Fields after the command name start at stat field 3 (state); utime and
  // stime are fields 14 and 15.
  const std::vector<std::string> f = StatFields(pid);
  if (f.size() < 13) return 0;
  const double ticks = static_cast<double>(sysconf(_SC_CLK_TCK));
  return (std::strtod(f[11].c_str(), nullptr) +
          std::strtod(f[12].c_str(), nullptr)) /
         ticks;
}

double SelfPeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

double PidPeakRssMb(pid_t pid) {
  std::ifstream in("/proc/" + std::to_string(pid) + "/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0;
}

std::vector<pid_t> ChildPids() {
  std::vector<pid_t> children;
  DIR* dir = opendir("/proc");
  if (dir == nullptr) return children;
  const std::string self = std::to_string(getpid());
  while (dirent* entry = readdir(dir)) {
    char* end = nullptr;
    const long pid = std::strtol(entry->d_name, &end, 10);
    if (end == entry->d_name || *end != '\0') continue;
    const std::vector<std::string> f = StatFields(static_cast<pid_t>(pid));
    // f[1] is stat field 4, the parent pid.
    if (f.size() > 1 && f[1] == self) {
      children.push_back(static_cast<pid_t>(pid));
    }
  }
  closedir(dir);
  std::sort(children.begin(), children.end());
  return children;
}

LatencyHistogram::LatencyHistogram()
    : buckets_(static_cast<std::size_t>(kHistBuckets), 0) {}

void LatencyHistogram::Add(double seconds) {
  const double clamped = std::min(std::max(seconds, kHistMin), kHistMax);
  int b = static_cast<int>(std::log(clamped / kHistMin) / kLogStep);
  b = std::min(std::max(b, 0), kHistBuckets - 1);
  ++buckets_[static_cast<std::size_t>(b)];
  ++count_;
}

void LatencyHistogram::Merge(const LatencyHistogram& other) {
  for (std::size_t i = 0; i < buckets_.size(); ++i) {
    buckets_[i] += other.buckets_[i];
  }
  count_ += other.count_;
}

double LatencyHistogram::Quantile(double q) const {
  if (count_ == 0) return 0;
  const std::int64_t rank = std::max<std::int64_t>(
      1, static_cast<std::int64_t>(std::ceil(q * static_cast<double>(count_))));
  std::int64_t seen = 0;
  for (std::size_t i = 0; i < buckets_.size(); ++i) {
    seen += buckets_[i];
    if (seen >= rank) {
      return kHistMin * std::exp((static_cast<double>(i) + 0.5) * kLogStep);
    }
  }
  return kHistMax;
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0;
  const std::size_t mid = values.size() / 2;
  std::nth_element(values.begin(), values.begin() + mid, values.end());
  if (values.size() % 2 == 1) return values[mid];
  const double upper = values[mid];
  const double lower =
      *std::max_element(values.begin(), values.begin() + mid);
  return 0.5 * (lower + upper);
}

void Ledger::Merge(const Ledger& other) {
  for (const auto& [name, samples] : other.samples_) {
    std::vector<double>& mine = samples_[name];
    mine.insert(mine.end(), samples.begin(), samples.end());
  }
}

const std::vector<double>& Ledger::Samples(const std::string& name) const {
  static const std::vector<double> kEmpty;
  auto it = samples_.find(name);
  return it == samples_.end() ? kEmpty : it->second;
}

std::vector<Metric> EndToEndMetrics(const EndToEnd& e2e) {
  return {
      {"jobs_per_s", e2e.JobsPerSecond(), "jobs/s"},
      {"latency_p50_ms", 1e3 * e2e.latency.Quantile(0.5), "ms"},
      {"latency_p90_ms", 1e3 * e2e.latency.Quantile(0.9), "ms"},
      {"cpu_ms_per_job", 1e3 * e2e.CpuSecondsPerJob(), "ms"},
      {"peak_rss_mb", e2e.peak_rss_mb, "MB"},
      {"setup_s", e2e.setup_seconds, "s"},
  };
}

std::string ResultJson(const Outcome& outcome) {
  std::string out = "{\"correct\": ";
  out += outcome.correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(outcome.attempted);
  out += ", \"failed\": " + std::to_string(outcome.failed);
  out += ", \"metrics\": {";
  for (std::size_t i = 0; i < outcome.metrics.size(); ++i) {
    const Metric& m = outcome.metrics[i];
    if (i > 0) out += ", ";
    out += "\"" + m.name + "\": {\"value\": " + Number(m.value) +
           ", \"unit\": \"" + m.unit + "\"}";
  }
  out += "}}";
  return out;
}

}  // namespace tdbench
