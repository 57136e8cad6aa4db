#include "workloads.h"

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <numeric>
#include <thread>
#include <utility>
#include <vector>

#include "cache/canonical.h"
#include "cache/result_cache.h"
#include "cluster/router.h"
#include "cluster/wire.h"
#include "engine/service.h"
#include "oracle.h"
#include "problems.h"
#include "util/metrics.h"
#include "util/trace_span.h"

namespace tdbench {
namespace {

using tdlib::CacheSource;
using tdlib::Job;
using tdlib::JobResult;
using tdlib::TraceSpan;

// Busy client or solver threads per workload. On a shared 4-core host,
// four busy threads made sweep_cold's latency_p90_ms spread three times as
// wide from run to run as two did. With one service thread, sweep_cold's
// latency_p50_ms spread wider still (683-1071 ms over five runs).
constexpr int kBusyThreads = 2;
constexpr int kSweepSize = 24;
// Traced runs of renamed_repeat and cluster_small, whose jobs take tens of
// microseconds, probe the cache and codec layers on one job in
// kProbeEvery: probing every job cut their traced rate to a sixth.
constexpr std::uint64_t kProbeEvery = 8;

double Micros(Clock::time_point a, Clock::time_point b) {
  return 1e6 * SecondsBetween(a, b);
}

std::int64_t HomCandidates() {
  return tdlib::MetricsRegistry::Global()
      .GetCounter("chase.hom_candidates")
      ->Value();
}

// Mean submit-to-pickup wait of the jobs SolverService ran in this process,
// from the service's own histogram. JobResult::queue_seconds cannot be used:
// it reads 0 on every job that ran.
double MeanQueueMs() {
  const tdlib::HistogramSnapshot h =
      tdlib::MetricsRegistry::Global()
          .GetHistogram("engine.queue_wait_seconds", tdlib::LatencyBuckets())
          ->Snapshot();
  return h.count == 0 ? 0
                      : 1e-6 * static_cast<double>(h.sum_ns) /
                            static_cast<double>(h.count);
}

// ---- Traced-run probes: calls into the cache and cluster layers, timed
// from here on the job the workload is about to submit (or just got back).

// Returns the job's fingerprint.
tdlib::CacheFingerprint ProbeJob(const Job& job, tdlib::ResultCache* cache,
                                 Ledger* ledger) {
  Clock::time_point t0 = Clock::now();
  tdlib::CacheFingerprint fp;
  {
    TraceSpan span("bench.fingerprint");
    fp = tdlib::FingerprintProblem(job.dependencies, job.goal, job.config);
  }
  Clock::time_point t1 = Clock::now();
  ledger->Add("cache.fingerprint_us", Micros(t0, t1));
  ledger->Add("cache.canonical_bytes",
              static_cast<double>(tdlib::CanonicalProblemText(
                                      job.dependencies, job.goal, job.config)
                                      .size()));
  tdlib::CachedVerdict cached;
  t0 = Clock::now();
  {
    TraceSpan span("bench.lookup");
    cache->Lookup(fp, &cached);
  }
  ledger->Add("cache.lookup_us", Micros(t0, Clock::now()));

  t0 = Clock::now();
  std::string payload;
  {
    TraceSpan span("bench.codec");
    payload = tdlib::EncodeJobPayload(tdlib::WireJob(job));
    tdlib::Result<tdlib::WireJob> back = tdlib::DecodeJobPayload(payload);
    if (!back.ok()) ledger->Add("codec_errors", 1);
  }
  ledger->Add("cluster.codec_us", Micros(t0, Clock::now()));
  ledger->Add("cluster.frame_bytes",
              static_cast<double>(payload.size() + tdlib::kFrameHeaderSize));
  return fp;
}

void ProbeResult(const JobResult& result, Ledger* ledger) {
  tdlib::WireResult wire;
  wire.result = result;
  const Clock::time_point t0 = Clock::now();
  std::string payload;
  {
    TraceSpan span("bench.codec");
    payload = tdlib::EncodeResultPayload(wire);
    tdlib::Result<tdlib::WireResult> back = tdlib::DecodeResultPayload(payload);
    if (!back.ok()) ledger->Add("codec_errors", 1);
  }
  ledger->Add("cluster.codec_us", Micros(t0, Clock::now()));
  ledger->Add("cluster.frame_bytes",
              static_cast<double>(payload.size() + tdlib::kFrameHeaderSize));
}

// Per-job layer figures carried by a result. Cache hits did no solver work,
// so only results that ran feed the engine, chase and logic rows.
void RecordResult(const JobResult& r, double latency_seconds, int dispatches,
                  Ledger* ledger) {
  const bool hit = r.cache_source == CacheSource::kHit;
  if (r.cache_source != CacheSource::kNone) {
    ledger->Add("cache.hit_ratio", hit ? 1 : 0);
  }
  ledger->Add("cluster.dispatches_per_job", dispatches);
  if (hit) return;
  const double run_ms = 1e3 * r.wall_seconds;
  const double phases_ms =
      1e3 * (r.match_seconds + r.fire_seconds + r.checkpoint_seconds);
  ledger->Add("engine.run_ms", run_ms);
  ledger->Add("chase.match_ms", 1e3 * r.match_seconds);
  ledger->Add("chase.fire_ms", 1e3 * r.fire_seconds);
  ledger->Add("chase.checkpoint_ms", 1e3 * r.checkpoint_seconds);
  ledger->Add("chase.other_ms", run_ms - phases_ms);
  ledger->Add("chase.steps", static_cast<double>(r.chase_steps));
  ledger->Add("chase.match_tasks", static_cast<double>(r.match_tasks));
  ledger->Add("chase.cex_candidates",
              static_cast<double>(r.candidates_checked));
  ledger->Add("logic.hom_nodes", static_cast<double>(r.hom_nodes));
  ledger->Add("cluster.hop_ms",
              1e3 * (latency_seconds - r.queue_seconds - r.wall_seconds));
}

double Mean(const std::vector<double>& v) {
  double sum = 0;
  for (double x : v) sum += x;
  return v.empty() ? 0 : sum / static_cast<double>(v.size());
}

// The per-layer result: medians for per-call timings of cheap calls,
// means for per-job work and counts (their sum is what throughput pays).
std::vector<Metric> PerLayerMetrics(const Ledger& l, double hom_candidates) {
  auto median = [&](const char* name, const char* unit) {
    return Metric{name, Median(l.Samples(name)), unit};
  };
  auto mean = [&](const char* name, const char* unit) {
    return Metric{name, Mean(l.Samples(name)), unit};
  };
  return {
      median("engine.submit_us", "us"),
      // The router's wait on cluster_small, the service's elsewhere.
      Metric{"engine.queue_ms",
             l.Samples("engine.queue_ms").empty()
                 ? MeanQueueMs()
                 : Mean(l.Samples("engine.queue_ms")),
             "ms"},
      mean("engine.run_ms", "ms"),
      median("cache.fingerprint_us", "us"),
      mean("cache.canonical_bytes", "bytes"),
      median("cache.lookup_us", "us"),
      mean("cache.hit_ratio", "ratio"),
      mean("chase.match_ms", "ms"),
      mean("chase.fire_ms", "ms"),
      mean("chase.checkpoint_ms", "ms"),
      mean("chase.other_ms", "ms"),
      mean("chase.steps", "count"),
      mean("chase.match_tasks", "count"),
      mean("chase.cex_candidates", "count"),
      mean("logic.hom_nodes", "count"),
      Metric{"logic.hom_candidates", hom_candidates, "count"},
      median("cluster.codec_us", "us"),
      mean("cluster.frame_bytes", "bytes"),
      median("cluster.hop_ms", "ms"),
      mean("cluster.dispatches_per_job", "count"),
      mean("reduction.build_ms", "ms"),
  };
}

// Solves problems 0..n-1, each drawn by `problem(i)`, serially and checks
// its certificate and that the timed path reported the same fields
// (`same_as_timed(i, fields)`). Returns, per problem, whether it passed;
// errors go to stderr.
std::vector<bool> VerifyAll(
    std::size_t n, const std::function<Problem(std::size_t)>& problem,
    const std::function<bool(std::size_t, const Fields&)>& same_as_timed) {
  // Each problem is solved serially; the untimed pass spreads the problems
  // over kVerifyThreads threads only to finish sooner.
  constexpr std::size_t kVerifyThreads = 4;
  std::vector<char> ok(n, 1);
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < kVerifyThreads; ++t) {
    threads.emplace_back([&, t] {
      for (std::size_t i = t; i < n; i += kVerifyThreads) {
        const Problem p = problem(i);
        const Verified v = VerifyProblem(p);
        std::string error = v.error;
        if (error.empty() && !same_as_timed(i, v.fields)) {
          error = p.job.name + ": timed path and serial solve differ";
        }
        if (!error.empty()) {
          std::fprintf(stderr, "tdbench: check failed: %s\n", error.c_str());
          ok[i] = 0;
        }
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  return std::vector<bool>(ok.begin(), ok.end());
}

Outcome Finish(const RunOptions& options, const EndToEnd& e2e,
               const Ledger& ledger, double hom_candidates,
               std::int64_t failed) {
  Outcome out;
  out.attempted = e2e.jobs;
  out.failed = failed;
  out.correct = failed == 0;
  // A traced run prints no jobs_per_s metric; this line gives it, so the
  // tracing overhead can be read off against an untraced run.
  std::fprintf(stderr,
               "tdbench: %lld jobs in %.3f s, jobs_per_s %.1f, %lld failed\n",
               static_cast<long long>(e2e.jobs), e2e.timed_seconds,
               e2e.JobsPerSecond(), static_cast<long long>(failed));
  if (e2e.latency.count() < 100) {
    std::fprintf(stderr,
                 "tdbench: only %lld latencies; latency_p90_ms has fewer "
                 "than ten samples beyond it\n",
                 static_cast<long long>(e2e.latency.count()));
  }
  if (!ledger.Samples("codec_errors").empty()) out.correct = false;
  out.metrics = options.trace ? PerLayerMetrics(ledger, hom_candidates)
                              : EndToEndMetrics(e2e);
  return out;
}

}  // namespace

// ---- sweep_cold ------------------------------------------------------------

Outcome RunSweepCold(const RunOptions& options) {
  Ledger ledger;
  std::vector<Problem> problems = BuildSweep(kSweepSize, &ledger);
  // The seed renames every problem. The work of a pass, and the order in
  // which the pool takes it up, are the same for every seed.
  tdlib::Rng rng(options.seed);
  for (std::size_t i = 0; i < problems.size(); ++i) {
    problems[i].job =
        RenamedCopy(problems[i].job, &rng, "s" + std::to_string(i));
  }

  const std::size_t n = problems.size();
  std::vector<Fields> first_pass(n);
  std::vector<std::int64_t> mismatches(n, 0);
  EndToEnd e2e;
  std::int64_t hom_before = HomCandidates();
  std::int64_t jobs_run = 0;
  const Clock::time_point start = Clock::now();
  e2e.setup_seconds = SecondsBetween(options.process_start, start);
  const double cpu_start = SelfCpuSeconds();
  const Clock::time_point deadline =
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(options.seconds));
  std::uint64_t job_id = 0;
  for (int pass = 0; pass == 0 || Clock::now() < deadline; ++pass) {
    tdlib::ServiceOptions service_options;
    service_options.num_threads = kBusyThreads;
    service_options.result_cache = std::make_shared<tdlib::ResultCache>();
    tdlib::SolverService service(service_options);
    std::vector<Clock::time_point> submitted(n);
    std::vector<Clock::time_point> completed(n);
    std::vector<tdlib::JobHandle> handles(n);
    for (std::size_t i = 0; i < n; ++i) {
      tdlib::TraceJobScope scope(++job_id);
      if (options.trace) {
        ProbeJob(problems[i].job, service_options.result_cache.get(), &ledger);
      }
      tdlib::SubmitOptions submit;
      submit.on_complete = [&completed, i](const JobResult&) {
        completed[i] = Clock::now();
      };
      TraceSpan span("bench.submit");
      submitted[i] = Clock::now();
      handles[i] = service.Submit(problems[i].job, std::move(submit));
      if (options.trace) {
        ledger.Add("engine.submit_us", Micros(submitted[i], Clock::now()));
      }
    }
    for (std::size_t i = 0; i < n; ++i) {
      const JobResult r = handles[i].Wait();
      const double latency = SecondsBetween(submitted[i], completed[i]);
      e2e.latency.Add(latency);
      ++e2e.jobs;
      if (r.cache_source != CacheSource::kHit) ++jobs_run;
      if (pass == 0) first_pass[i] = Fields::Of(r);
      if (r.status != tdlib::JobStatus::kCompleted ||
          Fields::Of(r) != first_pass[i]) {
        ++mismatches[i];
      }
      if (options.trace) {
        RecordResult(r, latency, 1, &ledger);
        ProbeResult(r, &ledger);
      }
    }
  }
  e2e.timed_seconds = SecondsBetween(start, Clock::now());
  e2e.cpu_seconds = SelfCpuSeconds() - cpu_start;
  e2e.peak_rss_mb = SelfPeakRssMb();
  const double hom_candidates =
      static_cast<double>(HomCandidates() - hom_before) /
      static_cast<double>(std::max<std::int64_t>(jobs_run, 1));

  // Untimed: every job of a problem fails with it.
  const std::vector<bool> ok = VerifyAll(
      n, [&](std::size_t i) { return problems[i]; },
      [&](std::size_t i, const Fields& f) { return f == first_pass[i]; });
  const std::int64_t passes = e2e.jobs / static_cast<std::int64_t>(n);
  std::int64_t failed = 0;
  for (std::size_t i = 0; i < n; ++i) {
    failed += ok[i] ? mismatches[i] : passes;
  }
  return Finish(options, e2e, ledger, hom_candidates, failed);
}

// ---- renamed_repeat --------------------------------------------------------

Outcome RunRenamedRepeat(const RunOptions& options) {
  constexpr int kSweepSources = 9;   // pads 0..2 of every regime
  constexpr int kRandomSources = 12;
  constexpr int kCopiesPerSource = 4;
  constexpr std::uint64_t kRandomSourceStream = 0x5eed;
  const int clients = kBusyThreads;

  Ledger ledger;
  std::vector<Problem> sources = BuildSweep(kSweepSources, &ledger);
  for (int i = 0; i < kRandomSources; ++i) {
    sources.push_back(RandomProblem(kRandomSourceStream,
                                    static_cast<std::uint64_t>(i)));
  }
  const std::int64_t hom_before = HomCandidates();

  // Set-up warms the cache: each source is solved once, through the service.
  // Timed requests are hits, answered inside Submit on the client threads,
  // so one service thread is enough. With two, set-up's solves landed on
  // either thread's malloc arena, and peak_rss_mb was 35 or 39.5 MB.
  tdlib::ServiceOptions service_options;
  service_options.num_threads = 1;
  service_options.result_cache = std::make_shared<tdlib::ResultCache>();
  tdlib::SolverService service(service_options);
  std::vector<Fields> source_fields(sources.size());
  // One at a time, so that peak memory does not depend on which solves
  // happen to overlap.
  for (std::size_t i = 0; i < sources.size(); ++i) {
    const Clock::time_point submitted = Clock::now();
    const JobResult r = service.Submit(sources[i].job).Wait();
    source_fields[i] = Fields::Of(r);
    if (options.trace) {
      RecordResult(r, SecondsBetween(submitted, Clock::now()), 1, &ledger);
    }
  }
  const double hom_candidates =
      static_cast<double>(HomCandidates() - hom_before) /
      static_cast<double>(sources.size());

  // The seed draws the renamed copies and each client's request sequence.
  struct Copy {
    Job job;
    std::size_t source;
  };
  std::vector<Copy> copies;
  tdlib::Rng rng(options.seed);
  for (std::size_t s = 0; s < sources.size(); ++s) {
    for (int k = 0; k < kCopiesPerSource; ++k) {
      copies.push_back(Copy{RenamedCopy(sources[s].job, &rng,
                                        std::to_string(s) + "x" +
                                            std::to_string(k)),
                            s});
    }
  }

  struct Client {
    LatencyHistogram latency;
    Ledger ledger;
    std::int64_t failed = 0;
  };
  std::atomic<std::int64_t> jobs_done{0};
  std::vector<Client> results(static_cast<std::size_t>(clients));
  std::mutex start_mu;
  std::condition_variable start_cv;
  bool go = false;
  Clock::time_point deadline;
  std::vector<std::thread> threads;
  for (int c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      Client& me = results[static_cast<std::size_t>(c)];
      // Each client cycles through its own seeded order of all copies, so
      // every run submits the same mix and latency_p90_ms does not move
      // with how often the largest problems happened to be drawn.
      tdlib::Rng pick(options.seed * 0x2545f4914f6cdd1dULL +
                      static_cast<std::uint64_t>(c) + 1);
      std::vector<std::size_t> order(copies.size());
      std::iota(order.begin(), order.end(), 0);
      for (std::size_t k = order.size(); k > 1; --k) {
        std::swap(order[k - 1], order[pick.Below(k)]);
      }
      std::size_t next = 0;
      {
        std::unique_lock<std::mutex> lock(start_mu);
        start_cv.wait(lock, [&] { return go; });
      }
      std::uint64_t job_id = static_cast<std::uint64_t>(c) << 48;
      while (Clock::now() < deadline) {
        const Copy& copy = copies[order[next]];
        next = (next + 1) % order.size();
        Job job = copy.job;
        tdlib::TraceJobScope scope(++job_id);
        const bool probe = options.trace && job_id % kProbeEvery == 0;
        if (probe) {
          ProbeJob(job, service_options.result_cache.get(), &me.ledger);
        }
        const Clock::time_point t0 = Clock::now();
        tdlib::JobHandle handle;
        {
          TraceSpan span("bench.submit");
          handle = service.Submit(std::move(job));
        }
        const Clock::time_point t1 = Clock::now();
        const JobResult r = handle.Wait();
        const Clock::time_point t2 = Clock::now();
        me.latency.Add(SecondsBetween(t0, t2));
        jobs_done.fetch_add(1, std::memory_order_relaxed);
        if (!ServedAsCopy(r, source_fields[copy.source])) ++me.failed;
        if (options.trace) {
          me.ledger.Add("engine.submit_us", Micros(t0, t1));
          RecordResult(r, SecondsBetween(t0, t2), 0, &me.ledger);
          if (probe) ProbeResult(r, &me.ledger);
        }
      }
    });
  }
  EndToEnd e2e;
  const Clock::time_point start = Clock::now();
  e2e.setup_seconds = SecondsBetween(options.process_start, start);
  const double cpu_start = SelfCpuSeconds();
  {
    std::lock_guard<std::mutex> lock(start_mu);
    deadline = start + std::chrono::duration_cast<Clock::duration>(
                           std::chrono::duration<double>(options.seconds));
    go = true;
  }
  start_cv.notify_all();
  for (std::thread& t : threads) t.join();
  e2e.timed_seconds = SecondsBetween(start, Clock::now());
  e2e.cpu_seconds = SelfCpuSeconds() - cpu_start;
  e2e.peak_rss_mb = SelfPeakRssMb();
  e2e.jobs = jobs_done.load();
  std::int64_t failed = 0;
  for (const Client& c : results) {
    e2e.latency.Merge(c.latency);
    failed += c.failed;
    ledger.Merge(c.ledger);
  }

  // Untimed: the sources' certificates, and every copy solved from scratch
  // must reproduce its source's fields; each failure counts once.
  const std::vector<bool> ok = VerifyAll(
      sources.size(), [&](std::size_t i) { return sources[i]; },
      [&](std::size_t i, const Fields& f) { return f == source_fields[i]; });
  for (std::size_t s = 0; s < sources.size(); ++s) failed += ok[s] ? 0 : 1;
  for (const Copy& copy : copies) {
    const tdlib::DualResult dual = tdlib::SolveImplication(
        copy.job.dependencies, copy.job.goal, copy.job.config);
    if (Fields::Of(dual) != source_fields[copy.source]) {
      std::fprintf(stderr, "tdbench: check failed: %s differs from source\n",
                   copy.job.name.c_str());
      ++failed;
    }
  }
  return Finish(options, e2e, ledger, hom_candidates, failed);
}

// ---- cluster_small ---------------------------------------------------------

namespace {

// Draws the distinct problems of a random stream: a problem isomorphic to
// one drawn before (from any stream sharing the set) is skipped. About one
// draw in a hundred is such a repeat. The set is a bit per 24-bit slice of
// the fingerprint, allocated and touched before the timed part, so a run's
// memory does not move with the number of jobs it draws. Two problems that
// share a slice count as repeats too; at 200k draws that skips about one
// draw in a hundred more, the same ones on every run of a seed.
class DistinctStream {
 public:
  class Seen {
   public:
    Seen() : bits_(kWords, 0) {}

    /// False when `fp` (or another fingerprint with its slice) was
    /// inserted before.
    bool Insert(const tdlib::CacheFingerprint& fp) {
      const std::uint64_t slot = fp.lo & ((std::uint64_t{1} << 24) - 1);
      std::uint64_t& word = bits_[slot / 64];
      const std::uint64_t bit = std::uint64_t{1} << (slot % 64);
      if ((word & bit) != 0) return false;
      word |= bit;
      return true;
    }

   private:
    static constexpr std::size_t kWords = (std::size_t{1} << 24) / 64;
    std::vector<std::uint64_t> bits_;  // 2 MiB
  };

  DistinctStream(std::uint64_t stream, Seen* seen)
      : stream_(stream), seen_(seen) {}

  /// The next distinct problem; its index in the stream is index_of_last().
  Problem Next() {
    for (;;) {
      last_ = next_++;
      Problem p = RandomProblem(stream_, last_);
      if (seen_->Insert(tdlib::FingerprintProblem(p.job.dependencies,
                                                  p.job.goal, p.job.config))) {
        return p;
      }
    }
  }
  std::uint64_t index_of_last() const { return last_; }

 private:
  std::uint64_t stream_;
  std::uint64_t next_ = 0;
  std::uint64_t last_ = 0;
  Seen* seen_;
};

// What the untimed check keeps of a timed job: 31 bits of the digest of its
// fields, and a low bit set when it completed.
std::uint32_t JobRecord(bool completed, const Fields& fields) {
  return completed ? static_cast<std::uint32_t>(fields.Digest()) | 1u : 0u;
}

}  // namespace

Outcome RunClusterSmall(const RunOptions& options) {
  constexpr int kWorkers = 2;
  // With 8 jobs in flight the rate was the same as with 4, but each job
  // queued behind about three others at the router, and latency_p50_ms
  // spread twice as wide from run to run.
  constexpr int kWindow = 4;
  constexpr std::uint64_t kMaxWarmupJobs = 100000;
  // The jobs are all distinct, so the worker caches never hit. A 1 MiB
  // budget fills in the first second; with the 16 MiB default the workers'
  // memory grew for the whole run, and peak_rss_mb tracked throughput.
  constexpr std::size_t kWorkerCacheBytes = 1u << 20;
  // The per-job records are sized for this rate before the timed part, so
  // that the benchmark's own memory stays the same however many jobs a run
  // completes (about 5500 jobs/s on the host of README.md; only a run four
  // times as fast would grow them).
  constexpr double kRecordsPerSecond = 25000;
  const std::uint64_t timed_stream = 2 * options.seed;
  const std::uint64_t warmup_stream = 2 * options.seed + 1;
  DistinctStream::Seen seen;
  DistinctStream warmup(warmup_stream, &seen);
  DistinctStream stream(timed_stream, &seen);

  // Completions, filled by the router's callbacks; declared before the
  // router so they outlive it.
  struct Done {
    int window_pos;
    Clock::time_point at;
    tdlib::ClusterResult result;
  };
  std::mutex mu;
  std::condition_variable cv;
  std::deque<Done> done;

  Ledger ledger;
  tdlib::ClusterOptions cluster_options;
  cluster_options.num_workers = kWorkers;
  cluster_options.worker_command = options.worker_command;
  cluster_options.worker_threads = 1;
  cluster_options.worker_cache_bytes = kWorkerCacheBytes;
  tdlib::ClusterRouter router(cluster_options);

  // Set-up ends when every worker has answered a job: until the last Hello,
  // the ring holds only the workers already up and places jobs on them.
  std::vector<bool> answered(kWorkers, false);
  std::uint64_t warm_jobs = 0;
  while (std::count(answered.begin(), answered.end(), true) < kWorkers) {
    if (warm_jobs == kMaxWarmupJobs) {
      std::fprintf(stderr, "tdbench: a worker never answered\n");
      return Outcome{false, 1, 1, {}};
    }
    const tdlib::ClusterHandle handle =
        router.Submit(warmup.Next().job);
    ++warm_jobs;
    const tdlib::ClusterResult& r = handle.Wait();
    if (r.worker >= 0 && r.worker < kWorkers) answered[r.worker] = true;
  }
  const std::vector<pid_t> workers = ChildPids();
  auto cluster_cpu = [&] {
    double cpu = SelfCpuSeconds();
    for (pid_t pid : workers) cpu += PidCpuSeconds(pid);
    return cpu;
  };

  // Per job the run keeps one JobRecord; the untimed check redraws the
  // stream to find each job again.
  std::vector<std::uint32_t> records(
      static_cast<std::size_t>(kRecordsPerSecond * options.seconds) + 1, 0);
  std::size_t submitted = 0;
  struct InFlight {
    std::size_t slot = 0;
    Clock::time_point at;
    bool probed = false;
    tdlib::CacheFingerprint fingerprint;  // when probed
  };
  std::vector<InFlight> window(kWindow);
  std::vector<int> free_pos(kWindow);
  std::iota(free_pos.begin(), free_pos.end(), 0);
  tdlib::ResultCache probe_cache;
  std::vector<Clock::time_point> last_result(kWorkers);  // traced runs only

  EndToEnd e2e;
  const Clock::time_point start = Clock::now();
  e2e.setup_seconds = SecondsBetween(options.process_start, start);
  const double cpu_start = cluster_cpu();
  const Clock::time_point deadline =
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(options.seconds));
  for (;;) {
    const bool open = Clock::now() < deadline;
    while (open && !free_pos.empty()) {
      const std::size_t slot = submitted++;
      if (slot == records.size()) records.resize(2 * records.size(), 0);
      Job job = stream.Next().job;
      const int pos = free_pos.back();
      free_pos.pop_back();
      InFlight& f = window[static_cast<std::size_t>(pos)];
      f.slot = slot;
      tdlib::TraceJobScope scope(slot + 1);
      f.probed = options.trace && slot % kProbeEvery == 0;
      if (f.probed) f.fingerprint = ProbeJob(job, &probe_cache, &ledger);
      tdlib::ClusterSubmitOptions submit;
      submit.on_complete = [&, pos](const tdlib::ClusterResult& r) {
        const Clock::time_point at = Clock::now();
        std::lock_guard<std::mutex> lock(mu);
        done.push_back(Done{pos, at, r});
        cv.notify_one();
      };
      f.at = Clock::now();
      {
        TraceSpan span("bench.submit");
        router.Submit(std::move(job), std::move(submit));
      }
      if (options.trace) {
        ledger.Add("engine.submit_us", Micros(f.at, Clock::now()));
      }
    }
    if (free_pos.size() == window.size()) break;
    std::deque<Done> batch;
    {
      std::unique_lock<std::mutex> lock(mu);
      cv.wait(lock, [&] { return !done.empty(); });
      batch.swap(done);
    }
    for (const Done& d : batch) {
      const InFlight& f = window[static_cast<std::size_t>(d.window_pos)];
      free_pos.push_back(d.window_pos);
      const double latency = SecondsBetween(f.at, d.at);
      e2e.latency.Add(latency);
      ++e2e.jobs;
      const JobResult& r = d.result.result;
      records[f.slot] =
          JobRecord(d.result.outcome == tdlib::ClusterOutcome::kCompleted &&
                        r.status == tdlib::JobStatus::kCompleted,
                    Fields::Of(r));
      if (options.trace) {
        tdlib::RecordTraceEvent(
            "bench.job", f.slot + 1,
            std::chrono::duration_cast<std::chrono::nanoseconds>(
                f.at.time_since_epoch())
                .count(),
            static_cast<std::int64_t>(1e9 * latency));
        RecordResult(r, latency, d.result.attempts, &ledger);
        // A worker holds one job at a time and the router hands it the next
        // when the previous result comes back, so a job waits at the router
        // from its submission until its worker's previous result.
        const int w = d.result.worker;
        if (w >= 0 && w < kWorkers) {
          const Clock::time_point previous =
              last_result[static_cast<std::size_t>(w)];
          ledger.Add("engine.queue_ms",
                     previous > f.at ? 1e3 * SecondsBetween(f.at, previous)
                                     : 0.0);
          last_result[static_cast<std::size_t>(w)] = d.at;
        }
        if (f.probed) {
          ProbeResult(r, &ledger);
          probe_cache.Insert(f.fingerprint,
                             tdlib::CachedVerdictFromResult(r, 0));
        }
      }
    }
  }
  e2e.timed_seconds = SecondsBetween(start, Clock::now());
  e2e.cpu_seconds = cluster_cpu() - cpu_start;
  double worker_rss = 0;
  for (pid_t pid : workers) worker_rss = std::max(worker_rss, PidPeakRssMb(pid));
  e2e.peak_rss_mb = SelfPeakRssMb() + worker_rss;

  // Untimed: redraw the warm-up and timed streams against a fresh set to
  // find each timed job's index, then solve every timed job serially.
  std::vector<std::uint64_t> index(submitted);
  {
    DistinctStream::Seen replay_seen;
    DistinctStream replay_warmup(warmup_stream, &replay_seen);
    for (std::uint64_t k = 0; k < warm_jobs; ++k) replay_warmup.Next();
    DistinctStream replay(timed_stream, &replay_seen);
    for (std::uint64_t& i : index) {
      replay.Next();
      i = replay.index_of_last();
    }
  }
  const std::int64_t hom_before = HomCandidates();
  const std::vector<bool> ok = VerifyAll(
      submitted,
      [&](std::size_t i) { return RandomProblem(timed_stream, index[i]); },
      [&](std::size_t i, const Fields& f) {
        return records[i] == JobRecord(true, f);
      });
  const double hom_candidates =
      static_cast<double>(HomCandidates() - hom_before) /
      static_cast<double>(std::max<std::size_t>(submitted, 1));
  // No two jobs are isomorphic, so a worker-cache hit is a fault.
  const std::int64_t hits = router.Stats().cache_hits;
  if (hits != 0) {
    std::fprintf(stderr, "tdbench: check failed: %lld worker cache hits\n",
                 static_cast<long long>(hits));
  }
  const std::int64_t failed =
      hits + std::count(ok.begin(), ok.end(), false);
  if (options.trace) {
    // cluster_small builds no reductions; time a build of the sweep so the
    // reduction row is measured on every workload.
    BuildSweep(kSweepSize, &ledger);
  }
  return Finish(options, e2e, ledger, hom_candidates, failed);
}

}  // namespace tdbench
