// Observability-layer tests (util/metrics.h, util/trace_span.h) and the
// non-perturbation contract they exist to keep: enabling metrics and
// tracing must leave every solver output byte-identical — instances,
// traces, deterministic counters and summaries — at every thread count,
// across checkpoints and resumes. The primitives themselves are tested for
// exactness (sharded counters sum precisely, histogram merges are
// associative to the bit, exports are golden-stable) because the bench
// recap and the cross-PR BENCH_*.json trajectory treat them as ground
// truth.
#include "util/metrics.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <memory>
#include <mutex>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "chase/chase.h"
#include "core/generators.h"
#include "core/parser.h"
#include "engine/batch_solver.h"
#include "engine/service.h"
#include "engine/workload.h"
#include "reduction/reduction.h"
#include "semigroup/normalizer.h"
#include "semigroup/presentation.h"
#include "util/rng.h"
#include "util/trace_span.h"

namespace tdlib {
namespace {

// Flips the global switches for one test and leaves the process pristine:
// switches off, global registry zeroed, global trace ring emptied.
class ObservabilityGuard {
 public:
  ObservabilityGuard(bool metrics, bool tracing) {
    SetMetricsEnabled(metrics);
    SetTracingEnabled(tracing);
  }
  ~ObservabilityGuard() {
    SetMetricsEnabled(false);
    SetTracingEnabled(false);
    MetricsRegistry::Global().Reset();
    TraceBuffer::Global().Clear();
  }
};

// ---- Counter ----------------------------------------------------------------

TEST(Counter, DisabledAddIsANoOp) {
  ObservabilityGuard guard(false, false);
  Counter counter;
  counter.Add(5);
  counter.Add();
  EXPECT_EQ(counter.Value(), 0);
}

TEST(Counter, ConcurrentAddsFromManyThreadsSumExactly) {
  ObservabilityGuard guard(true, false);
  Counter counter;
  constexpr int kThreads = 8;
  constexpr int kAddsPerThread = 20000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&counter] {
      for (int i = 0; i < kAddsPerThread; ++i) counter.Add(3);
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(counter.Value(), std::int64_t{3} * kThreads * kAddsPerThread);
  counter.Reset();
  EXPECT_EQ(counter.Value(), 0);
}

// ---- Gauge ------------------------------------------------------------------

TEST(Gauge, SetAddAndDisabledNoOp) {
  {
    ObservabilityGuard guard(true, false);
    Gauge gauge;
    gauge.Set(7);
    gauge.Add(-3);
    EXPECT_EQ(gauge.Value(), 4);
    gauge.Reset();
    EXPECT_EQ(gauge.Value(), 0);
  }
  ObservabilityGuard guard(false, false);
  Gauge gauge;
  gauge.Set(7);
  gauge.Add(1);
  EXPECT_EQ(gauge.Value(), 0);
}

// ---- Histogram --------------------------------------------------------------

TEST(Histogram, BucketingFollowsThePrometheusLeConvention) {
  ObservabilityGuard guard(true, false);
  Histogram h({0.5, 1.0, 2.0});
  h.Observe(0.25);  // <= 0.5
  h.Observe(0.5);   // <= 0.5 (le is inclusive)
  h.Observe(0.75);  // <= 1.0
  h.Observe(2.0);   // <= 2.0
  h.Observe(5.0);   // +Inf only
  HistogramSnapshot snap = h.Snapshot();
  EXPECT_EQ(snap.cumulative, (std::vector<std::int64_t>{2, 3, 4}));
  EXPECT_EQ(snap.count, 5);
  // All observations are exact in nanoseconds, so the sum is exact too.
  EXPECT_EQ(snap.sum_ns, std::int64_t{8500000000});
}

TEST(Histogram, ConcurrentObservationsKeepExactTotals) {
  ObservabilityGuard guard(true, false);
  Histogram h(LatencyBuckets());
  constexpr int kThreads = 8;
  constexpr int kObsPerThread = 5000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&h] {
      for (int i = 0; i < kObsPerThread; ++i) h.Observe(0.000001);  // 1µs
    });
  }
  for (std::thread& t : threads) t.join();
  HistogramSnapshot snap = h.Snapshot();
  EXPECT_EQ(snap.count, std::int64_t{kThreads} * kObsPerThread);
  EXPECT_EQ(snap.sum_ns, std::int64_t{1000} * kThreads * kObsPerThread);
  EXPECT_EQ(snap.cumulative.front(), snap.count);  // all in the 1µs bucket
}

TEST(Histogram, MergeIsAssociativeToTheBit) {
  ObservabilityGuard guard(true, false);
  const std::vector<double> bounds = {0.001, 0.1, 1.0};
  Histogram ha(bounds), hb(bounds), hc(bounds);
  ha.Observe(0.0005);
  ha.Observe(0.05);
  hb.Observe(0.5);
  hb.Observe(7.0);
  hc.Observe(0.001);
  HistogramSnapshot a = ha.Snapshot(), b = hb.Snapshot(), c = hc.Snapshot();

  HistogramSnapshot left = a;  // (a + b) + c
  left.MergeFrom(b);
  left.MergeFrom(c);
  HistogramSnapshot bc = b;  // a + (b + c)
  bc.MergeFrom(c);
  HistogramSnapshot right = a;
  right.MergeFrom(bc);

  EXPECT_EQ(left.cumulative, right.cumulative);
  EXPECT_EQ(left.count, right.count);
  EXPECT_EQ(left.sum_ns, right.sum_ns);  // integer ns: exact, no float drift
  EXPECT_EQ(left.count, 5);
}

// ---- Registry and exports ---------------------------------------------------

TEST(MetricsRegistry, HandlesAreStableAcrossLookups) {
  MetricsRegistry registry;
  Counter* c1 = registry.GetCounter("a.counter");
  Counter* c2 = registry.GetCounter("a.counter");
  EXPECT_EQ(c1, c2);
  Histogram* h1 = registry.GetHistogram("a.hist", {1.0});
  // Bounds apply only on first creation; a later lookup with different
  // bounds still returns the original histogram.
  Histogram* h2 = registry.GetHistogram("a.hist", {2.0, 3.0});
  EXPECT_EQ(h1, h2);
  EXPECT_EQ(h2->bounds(), (std::vector<double>{1.0}));
}

// One registry fixture shared by both export goldens.
MetricsRegistry* GoldenRegistry() {
  MetricsRegistry* registry = new MetricsRegistry();
  registry->GetCounter("engine.jobs_completed")->Add(3);
  registry->GetGauge("pool.queue_depth")->Set(2);
  Histogram* h = registry->GetHistogram("job.seconds", {0.0025, 1.0});
  h->Observe(0.001);
  h->Observe(0.5);
  h->Observe(3.0);
  return registry;
}

TEST(MetricsExport, JsonGolden) {
  ObservabilityGuard guard(true, false);
  std::unique_ptr<MetricsRegistry> registry(GoldenRegistry());
  EXPECT_EQ(registry->Snapshot().ToJson(),
            "{\"counters\":{\"engine.jobs_completed\":3},"
            "\"gauges\":{\"pool.queue_depth\":2},"
            "\"histograms\":{\"job.seconds\":{"
            "\"bounds\":[0.0025,1],\"cumulative\":[1,2],"
            "\"count\":3,\"sum_seconds\":3.501}}}");
}

TEST(MetricsExport, PrometheusGolden) {
  ObservabilityGuard guard(true, false);
  std::unique_ptr<MetricsRegistry> registry(GoldenRegistry());
  EXPECT_EQ(registry->Snapshot().ToPrometheus(),
            "# TYPE engine_jobs_completed counter\n"
            "engine_jobs_completed 3\n"
            "# TYPE pool_queue_depth gauge\n"
            "pool_queue_depth 2\n"
            "# TYPE job_seconds histogram\n"
            "job_seconds_bucket{le=\"0.0025\"} 1\n"
            "job_seconds_bucket{le=\"1\"} 2\n"
            "job_seconds_bucket{le=\"+Inf\"} 3\n"
            "job_seconds_sum 3.501\n"
            "job_seconds_count 3\n");
}

// ---- Trace buffer and spans -------------------------------------------------

TEST(TraceBuffer, RingWrapKeepsNewestOldestFirstAndCountsDrops) {
  ObservabilityGuard guard(false, true);
  TraceBuffer buffer(4);
  const char* names[] = {"e0", "e1", "e2", "e3", "e4", "e5"};
  for (int i = 0; i < 6; ++i) {
    TraceEvent event;
    event.name = names[i];
    event.start_ns = i;
    buffer.Record(event);
  }
  EXPECT_EQ(buffer.TotalRecorded(), 6u);
  EXPECT_EQ(buffer.Dropped(), 2u);
  std::vector<TraceEvent> events = buffer.Snapshot();
  ASSERT_EQ(events.size(), 4u);
  for (int i = 0; i < 4; ++i) {
    EXPECT_STREQ(events[i].name, names[i + 2]);  // e0, e1 fell off
    EXPECT_EQ(events[i].start_ns, i + 2);
  }
  buffer.Clear();
  EXPECT_EQ(buffer.TotalRecorded(), 0u);
  EXPECT_TRUE(buffer.Snapshot().empty());
}

TEST(TraceSpan, SpansNestUnderTheCurrentJobScope) {
  ObservabilityGuard guard(false, true);
  TraceBuffer::Global().Clear();
  EXPECT_EQ(CurrentTraceJob(), 0u);
  {
    TraceJobScope scope(7);
    EXPECT_EQ(CurrentTraceJob(), 7u);
    TraceSpan outer("outer");
    {
      TraceSpan inner("inner");
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  }
  EXPECT_EQ(CurrentTraceJob(), 0u);
  std::vector<TraceEvent> events = TraceBuffer::Global().Snapshot();
  ASSERT_EQ(events.size(), 2u);  // spans record at close: inner first
  EXPECT_STREQ(events[0].name, "inner");
  EXPECT_STREQ(events[1].name, "outer");
  EXPECT_EQ(events[0].job, 7u);
  EXPECT_EQ(events[1].job, 7u);
  EXPECT_EQ(events[0].depth, 1);
  EXPECT_EQ(events[1].depth, 0);
  EXPECT_EQ(events[0].tid, events[1].tid);
  EXPECT_GE(events[0].start_ns, events[1].start_ns);
  EXPECT_GE(events[1].dur_ns, events[0].dur_ns);
}

TEST(TraceSpan, DisabledSpansRecordNothing) {
  ObservabilityGuard guard(false, false);
  TraceBuffer::Global().Clear();
  {
    TraceJobScope scope(9);
    TraceSpan span("never.recorded");
  }
  EXPECT_TRUE(TraceBuffer::Global().Snapshot().empty());
}

TEST(TraceBuffer, ChromeTraceExportIsValidAndRelative) {
  ObservabilityGuard guard(false, true);
  TraceBuffer buffer(8);
  TraceEvent event;
  event.name = "phase";
  event.job = 3;
  event.start_ns = 5000000;  // 5ms after an arbitrary epoch
  event.dur_ns = 2000;       // 2µs
  event.tid = 1;
  event.depth = 0;
  buffer.Record(event);
  event.start_ns = 6000000;
  buffer.Record(event);
  std::ostringstream out;
  buffer.WriteChromeTrace(out);
  const std::string trace = out.str();
  // Timestamps are µs relative to the OLDEST event: 0 and 1000.
  EXPECT_NE(trace.find("\"traceEvents\":["), std::string::npos) << trace;
  EXPECT_NE(trace.find("\"ph\":\"X\""), std::string::npos) << trace;
  EXPECT_NE(trace.find("\"ts\":0"), std::string::npos) << trace;
  EXPECT_NE(trace.find("\"ts\":1000"), std::string::npos) << trace;
  EXPECT_NE(trace.find("\"dur\":2"), std::string::npos) << trace;
  EXPECT_NE(trace.find("\"job\":3"), std::string::npos) << trace;
}

// ---- Non-perturbation: chase byte parity on/off -----------------------------

struct ChaseRun {
  std::string instance_text;
  ChaseResult result;
};

ChaseRun RunOnce(const Instance& seed, const DependencySet& deps,
                 const ChaseConfig& config) {
  Instance instance = seed;
  ChaseRun run;
  run.result = RunChase(&instance, deps, config);
  run.instance_text = instance.ToString();
  return run;
}

void ExpectIdenticalRuns(const ChaseRun& off, const ChaseRun& on,
                         const std::string& label) {
  EXPECT_EQ(off.instance_text, on.instance_text) << label;
  EXPECT_EQ(off.result.status, on.result.status) << label;
  EXPECT_EQ(off.result.steps, on.result.steps) << label;
  EXPECT_EQ(off.result.passes, on.result.passes) << label;
  EXPECT_EQ(off.result.hom_nodes, on.result.hom_nodes) << label;
  EXPECT_EQ(off.result.hom_candidates, on.result.hom_candidates) << label;
  EXPECT_EQ(off.result.match_tasks, on.result.match_tasks) << label;
  ASSERT_EQ(off.result.trace.size(), on.result.trace.size()) << label;
  for (std::size_t i = 0; i < off.result.trace.size(); ++i) {
    EXPECT_EQ(off.result.trace[i].dependency_index,
              on.result.trace[i].dependency_index)
        << label << " step " << i;
    EXPECT_TRUE(off.result.trace[i].body_match ==
                on.result.trace[i].body_match)
        << label << " step " << i;
    EXPECT_EQ(off.result.trace[i].new_tuples, on.result.trace[i].new_tuples)
        << label << " step " << i;
  }
}

class MetricsChaseParity : public ::testing::TestWithParam<int> {};

TEST_P(MetricsChaseParity, RandomTdChaseIsByteIdenticalWithObservabilityOn) {
  Rng rng(GetParam() * 7919);
  SchemaPtr schema = MakeSchema({"X0", "X1"});
  TdGeneratorOptions options;
  options.body_rows = 2;
  DependencySet deps;
  deps.Add(RandomDependency(&rng, options, schema));
  deps.Add(RandomDependency(&rng, options, schema));
  Instance seed = RandomInstance(&rng, schema, 3, 4);

  ChaseConfig config;
  config.record_trace = true;
  config.max_steps = 200;
  config.max_tuples = 1000;

  // Reference with the whole layer off, then the same chase with metrics
  // AND tracing on. The instrumentation is pure sink: every byte must match.
  ChaseRun off = RunOnce(seed, deps, config);
  ChaseRun on;
  MetricsSnapshot snap;
  {
    ObservabilityGuard guard(true, true);
    MetricsRegistry::Global().Reset();
    on = RunOnce(seed, deps, config);
    snap = MetricsRegistry::Global().Snapshot();
  }
  ExpectIdenticalRuns(off, on, "seed " + std::to_string(GetParam()));

  // The published counters must agree exactly with the run's own
  // deterministic counters — the registry is a mirror, never a second
  // source of truth.
  EXPECT_EQ(snap.counters["chase.steps"],
            static_cast<std::int64_t>(on.result.steps));
  EXPECT_EQ(snap.counters["chase.passes"],
            static_cast<std::int64_t>(on.result.passes));
  EXPECT_EQ(snap.counters["chase.hom_nodes"],
            static_cast<std::int64_t>(on.result.hom_nodes));
  EXPECT_EQ(snap.counters["chase.match_tasks"],
            static_cast<std::int64_t>(on.result.match_tasks));
}

INSTANTIATE_TEST_SUITE_P(Seeds, MetricsChaseParity, ::testing::Range(1, 7));

// ---- Non-perturbation: batch summary parity at 1/2/4/8 threads --------------

TEST(MetricsBatchParity, DeterministicSummaryIdenticalAtEveryThreadCount) {
  WorkloadOptions options;
  options.size = 6;
  std::vector<Job> jobs = ReductionSweepWorkload(options);
  const std::string reference = RunSerial(jobs).DeterministicSummary();

  for (int threads : {1, 2, 4, 8}) {
    ObservabilityGuard guard(true, true);
    MetricsRegistry::Global().Reset();
    BatchOptions batch;
    batch.num_threads = threads;
    BatchSummary pooled = BatchSolver(batch).Run(jobs);
    EXPECT_EQ(pooled.DeterministicSummary(), reference)
        << "threads=" << threads;

    // Outcome counters mirror the summary's own tallies.
    MetricsSnapshot snap = MetricsRegistry::Global().Snapshot();
    EXPECT_EQ(snap.counters["engine.jobs_submitted"],
              static_cast<std::int64_t>(jobs.size()));
    EXPECT_EQ(snap.counters["engine.jobs_completed"], pooled.completed);
    EXPECT_EQ(snap.counters["engine.jobs_skipped"], pooled.skipped);
    EXPECT_EQ(snap.counters["engine.jobs_cancelled"], pooled.cancelled);
    EXPECT_EQ(snap.gauges["engine.jobs_inflight"], 0);
  }
}

// ---- Non-perturbation: checkpoint/resume parity -----------------------------

TEST(MetricsResumeParity, ResumedChaseStaysByteIdenticalWithMetricsOn) {
  // The pumping reduction instance: every fire enables the next, so the
  // step budget trips deterministically mid-stream and leaves a checkpoint.
  Presentation p;
  p.AddEquationFromText("A A0 = A0");
  p.AddAbsorptionEquations();
  NormalizationResult norm = NormalizeTo21(p);
  Result<GurevichLewisReduction> red =
      GurevichLewisReduction::Create(norm.normalized);
  ASSERT_TRUE(red.ok());
  const DependencySet& deps = red.value().dependencies();
  Instance seed = red.value().goal().body().Freeze();

  ChaseConfig config;
  config.record_trace = true;

  // Reference: uninterrupted run to the big budget, observability off.
  ChaseConfig big = config;
  big.max_steps = 100;
  ChaseRun reference = RunOnce(seed, deps, big);

  // Interrupted run + serialize/restore + resume, all with the layer on.
  ObservabilityGuard guard(true, true);
  ChaseConfig small = config;
  small.max_steps = 17;
  Instance interrupted = seed;
  ChaseCheckpoint checkpoint;
  ChaseResult first =
      RunChase(&interrupted, deps, small, {}, &checkpoint);
  ASSERT_EQ(first.status, ChaseStatus::kStepLimit);
  ASSERT_TRUE(checkpoint.valid);

  std::ostringstream out;
  interrupted.Serialize(out);
  checkpoint.Serialize(out);
  std::istringstream in(out.str());
  Result<Instance> restored =
      Instance::Deserialize(seed.schema_ptr(), in);
  ASSERT_TRUE(restored.ok());
  Result<ChaseCheckpoint> restored_checkpoint =
      ChaseCheckpoint::Deserialize(in);
  ASSERT_TRUE(restored_checkpoint.ok());
  ASSERT_TRUE(restored_checkpoint.value().ResumableWith(
      big, restored.value(), deps));

  ChaseResult resumed = RunChase(&restored.value(), deps, big, {},
                                 &restored_checkpoint.value());
  EXPECT_EQ(restored.value().ToString(), reference.instance_text);
  EXPECT_EQ(resumed.status, reference.result.status);
  EXPECT_EQ(resumed.steps, reference.result.steps);
  EXPECT_EQ(resumed.passes, reference.result.passes);
  EXPECT_EQ(resumed.hom_nodes, reference.result.hom_nodes);
  // Phase timings are this-run wall clock, NOT part of the checkpoint: the
  // resumed run restarts them from zero rather than inheriting the
  // interrupted run's clock.
  EXPECT_LE(resumed.checkpoint_seconds, first.checkpoint_seconds +
                                            resumed.checkpoint_seconds);
}

// ---- Outcome counters: one terminal publication per run ---------------------

Job PumpingJob() {
  Presentation p;
  p.AddSymbol("A");
  p.AddEquationFromText("A A0 = A0");
  p.AddAbsorptionEquations();
  NormalizationResult norm = NormalizeTo21(p);
  Result<GurevichLewisReduction> red =
      GurevichLewisReduction::Create(norm.normalized);
  EXPECT_TRUE(red.ok());
  DualSolverConfig config;
  config.rounds = 1;
  config.base_chase.max_steps = 0;
  config.base_chase.max_tuples = 0;
  config.base_counterexample.max_tuples = 0;
  return Job{"pumping", red.value().dependencies(), red.value().goal(),
             config, 0};
}

TEST(ServiceOutcomeMetrics, EveryTerminalRunIsCountedExactlyOnce) {
  ObservabilityGuard guard(true, false);
  MetricsRegistry::Global().Reset();

  WorkloadOptions options;
  options.size = 2;
  std::vector<Job> jobs = ReductionSweepWorkload(options);
  std::atomic<bool> always_skip{true};

  JobHandle queued_cancel;
  JobHandle completed_then_resumed;
  {
    ServiceOptions service_options;
    service_options.num_threads = 1;
    SolverService service(service_options);

    // Pin the single worker so the next submission is cancelled while
    // still QUEUED — the terminal publication then happens on the
    // cancelling thread, not a worker.
    JobHandle pumping = service.Submit(PumpingJob());
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    queued_cancel = service.Submit(jobs[0]);
    EXPECT_TRUE(queued_cancel.Cancel());
    // A second Cancel on the same terminal run must not double-publish.
    queued_cancel.Cancel();
    EXPECT_EQ(queued_cancel.Wait().status, JobStatus::kCancelled);

    // Running-cancel path: the worker publishes the terminal state.
    EXPECT_TRUE(pumping.Cancel());
    EXPECT_EQ(pumping.Wait().status, JobStatus::kCancelled);

    // Completed path, then a budget-resume: the SAME handle terminates
    // twice — two runs, two publications.
    completed_then_resumed = service.Submit(jobs[1]);
    EXPECT_EQ(completed_then_resumed.Wait().status, JobStatus::kCompleted);
    ASSERT_TRUE(completed_then_resumed.ResumeWithBudget(jobs[1].config));
    EXPECT_EQ(completed_then_resumed.Wait().status, JobStatus::kCompleted);

    // Admission-gate path: skipped without running.
    SubmitOptions skip;
    skip.skip_when = &always_skip;
    EXPECT_EQ(service.Submit(jobs[0], skip).Wait().status,
              JobStatus::kSkipped);
  }  // service destructor: every job terminal, workers joined

  MetricsSnapshot snap = MetricsRegistry::Global().Snapshot();
  // 4 submissions + 1 resume = 5 runs; each run terminal exactly once.
  EXPECT_EQ(snap.counters["engine.jobs_submitted"], 4);
  EXPECT_EQ(snap.counters["engine.job_resumes"], 1);
  EXPECT_EQ(snap.counters["engine.jobs_completed"], 2);
  EXPECT_EQ(snap.counters["engine.jobs_cancelled"], 2);
  EXPECT_EQ(snap.counters["engine.jobs_skipped"], 1);
  EXPECT_EQ(snap.counters["engine.jobs_completed"] +
                snap.counters["engine.jobs_cancelled"] +
                snap.counters["engine.jobs_skipped"],
            5);
  // Started runs all left the in-flight gauge; nothing leaked.
  EXPECT_EQ(snap.gauges["engine.jobs_inflight"], 0);
  // The submit-to-terminal histogram saw every run too.
  auto it = snap.histograms.find("engine.job_seconds");
  ASSERT_NE(it, snap.histograms.end());
  EXPECT_EQ(it->second.count, 5);
}

// ---- Slow log ---------------------------------------------------------------

TEST(ServiceSlowLog, ThresholdEmitsOneLineWithPhaseBreakdown) {
  ObservabilityGuard guard(true, false);
  std::mutex mu;
  std::vector<std::string> lines;
  ServiceOptions service_options;
  service_options.num_threads = 2;
  service_options.slow_log_seconds = 1e-9;  // everything is "slow"
  service_options.slow_log_sink = [&mu, &lines](const std::string& line) {
    std::lock_guard<std::mutex> lock(mu);
    lines.push_back(line);
  };
  WorkloadOptions options;
  options.size = 2;
  std::vector<Job> jobs = ReductionSweepWorkload(options);
  {
    SolverService service(service_options);
    std::vector<JobHandle> handles;
    for (const Job& job : jobs) handles.push_back(service.Submit(job));
    for (const JobHandle& handle : handles) handle.Wait();
  }
  std::lock_guard<std::mutex> lock(mu);
  ASSERT_EQ(lines.size(), jobs.size());
  for (const std::string& line : lines) {
    EXPECT_NE(line.find("slow job "), std::string::npos) << line;
    EXPECT_NE(line.find("queue="), std::string::npos) << line;
    EXPECT_NE(line.find("match="), std::string::npos) << line;
    EXPECT_NE(line.find("fire="), std::string::npos) << line;
  }
}

// ---- Phase timings ride along outside the determinism contract --------------

TEST(JobResultTimings, CsvCarriesPhaseColumnsButSummaryDoesNot) {
  const std::vector<std::string> header = JobResult::CsvHeader();
  for (const char* column :
       {"queue_seconds", "match_seconds", "fire_seconds",
        "checkpoint_seconds"}) {
    EXPECT_NE(std::find(header.begin(), header.end(), column), header.end())
        << column;
  }
  WorkloadOptions options;
  options.size = 1;
  std::vector<Job> jobs = ReductionSweepWorkload(options);
  JobResult result = RunJob(jobs[0]);
  EXPECT_EQ(result.CsvRow().size(), header.size());
  // Wall-clock fields never leak into the deterministic contract.
  EXPECT_EQ(result.DeterministicSummary().find("match_seconds"),
            std::string::npos);
  EXPECT_GE(result.match_seconds, 0.0);
  EXPECT_GE(result.fire_seconds, 0.0);
}

}  // namespace
}  // namespace tdlib
