// The sharded-service suite: wire protocol round trips, consistent-hash
// ring stability, socket fault sites, and — when a tdworker binary is
// available (ctest exports TDLIB_TDWORKER) — real multi-process legs:
// end-to-end parity with the serial reference, kill-a-worker-mid-chase
// recovery, checkpoint park/migrate/resume, retry exhaustion, quota and
// queue shedding, last-worker-down fallback, and the exactly-once outcome
// ledger across crash/retry races.
#include <gtest/gtest.h>

#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "cluster/ring.h"
#include "cluster/router.h"
#include "cluster/wire.h"
#include "core/parser.h"
#include "engine/workload.h"
#include "logic/schema.h"
#include "util/fault.h"
#include "util/metrics.h"

namespace tdlib {
namespace {

// ---- shared fixtures -------------------------------------------------------

Job MakeSmallJob(const std::string& name) {
  SchemaPtr schema = MakeSchema({"A", "B", "C"});
  Result<Dependency> premise = ParseDependency(
      schema, "R(a,b,c) & R(a,b2,c2) => R(a9,b,c2)");
  Result<Dependency> goal = ParseDependency(
      schema, "R(a,b,c) & R(a2,b,c2) => R(a,b,c2)");
  EXPECT_TRUE(premise.ok() && goal.ok());
  DependencySet deps;
  deps.Add(premise.value(), "pump");
  Job job{name, std::move(deps), goal.value(), DualSolverConfig{}, 0};
  job.config.rounds = 1;
  job.config.base_chase.max_steps = 60;
  job.config.base_counterexample.max_tuples = 2;
  return job;
}

/// A deliberately long-running job: a gap-regime reduction instance whose
/// chase side pumps forever, with the counterexample budget starved to one
/// tuple so the verdict stays kUnknown and the run reliably consumes its
/// whole step budget. Runtime grows with `pad` (~30ms at pad 0 up to
/// ~250ms at pad 3 at 2000 steps), so SIGKILL can land mid-chase.
Job MakeGapJob(const std::string& name, int pad, std::uint64_t max_steps) {
  WorkloadOptions workload_options;
  workload_options.size = 3 * (pad + 1);
  std::vector<Job> jobs = ReductionSweepWorkload(workload_options);
  Job job = jobs[static_cast<std::size_t>(3 * pad + 2)];
  job.name = name;
  job.config.rounds = 1;
  job.config.base_chase.max_steps = max_steps;
  job.config.base_chase.max_tuples = 100000;
  job.config.base_counterexample.max_tuples = 1;
  return job;
}

/// Spins until `pred` holds (asynchronous supervision bookkeeping — crash
/// detection, heartbeat timeouts — trails the job results it causes).
template <typename Pred>
bool PollUntil(Pred pred, double seconds = 10.0) {
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::duration<double>(seconds);
  while (std::chrono::steady_clock::now() < deadline) {
    if (pred()) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  return pred();
}

bool HaveWorkerBinary() {
  const char* env = std::getenv("TDLIB_TDWORKER");
  return env != nullptr && env[0] != '\0';
}

#define SKIP_WITHOUT_WORKER()                                         \
  if (!HaveWorkerBinary()) {                                          \
    GTEST_SKIP() << "TDLIB_TDWORKER not set (ctest exports it when "  \
                    "the tdworker example target is built)";          \
  }

ClusterOptions FastOptions(int workers) {
  ClusterOptions options;
  options.num_workers = workers;
  options.restart_backoff_seconds = 0.01;
  options.restart_backoff_cap_seconds = 0.1;
  options.heartbeat_interval_seconds = 0.05;
  options.heartbeat_timeout_seconds = 2.0;
  return options;
}

void ExpectLedgerBalances(const ClusterStats& stats) {
  EXPECT_EQ(stats.submitted, stats.completed + stats.shed_queue +
                                 stats.shed_quota + stats.retries_exhausted +
                                 stats.fallback);
}

// ---- wire protocol ---------------------------------------------------------

TEST(ClusterWireTest, FrameRoundTripsWithTrailingData) {
  const std::string payload = "the payload";
  std::string bytes = EncodeFrame(FrameType::kJob, payload);
  bytes += "trailing bytes of the NEXT frame";
  std::size_t consumed = 0;
  Result<Frame> frame = DecodeFrame(bytes, &consumed);
  ASSERT_TRUE(frame.ok()) << frame.error();
  EXPECT_EQ(frame.value().type, FrameType::kJob);
  EXPECT_EQ(frame.value().payload, payload);
  EXPECT_EQ(consumed, kFrameHeaderSize + payload.size());
}

TEST(ClusterWireTest, FrameRejectsHeaderDamage) {
  const std::string healthy = EncodeFrame(FrameType::kPing, "x");
  struct Case {
    std::size_t offset;
    char value;
    const char* what;
  };
  const Case cases[] = {
      {0, 'X', "bad magic"},
      {4, 99, "unknown type"},
      {5, 1, "reserved byte"},
      {11, 0x7f, "over-cap length"},
      {12, 'X', "hash mismatch"},
  };
  for (const Case& c : cases) {
    std::string damaged = healthy;
    damaged[c.offset] = c.value;
    Result<Frame> frame = DecodeFrame(damaged, nullptr);
    ASSERT_FALSE(frame.ok()) << c.what;
    EXPECT_EQ(frame.code(), ErrorCode::kCorrupt) << c.what;
  }
  // Truncation at every prefix length short of the full frame.
  for (std::size_t n = 0; n < healthy.size(); ++n) {
    Result<Frame> frame = DecodeFrame(std::string_view(healthy).substr(0, n),
                                      nullptr);
    ASSERT_FALSE(frame.ok()) << "prefix " << n;
    EXPECT_EQ(frame.code(), ErrorCode::kCorrupt) << "prefix " << n;
  }
}

TEST(ClusterWireTest, JobPayloadRoundTripPreservesSemantics) {
  Job job = MakeSmallJob("round trip job");
  job.priority = 7;
  job.config.base_chase.hom_max_nodes = 12345;
  job.config.base_chase.auto_burst = true;
  job.config.base_chase.match_slice_ids = 321;
  job.config.base_counterexample.max_candidates = 99;

  WireJob wire_job(job);
  wire_job.job_id = 42;
  wire_job.probe_steps = 17;
  wire_job.session_text = "";

  Result<WireJob> decoded = DecodeJobPayload(EncodeJobPayload(wire_job));
  ASSERT_TRUE(decoded.ok()) << decoded.error();
  const WireJob& got = decoded.value();
  EXPECT_EQ(got.job_id, 42u);
  EXPECT_EQ(got.probe_steps, 17u);
  EXPECT_EQ(got.job.name, "round trip job");
  EXPECT_EQ(got.job.priority, 7);
  EXPECT_EQ(got.job.config.base_chase.hom_max_nodes, 12345u);
  EXPECT_TRUE(got.job.config.base_chase.auto_burst);
  EXPECT_EQ(got.job.config.base_chase.match_slice_ids, 321u);
  EXPECT_EQ(got.job.config.base_counterexample.max_candidates, 99u);
  // The program may be canonically renamed in flight; the contract is that
  // every deterministic result byte survives, so compare solver outputs.
  EXPECT_EQ(RunJob(job).DeterministicSummary(),
            RunJob(got.job).DeterministicSummary());
}

TEST(ClusterWireTest, ResultPayloadRoundTripsEveryField) {
  WireResult wire_result;
  wire_result.job_id = 7;
  wire_result.parked = true;
  wire_result.session_text = "session bytes\nwith a newline";
  JobResult& r = wire_result.result;
  r.name = "a name with spaces";
  r.status = JobStatus::kCompleted;
  r.verdict = DualVerdict::kRefutedFinite;
  r.rounds_used = 2;
  r.chase_steps = 11;
  r.chase_passes = 3;
  r.hom_nodes = 101;
  r.match_tasks = 5;
  r.carried_passes = 1;
  r.candidates_checked = 77;
  r.cache_source = CacheSource::kHit;
  r.wall_seconds = 0.25;

  Result<WireResult> decoded =
      DecodeResultPayload(EncodeResultPayload(wire_result));
  ASSERT_TRUE(decoded.ok()) << decoded.error();
  const WireResult& got = decoded.value();
  EXPECT_EQ(got.job_id, 7u);
  EXPECT_TRUE(got.parked);
  EXPECT_EQ(got.session_text, wire_result.session_text);
  EXPECT_EQ(got.result.DeterministicSummary(), r.DeterministicSummary());
  EXPECT_EQ(got.result.cache_source, CacheSource::kHit);
  EXPECT_EQ(got.result.wall_seconds, r.wall_seconds);
}

// ---- consistent-hash ring --------------------------------------------------

TEST(ClusterRingTest, DownMemberOnlyMovesItsOwnKeys) {
  HashRing ring;
  for (int m = 0; m < 4; ++m) ring.Add(m);
  std::vector<int> before(1000);
  for (std::uint64_t k = 0; k < before.size(); ++k) {
    before[k] = ring.Pick(k * 0x9e3779b97f4a7c15ULL);
    EXPECT_GE(before[k], 0);
  }
  // All four members actually own keys.
  EXPECT_EQ(std::set<int>(before.begin(), before.end()).size(), 4u);
  for (int down = 0; down < 4; ++down) {
    int moved = 0;
    for (std::uint64_t k = 0; k < before.size(); ++k) {
      const std::uint64_t key = k * 0x9e3779b97f4a7c15ULL;
      const int now = ring.Pick(key, [down](int m) { return m != down; });
      EXPECT_NE(now, down);
      if (before[k] != down) {
        // Keys of up owners must not move at all — this is the property
        // that keeps the other workers' caches warm while one is down.
        EXPECT_EQ(now, before[k]) << "key " << k << " down " << down;
      } else {
        ++moved;
      }
      // The unfiltered pick is the configured owner, whoever is down.
      EXPECT_EQ(ring.Pick(key), before[k]);
    }
    EXPECT_GT(moved, 0) << "down " << down;
  }
}

TEST(ClusterRingTest, EmptyOrUnusableRingPicksNobody) {
  HashRing ring;
  EXPECT_EQ(ring.Pick(123), -1);
  ring.Add(5);
  EXPECT_EQ(ring.Pick(123), 5);
  EXPECT_EQ(ring.Pick(123, [](int) { return false; }), -1);
}

// ---- fault sites on the socket paths ---------------------------------------

class ClusterFaultTest : public ::testing::Test {
 protected:
  void SetUp() override { DisarmAllFaults(); }
  void TearDown() override { DisarmAllFaults(); }
};

TEST_F(ClusterFaultTest, SocketWriteFaultFailsTheWrite) {
  int fds[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  ArmFault(FaultSite::kSocketWrite, 1);
  EXPECT_FALSE(WriteFrameToFd(fds[0], FrameType::kPing, "x"));
  EXPECT_EQ(FaultInjectionCount(FaultSite::kSocketWrite), 1u);
  // Disarmed after firing once: the next write goes through.
  EXPECT_TRUE(WriteFrameToFd(fds[0], FrameType::kPing, "x"));
  ::close(fds[0]);
  ::close(fds[1]);
}

TEST_F(ClusterFaultTest, SocketReadFaultTruncatesTheStream) {
  int fds[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  ASSERT_TRUE(WriteFrameToFd(fds[0], FrameType::kPing, "payload"));
  ArmFault(FaultSite::kSocketRead, 2);  // cut mid-frame, not at the boundary
  Result<Frame> frame = ReadFrameFromFd(fds[1]);
  ASSERT_FALSE(frame.ok());
  EXPECT_EQ(frame.code(), ErrorCode::kCorrupt);
  EXPECT_EQ(FaultInjectionCount(FaultSite::kSocketRead), 1u);
  ::close(fds[0]);
  ::close(fds[1]);
}

TEST_F(ClusterFaultTest, FrameCorruptFaultIsRejectedByTheReceiver) {
  int fds[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  ArmFault(FaultSite::kFrameCorrupt, 1);
  ASSERT_TRUE(WriteFrameToFd(fds[0], FrameType::kJob,
                             "a payload long enough to damage"));
  EXPECT_EQ(FaultInjectionCount(FaultSite::kFrameCorrupt), 1u);
  ::shutdown(fds[0], SHUT_WR);
  Result<Frame> frame = ReadFrameFromFd(fds[1]);
  // The payload was damaged before framing, so the header hash cannot
  // match: the receiver must reject with the typed error, never accept.
  ASSERT_FALSE(frame.ok());
  EXPECT_EQ(frame.code(), ErrorCode::kCorrupt);
  ::close(fds[0]);
  ::close(fds[1]);
}

// ---- multi-process legs ----------------------------------------------------

TEST(ClusterRouterTest, TwoWorkersMatchTheSerialReference) {
  SKIP_WITHOUT_WORKER();
  WorkloadOptions workload_options;
  workload_options.size = 8;
  std::vector<Job> jobs = ReductionSweepWorkload(workload_options);

  ClusterRouter router(FastOptions(2));
  std::vector<ClusterHandle> handles;
  for (const Job& job : jobs) handles.push_back(router.Submit(job));
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    const ClusterResult& r = handles[i].Wait();
    EXPECT_EQ(r.outcome, ClusterOutcome::kCompleted) << jobs[i].name;
    EXPECT_EQ(r.result.DeterministicSummary(),
              RunJob(jobs[i]).DeterministicSummary())
        << jobs[i].name;
  }
  const ClusterStats stats = router.Stats();
  EXPECT_EQ(stats.submitted, static_cast<std::int64_t>(jobs.size()));
  EXPECT_EQ(stats.completed, static_cast<std::int64_t>(jobs.size()));
  ExpectLedgerBalances(stats);
}

TEST(ClusterRouterTest, RepeatSubmissionIsServedFromTheWorkerCache) {
  SKIP_WITHOUT_WORKER();
  Job job = MakeSmallJob("repeat");
  ClusterRouter router(FastOptions(2));
  const ClusterResult cold = router.Submit(job).Wait();
  ASSERT_EQ(cold.outcome, ClusterOutcome::kCompleted);
  const ClusterResult warm = router.Submit(job).Wait();
  ASSERT_EQ(warm.outcome, ClusterOutcome::kCompleted);
  // Consistent hashing sends the isomorphic repeat to the same worker,
  // whose result cache replays it byte-identically.
  EXPECT_EQ(warm.result.cache_source, CacheSource::kHit);
  EXPECT_EQ(warm.result.DeterministicSummary(),
            cold.result.DeterministicSummary());
  EXPECT_GE(router.Stats().cache_hits, 1);
}

TEST(ClusterRouterTest, RepeatsHitTheCacheAfterStaggeredStartup) {
  SKIP_WITHOUT_WORKER();
  // Distinct jobs submitted the moment the router exists, while its workers
  // are still starting and saying Hello in whatever order they manage.
  // Routing covers the configured slots, not the workers up so far, so
  // each job waits for its owner, and a repeat once everyone is up reaches
  // the worker whose cache holds it.
  const int kWorkers = 3;
  std::vector<Job> jobs;
  for (int i = 0; i < 8; ++i) {
    Job job = MakeSmallJob("staggered-" + std::to_string(i));
    job.config.base_chase.max_steps = 40 + static_cast<std::uint64_t>(i);
    jobs.push_back(std::move(job));
  }
  const bool metrics_were_enabled = MetricsEnabled();
  SetMetricsEnabled(true);
  {
    ClusterRouter router(FastOptions(kWorkers));
    std::vector<ClusterHandle> cold;
    for (const Job& job : jobs) cold.push_back(router.Submit(job));
    std::set<int> owners;
    for (ClusterHandle& handle : cold) {
      const ClusterResult& r = handle.Wait();
      ASSERT_EQ(r.outcome, ClusterOutcome::kCompleted);
      EXPECT_EQ(r.result.cache_source, CacheSource::kMiss);
      owners.insert(r.worker);
    }
    EXPECT_GE(owners.size(), 2u);  // the jobs really spread over the ring
    Gauge* healthy =
        MetricsRegistry::Global().GetGauge("cluster.workers_healthy");
    ASSERT_TRUE(PollUntil([&] { return healthy->Value() == kWorkers; }));
    for (std::size_t i = 0; i < jobs.size(); ++i) {
      const ClusterResult warm = router.Submit(jobs[i]).Wait();
      ASSERT_EQ(warm.outcome, ClusterOutcome::kCompleted);
      EXPECT_EQ(warm.result.cache_source, CacheSource::kHit) << jobs[i].name;
      EXPECT_EQ(warm.worker, cold[i].Wait().worker) << jobs[i].name;
      EXPECT_EQ(warm.result.DeterministicSummary(),
                cold[i].Wait().result.DeterministicSummary());
    }
    EXPECT_EQ(router.Stats().cache_hits,
              static_cast<std::int64_t>(jobs.size()));
    ExpectLedgerBalances(router.Stats());
  }
  SetMetricsEnabled(metrics_were_enabled);
}

TEST(ClusterRouterTest, KilledWorkerLosesNoJobs) {
  SKIP_WITHOUT_WORKER();
  // Six pumping chases across two workers; slot 0 is killed while they
  // run. The acceptance bar: every accepted job still completes,
  // byte-identical to the serial reference, and the ledger balances.
  std::vector<Job> jobs;
  for (int i = 0; i < 6; ++i) {
    jobs.push_back(MakeGapJob("heavy-" + std::to_string(i), i % 4,
                              /*max_steps=*/1990 + i));
  }
  ClusterRouter router(FastOptions(2));
  std::vector<ClusterHandle> handles;
  for (const Job& job : jobs) handles.push_back(router.Submit(job));
  std::this_thread::sleep_for(std::chrono::milliseconds(60));
  router.KillWorker(0);
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    const ClusterResult& r = handles[i].Wait();
    EXPECT_TRUE(r.outcome == ClusterOutcome::kCompleted ||
                r.outcome == ClusterOutcome::kFallback)
        << ClusterOutcomeName(r.outcome);
    EXPECT_EQ(r.result.DeterministicSummary(),
              RunJob(jobs[i]).DeterministicSummary())
        << jobs[i].name;
  }
  // The kGone bookkeeping races the final Wait(): a killed-while-idle
  // worker publishes no job result, so give the crash counter a moment.
  EXPECT_TRUE(PollUntil([&] { return router.Stats().worker_crashes >= 1; }));
  const ClusterStats stats = router.Stats();
  EXPECT_EQ(stats.retries_exhausted, 0);
  ExpectLedgerBalances(stats);
}

TEST(ClusterRouterTest, HungWorkerIsKilledByHeartbeatAndTheJobRecovers) {
  SKIP_WITHOUT_WORKER();
  ClusterOptions options = FastOptions(1);
  options.hang_after_jobs = 1;  // worker goes silent after its first job
  options.heartbeat_interval_seconds = 0.04;
  options.heartbeat_timeout_seconds = 0.1;
  // Each of the 1 + max_restarts worker processes can lose the job it is
  // running once. Under a sanitizer a restarted worker can miss the 0.1 s
  // pong window during its own first job as well, so one job may be lost
  // to every death; retries must cover them all for that job to drain to
  // the fallback instead of being shed as retries-exhausted.
  options.max_retries = options.max_restarts + 1;
  ClusterRouter router(options);

  const Job first = MakeSmallJob("first");
  ASSERT_EQ(router.Submit(first).Wait().outcome, ClusterOutcome::kCompleted);

  // The worker is now deaf to pings but still solving. A stream of long
  // chases keeps it busy well past the pong timeout, so the SIGKILL lands
  // mid-chase and the lost job re-runs to the same bytes elsewhere (each
  // restarted worker hangs again after one job, so the last job drains to
  // the in-process fallback once restarts are spent).
  std::vector<Job> jobs;
  for (int i = 0; i < 4; ++i) {
    jobs.push_back(
        MakeGapJob("hung-" + std::to_string(i), 3, /*max_steps=*/1990 + i));
  }
  std::vector<ClusterHandle> handles;
  for (const Job& job : jobs) handles.push_back(router.Submit(job));
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    const ClusterResult& r = handles[i].Wait();
    EXPECT_TRUE(r.outcome == ClusterOutcome::kCompleted ||
                r.outcome == ClusterOutcome::kFallback)
        << ClusterOutcomeName(r.outcome);
    EXPECT_EQ(r.result.DeterministicSummary(),
              RunJob(jobs[i]).DeterministicSummary())
        << jobs[i].name;
  }
  EXPECT_TRUE(PollUntil([&] {
    const ClusterStats s = router.Stats();
    return s.heartbeat_timeouts >= 1 && s.worker_crashes >= 1;
  }));
  ExpectLedgerBalances(router.Stats());
}

TEST(ClusterRouterTest, ParkedCheckpointMigratesAndResumesByteIdentically) {
  SKIP_WITHOUT_WORKER();
  ClusterOptions options = FastOptions(2);
  options.migration_probe_steps = 500;  // park any chase still running here
  ClusterRouter router(options);

  const Job job = MakeGapJob("migrant", 0, /*max_steps=*/2000);
  const ClusterResult r = router.Submit(job).Wait();
  ASSERT_EQ(r.outcome, ClusterOutcome::kCompleted);
  EXPECT_TRUE(r.migrated);
  EXPECT_EQ(r.result.DeterministicSummary(),
            RunJob(job).DeterministicSummary());
  const ClusterStats stats = router.Stats();
  EXPECT_EQ(stats.migrated, 1);
  ExpectLedgerBalances(stats);
}

TEST(ClusterRouterTest, UnspawnableWorkersExhaustRetriesWithoutFallback) {
  ClusterOptions options = FastOptions(1);
  options.worker_command = "/bin/false";  // exits before saying hello
  options.max_restarts = 1;
  options.fallback_when_down = false;
  ClusterRouter router(options);
  const ClusterResult r = router.Submit(MakeSmallJob("doomed")).Wait();
  EXPECT_EQ(r.outcome, ClusterOutcome::kRetriesExhausted);
  EXPECT_EQ(r.result.status, JobStatus::kSkipped);
  const ClusterStats stats = router.Stats();
  EXPECT_GE(stats.worker_crashes, 1);
  ExpectLedgerBalances(stats);
}

TEST(ClusterRouterTest, QuotaOverflowShedsAsSkipped) {
  SKIP_WITHOUT_WORKER();
  ClusterOptions options = FastOptions(1);
  options.tenant_quota = 1;
  ClusterRouter router(options);
  const Job heavy = MakeGapJob("occupant", 2, /*max_steps=*/2000);
  ClusterHandle occupant = router.Submit(heavy);
  // While the occupant holds the tenant's single slot, more submissions
  // from the same tenant shed; a different tenant is unaffected.
  const ClusterResult shed = router.Submit(MakeSmallJob("over")).Wait();
  EXPECT_EQ(shed.outcome, ClusterOutcome::kShedQuota);
  EXPECT_EQ(shed.result.status, JobStatus::kSkipped);
  ClusterSubmitOptions other_tenant;
  other_tenant.tenant = "other";
  ClusterHandle ok = router.Submit(MakeSmallJob("other"), other_tenant);
  EXPECT_EQ(ok.Wait().outcome, ClusterOutcome::kCompleted);
  EXPECT_EQ(occupant.Wait().outcome, ClusterOutcome::kCompleted);
  const ClusterStats stats = router.Stats();
  EXPECT_EQ(stats.shed_quota, 1);
  ExpectLedgerBalances(stats);
}

TEST(ClusterRouterTest, QueueOverflowShedsAsSkipped) {
  SKIP_WITHOUT_WORKER();
  ClusterOptions options = FastOptions(1);
  options.max_queue_depth = 1;
  ClusterRouter router(options);
  ClusterHandle occupant =
      router.Submit(MakeGapJob("occupant", 2, /*max_steps=*/2000));
  const ClusterResult shed = router.Submit(MakeSmallJob("over")).Wait();
  EXPECT_EQ(shed.outcome, ClusterOutcome::kShedQueue);
  EXPECT_EQ(shed.result.status, JobStatus::kSkipped);
  EXPECT_EQ(occupant.Wait().outcome, ClusterOutcome::kCompleted);
  ExpectLedgerBalances(router.Stats());
}

TEST(ClusterRouterTest, LastWorkerDownDegradesToTheFallback) {
  ClusterOptions options = FastOptions(1);
  options.worker_command = "/bin/false";
  options.max_restarts = 1;
  options.fallback_when_down = true;  // the default, spelled out
  ClusterRouter router(options);
  const Job job = MakeSmallJob("fallback");
  const ClusterResult r = router.Submit(job).Wait();
  EXPECT_EQ(r.outcome, ClusterOutcome::kFallback);
  EXPECT_EQ(r.result.DeterministicSummary(),
            RunJob(job).DeterministicSummary());
  const ClusterStats stats = router.Stats();
  EXPECT_EQ(stats.fallback, 1);
  ExpectLedgerBalances(stats);
}

TEST(ClusterRouterTest, ZeroWorkersRunEverythingInProcess) {
  ClusterOptions options = FastOptions(0);
  ClusterRouter router(options);
  WorkloadOptions workload_options;
  workload_options.size = 4;
  std::vector<Job> jobs = ReductionSweepWorkload(workload_options);
  std::vector<ClusterHandle> handles;
  for (const Job& job : jobs) handles.push_back(router.Submit(job));
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    const ClusterResult& r = handles[i].Wait();
    EXPECT_EQ(r.outcome, ClusterOutcome::kFallback);
    EXPECT_EQ(r.result.DeterministicSummary(),
              RunJob(jobs[i]).DeterministicSummary());
  }
  ExpectLedgerBalances(router.Stats());
}

TEST(ClusterRouterTest, CompletionCallbackFiresExactlyOncePerJob) {
  SKIP_WITHOUT_WORKER();
  // The single-publication-path contract, measured from the outside: under
  // a worker kill racing live results, on_complete runs exactly once per
  // submission and the outcome counters sum to the submission count.
  std::vector<Job> jobs;
  for (int i = 0; i < 6; ++i) {
    jobs.push_back(MakeGapJob("ledger-" + std::to_string(i), i % 3,
                              /*max_steps=*/1990 + i));
  }
  std::atomic<int> callbacks{0};
  ClusterRouter router(FastOptions(2));
  std::vector<ClusterHandle> handles;
  for (const Job& job : jobs) {
    ClusterSubmitOptions submit;
    submit.on_complete = [&callbacks](const ClusterResult&) {
      callbacks.fetch_add(1, std::memory_order_relaxed);
    };
    handles.push_back(router.Submit(job, std::move(submit)));
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  router.KillWorker(1);
  for (ClusterHandle& handle : handles) handle.Wait();
  router.WaitIdle();
  EXPECT_EQ(callbacks.load(), static_cast<int>(jobs.size()));
  ExpectLedgerBalances(router.Stats());
}

TEST(ClusterRouterTest, WorkerSideSocketFaultDegradesGracefully) {
  SKIP_WITHOUT_WORKER();
  // Workers inherit TDLIB_FAULT and arm cluster.socket-read:1 — every
  // spawned worker dies on its first frame read (the crash-only exit for a
  // truncated stream). Restarts burn out, the router degrades to the
  // fallback, and the job still completes byte-identically.
  ::setenv("TDLIB_FAULT", "cluster.socket-read:1", 1);
  ClusterOptions options = FastOptions(1);
  options.max_restarts = 1;
  ClusterRouter* router = new ClusterRouter(options);
  const Job job = MakeSmallJob("survivor");
  const ClusterResult r = router->Submit(job).Wait();
  delete router;
  ::unsetenv("TDLIB_FAULT");
  EXPECT_EQ(r.outcome, ClusterOutcome::kFallback);
  EXPECT_EQ(r.result.DeterministicSummary(),
            RunJob(job).DeterministicSummary());
}

}  // namespace
}  // namespace tdlib
