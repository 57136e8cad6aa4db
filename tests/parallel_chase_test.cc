// Serial-vs-pool cross-validation: the parallel match phase must be a pure
// wall-clock optimization. For every workload, chasing with
// ChaseConfig::pool at ANY thread count must produce byte-identical
// terminal instances, identical traces (same fires, same order, same new
// tuple ids), identical statuses — and the exact same number of
// homomorphism-search nodes and match tasks, since the pooled run executes
// the same searches as the serial run, just on more threads.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "chase/chase.h"
#include "chase/implication.h"
#include "core/generators.h"
#include "core/parser.h"
#include "engine/batch_solver.h"
#include "engine/thread_pool.h"
#include "engine/workload.h"
#include "util/rng.h"

namespace tdlib {
namespace {

const int kThreadCounts[] = {1, 2, 4, 8};

void ExpectSameTrace(const ChaseResult& serial, const ChaseResult& pooled,
                     const std::string& label) {
  ASSERT_EQ(serial.trace.size(), pooled.trace.size()) << label;
  for (std::size_t i = 0; i < serial.trace.size(); ++i) {
    EXPECT_EQ(serial.trace[i].dependency_index,
              pooled.trace[i].dependency_index)
        << label << " step " << i;
    EXPECT_EQ(serial.trace[i].new_tuples, pooled.trace[i].new_tuples)
        << label << " step " << i;
    EXPECT_TRUE(serial.trace[i].body_match == pooled.trace[i].body_match)
        << label << " step " << i;
  }
}

// Chases `seed` serially (pool = null), then once per thread count with a
// fresh pool, and asserts byte-identical outcomes every time.
void CrossValidate(const Instance& seed, const DependencySet& deps,
                   ChaseConfig base, const std::string& label) {
  base.record_trace = true;
  base.pool = nullptr;
  Instance serial_instance = seed;
  ChaseResult serial = RunChase(&serial_instance, deps, base);
  EXPECT_EQ(serial_instance.CheckInvariants(), "") << label;

  for (int threads : kThreadCounts) {
    ThreadPool pool(threads);
    ChaseConfig pooled_config = base;
    pooled_config.pool = &pool;
    Instance pooled_instance = seed;
    ChaseResult pooled = RunChase(&pooled_instance, deps, pooled_config);
    std::string tag = label + " threads=" + std::to_string(threads);

    EXPECT_EQ(serial.status, pooled.status) << tag;
    EXPECT_EQ(serial.steps, pooled.steps) << tag;
    EXPECT_EQ(serial.passes, pooled.passes) << tag;
    // The pooled run executes the same set of searches as the serial run,
    // so even the node totals and the task decomposition must agree.
    EXPECT_EQ(serial.hom_nodes, pooled.hom_nodes) << tag;
    EXPECT_EQ(serial.hom_candidates, pooled.hom_candidates) << tag;
    EXPECT_EQ(serial.match_tasks, pooled.match_tasks) << tag;
    ExpectSameTrace(serial, pooled, tag);
    EXPECT_EQ(serial_instance.ToString(), pooled_instance.ToString()) << tag;
    EXPECT_EQ(pooled_instance.CheckInvariants(), "") << tag;
  }
}

// ---- Random TD workloads ----------------------------------------------------

class RandomTdParallelCheck : public ::testing::TestWithParam<int> {};

TEST_P(RandomTdParallelCheck, SerialAndPooledChaseAgreeByteForByte) {
  Rng rng(GetParam() * 9173);
  SchemaPtr schema = MakeSchema({"X0", "X1"});
  TdGeneratorOptions options;
  options.body_rows = 2;
  DependencySet deps;
  deps.Add(RandomDependency(&rng, options, schema));
  deps.Add(RandomDependency(&rng, options, schema));

  Instance seed = RandomInstance(&rng, schema, 3, 4);
  ChaseConfig config;
  config.max_steps = 300;
  config.max_tuples = 1500;
  CrossValidate(seed, deps, config,
                "random seed " + std::to_string(GetParam()));

  // Same workload under a burst cap: carried steps are re-checked by
  // dedicated match tasks, so the carry path must be parallel-safe too.
  config.max_fires_per_pass = 3;
  CrossValidate(seed, deps, config,
                "random capped seed " + std::to_string(GetParam()));

  // Naive matching with a pool: the per-dependency full scans fan out.
  config.max_fires_per_pass = 0;
  config.use_delta = false;
  CrossValidate(seed, deps, config,
                "random naive seed " + std::to_string(GetParam()));
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomTdParallelCheck,
                         ::testing::Range(1, 16));

// ---- Existential gadgets (labeled-null invention) ---------------------------

TEST(ParallelChaseTest, ExistentialGadgetsInventIdenticalNulls) {
  SchemaPtr schema = MakeSchema({"A", "B"});
  // Each fire invents nulls; byte-identity means serial and pooled runs
  // must invent them in exactly the same order with the same auto-names.
  const char* programs[] = {
      "R(a,b) & R(a2,b2) => R(a,b3)",
      "R(a,b) => R(a2,b)",
      "R(a,b) & R(a,b2) => R(a3,b) & R(a3,b2)",
  };
  for (const char* text : programs) {
    DependencySet deps;
    deps.Add(std::move(ParseDependency(schema, text)).value());
    Instance seed(schema);
    for (int v = 0; v < 3; ++v) {
      seed.AddValue(0);
      seed.AddValue(1);
    }
    seed.AddTuple({0, 0});
    seed.AddTuple({1, 2});
    ChaseConfig config;
    config.max_steps = 40;  // these gadgets need not terminate
    config.max_tuples = 400;
    CrossValidate(seed, deps, config, text);
  }
}

// ---- Cross-product closure (the chase throughput workload) ------------------

TEST(ParallelChaseTest, CrossProductClosureIdentical) {
  SchemaPtr schema = MakeSchema({"A", "B"});
  DependencySet deps;
  deps.Add(std::move(
               ParseDependency(schema, "R(a,b) & R(a2,b2) => R(a,b2)"))
               .value(),
           "cross");
  Rng rng(42);
  Instance seed(schema);
  const int domain = 8;
  for (int attr = 0; attr < 2; ++attr) {
    for (int v = 0; v < domain; ++v) seed.AddValue(attr);
  }
  for (int i = 0; i < 16; ++i) {
    seed.AddTuple({static_cast<int>(rng.Below(domain)),
                   static_cast<int>(rng.Below(domain))});
  }
  ChaseConfig config;
  config.max_steps = 0;
  config.max_tuples = 0;
  CrossValidate(seed, deps, config, "cross-product closure");

  // The bounded-burst production regime, where carried steps accumulate.
  config.max_fires_per_pass = 16;
  CrossValidate(seed, deps, config, "cross-product closure cap=16");
}

// ---- Wide existential program over a random seed ---------------------------

TEST(ParallelChaseTest, WideExistentialProgramAndClosureIdentical) {
  // A wide existential program (nulls invented, multi-position joins) and a
  // cross-product closure over one random seed, alone and together. The
  // existential rule binds two positions per body row, so these inputs
  // exercise the per-candidate rejection of the second bound position.
  SchemaPtr schema = MakeSchema({"A", "B"});
  const char* closure = "R(a,b) & R(a2,b2) => R(a,b2)";
  const char* existential = "R(a,b) & R(a,b2) => R(a3,b)";
  const std::vector<std::vector<const char*>> programs = {
      {existential}, {closure}, {closure, existential}};
  Rng rng(2026);
  Instance seed(schema);
  const int domain = 7;
  for (int attr = 0; attr < 2; ++attr) {
    for (int v = 0; v < domain; ++v) seed.AddValue(attr);
  }
  for (int i = 0; i < 25; ++i) {
    seed.AddTuple({static_cast<int>(rng.Below(domain)),
                   static_cast<int>(rng.Below(domain))});
  }
  ChaseConfig config;
  config.max_steps = 120;
  config.max_tuples = 2500;
  for (const std::vector<const char*>& program : programs) {
    DependencySet deps;
    std::string label;
    for (const char* text : program) {
      deps.Add(std::move(ParseDependency(schema, text)).value());
      label += std::string(label.empty() ? "" : " + ") + text;
    }
    CrossValidate(seed, deps, config, label);
  }
}

// ---- Zigzag reachability closure --------------------------------------------

TEST(ParallelChaseTest, ZigzagReachabilityIdentical) {
  SchemaPtr schema = MakeSchema({"A", "B"});
  DependencySet deps;
  deps.Add(std::move(ParseDependency(
               schema, "R(a,b) & R(a2,b) & R(a2,b2) => R(a,b2)"))
               .value(),
           "reach");
  const int n = 12;
  Instance seed(schema);
  seed.Reserve(static_cast<std::size_t>(n) * n, n + 1);
  for (int v = 0; v <= n; ++v) {
    seed.AddValue(0);
    seed.AddValue(1);
  }
  for (int i = 0; i < n; ++i) {
    seed.AddTuple({i, i});
    seed.AddTuple({i + 1, i});
  }
  ChaseConfig config;
  config.max_steps = 0;
  config.max_tuples = 0;
  CrossValidate(seed, deps, config, "zigzag reachability");
}

// ---- Work-stealing slices for few-member passes -----------------------------

TEST(ParallelChaseTest, SeedRowSlicesStayByteIdenticalAtEveryWidth) {
  // A single-dependency chase produces only |body rows| partition members
  // per pass; match_slice_ids cuts each member's seed-row delta range into
  // sub-tasks so a wide pool still gets fed. Tiny slices (2 ids) force the
  // splitter on from the first delta pass; serial and pooled runs must stay
  // byte-identical — including hom_nodes and the (larger) match_tasks —
  // because the slicing depends on the delta, never on the pool.
  SchemaPtr schema = MakeSchema({"A", "B"});
  DependencySet deps;
  deps.Add(std::move(ParseDependency(
               schema, "R(a,b) & R(a2,b) & R(a2,b2) => R(a,b2)"))
               .value(),
           "reach");
  const int n = 10;
  Instance seed(schema);
  for (int v = 0; v <= n; ++v) {
    seed.AddValue(0);
    seed.AddValue(1);
  }
  for (int i = 0; i < n; ++i) {
    seed.AddTuple({i, i});
    seed.AddTuple({i + 1, i});
  }
  ChaseConfig config;
  config.max_steps = 0;
  config.max_tuples = 0;
  config.match_slice_ids = 2;
  CrossValidate(seed, deps, config, "zigzag sliced (2-id slices)");

  // The splitter must actually have engaged: the same chase without slicing
  // decomposes into strictly fewer match tasks.
  Instance sliced_instance = seed;
  ChaseResult sliced = RunChase(&sliced_instance, deps, config);
  ChaseConfig unsliced_config = config;
  unsliced_config.match_slice_ids = 0;
  Instance unsliced_instance = seed;
  ChaseResult unsliced = RunChase(&unsliced_instance, deps, unsliced_config);
  EXPECT_GT(sliced.match_tasks, unsliced.match_tasks);
  // Slicing is invisible in the chase's output: same fires, same instance.
  EXPECT_EQ(sliced.steps, unsliced.steps);
  EXPECT_EQ(sliced_instance.ToString(), unsliced_instance.ToString());
}

// ---- Reduction sweep (the paper's gadget instances) -------------------------

class ReductionSweepParallelCheck : public ::testing::TestWithParam<int> {};

TEST_P(ReductionSweepParallelCheck, ImplicationAgreesOnSweepJobs) {
  WorkloadOptions options;
  options.size = 8;
  std::vector<Job> jobs = ReductionSweepWorkload(options);
  const Job& job = jobs[GetParam() % jobs.size()];

  ChaseConfig base = job.config.base_chase;
  base.record_trace = true;
  // Keep capped runs inside test time: the uncapped step budget would mean
  // thousands of small passes on the gap-regime jobs.
  base.max_steps = 400;

  for (std::uint64_t cap : {std::uint64_t{0}, std::uint64_t{16}}) {
    ChaseConfig serial_config = base;
    serial_config.max_fires_per_pass = cap;
    serial_config.pool = nullptr;
    ImplicationResult serial =
        ChaseImplies(job.dependencies, job.goal, serial_config);

    for (int threads : kThreadCounts) {
      ThreadPool pool(threads);
      ChaseConfig pooled_config = serial_config;
      pooled_config.pool = &pool;
      ImplicationResult pooled =
          ChaseImplies(job.dependencies, job.goal, pooled_config);

      std::string label = job.name + " cap=" + std::to_string(cap) +
                          " threads=" + std::to_string(threads);
      EXPECT_EQ(serial.verdict, pooled.verdict) << label;
      EXPECT_EQ(serial.chase.status, pooled.chase.status) << label;
      EXPECT_EQ(serial.chase.steps, pooled.chase.steps) << label;
      EXPECT_EQ(serial.chase.passes, pooled.chase.passes) << label;
      EXPECT_EQ(serial.chase.hom_nodes, pooled.chase.hom_nodes) << label;
      EXPECT_EQ(serial.chase.match_tasks, pooled.chase.match_tasks) << label;
      ExpectSameTrace(serial.chase, pooled.chase, label);
      ASSERT_EQ(serial.counterexample.has_value(),
                pooled.counterexample.has_value())
          << label;
      if (serial.counterexample.has_value()) {
        EXPECT_EQ(serial.counterexample->ToString(),
                  pooled.counterexample->ToString())
            << label;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Jobs, ReductionSweepParallelCheck,
                         ::testing::Range(0, 8));

// ---- The engine end to end --------------------------------------------------

TEST(ParallelChaseTest, BatchChaseParallelismPreservesDeterministicSummary) {
  // The batch pool is lent to every job's chase (two-level parallelism on
  // one pool); the deterministic summary must not notice.
  WorkloadOptions options;
  options.size = 6;
  std::vector<Job> jobs = ReductionSweepWorkload(options);

  BatchSummary reference = RunSerial(jobs);
  for (int threads : kThreadCounts) {
    BatchOptions pooled;
    pooled.num_threads = threads;
    pooled.chase_parallelism = true;
    BatchSummary nested = BatchSolver(pooled).Run(jobs);
    EXPECT_EQ(nested.DeterministicSummary(), reference.DeterministicSummary())
        << "threads=" << threads;

    BatchOptions flat = pooled;
    flat.chase_parallelism = false;
    BatchSummary unnested = BatchSolver(flat).Run(jobs);
    EXPECT_EQ(unnested.DeterministicSummary(),
              reference.DeterministicSummary())
        << "threads=" << threads << " (chase_parallelism off)";
  }
}

// ---- Degenerate pools -------------------------------------------------------

TEST(ParallelChaseTest, SingleThreadPoolIsTheSerialAlgorithm) {
  // ParallelFor's serial fallback triggers for width-1 pools: the chase
  // must not even submit helper tasks, just run inline.
  SchemaPtr schema = MakeSchema({"A", "B"});
  DependencySet deps;
  deps.Add(std::move(
               ParseDependency(schema, "R(a,b) & R(a2,b2) => R(a,b2)"))
               .value());
  Instance seed(schema);
  for (int v = 0; v < 4; ++v) {
    seed.AddValue(0);
    seed.AddValue(1);
  }
  seed.AddTuple({0, 1});
  seed.AddTuple({1, 2});
  seed.AddTuple({2, 3});

  ThreadPool pool(1);
  ChaseConfig config;
  config.pool = &pool;
  config.record_trace = true;
  Instance pooled_instance = seed;
  ChaseResult pooled = RunChase(&pooled_instance, deps, config);
  EXPECT_EQ(pool.QueueDepth(), 0u);

  config.pool = nullptr;
  Instance serial_instance = seed;
  ChaseResult serial = RunChase(&serial_instance, deps, config);
  EXPECT_EQ(serial.status, pooled.status);
  EXPECT_EQ(serial.hom_nodes, pooled.hom_nodes);
  EXPECT_EQ(serial_instance.ToString(), pooled_instance.ToString());
}

}  // namespace
}  // namespace tdlib
