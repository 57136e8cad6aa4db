// Naive-vs-delta cross-validation: the delta-driven chase must be a pure
// optimization. For every workload the two modes must produce byte-identical
// terminal instances, identical traces (same fires, same order, same new
// tuple ids) and identical statuses — while the delta mode explores at most
// as many homomorphism-search nodes.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "chase/chase.h"
#include "chase/dual_solver.h"
#include "chase/implication.h"
#include "core/generators.h"
#include "core/parser.h"
#include "engine/workload.h"
#include "util/rng.h"

namespace tdlib {
namespace {

ChaseConfig WithDelta(ChaseConfig config, bool use_delta) {
  config.use_delta = use_delta;
  config.record_trace = true;
  return config;
}

void ExpectSameTrace(const ChaseResult& naive, const ChaseResult& delta,
                     const std::string& label) {
  ASSERT_EQ(naive.trace.size(), delta.trace.size()) << label;
  for (std::size_t i = 0; i < naive.trace.size(); ++i) {
    EXPECT_EQ(naive.trace[i].dependency_index, delta.trace[i].dependency_index)
        << label << " step " << i;
    EXPECT_EQ(naive.trace[i].new_tuples, delta.trace[i].new_tuples)
        << label << " step " << i;
    EXPECT_TRUE(naive.trace[i].body_match == delta.trace[i].body_match)
        << label << " step " << i;
  }
}

// Chases `seed` under both modes and asserts byte-identical outcomes.
void CrossValidate(const Instance& seed, const DependencySet& deps,
                   const ChaseConfig& base, const std::string& label) {
  Instance naive_instance = seed;
  Instance delta_instance = seed;
  ChaseResult naive =
      RunChase(&naive_instance, deps, WithDelta(base, false));
  ChaseResult delta = RunChase(&delta_instance, deps, WithDelta(base, true));

  EXPECT_EQ(naive.status, delta.status) << label;
  EXPECT_EQ(naive.steps, delta.steps) << label;
  EXPECT_EQ(naive.passes, delta.passes) << label;
  ExpectSameTrace(naive, delta, label);
  EXPECT_EQ(naive_instance.ToString(), delta_instance.ToString()) << label;
  EXPECT_EQ(naive_instance.CheckInvariants(), "") << label;
  EXPECT_EQ(delta_instance.CheckInvariants(), "") << label;
  // The whole point: never MORE search work than naive.
  EXPECT_LE(delta.hom_nodes, naive.hom_nodes) << label;
}

// ---- Random TD workloads ----------------------------------------------------

class RandomTdDeltaCheck : public ::testing::TestWithParam<int> {};

TEST_P(RandomTdDeltaCheck, NaiveAndDeltaChaseAgreeByteForByte) {
  Rng rng(GetParam() * 6151);
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
  CrossValidate(seed, deps, config, "random seed " +
                                        std::to_string(GetParam()));

  // Same workload under a burst cap: unfired steps are carried over in
  // delta mode, re-discovered by the full scan in naive mode — the results
  // must still agree byte for byte.
  config.max_fires_per_pass = 3;
  CrossValidate(seed, deps, config, "random capped seed " +
                                        std::to_string(GetParam()));
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomTdDeltaCheck, ::testing::Range(1, 31));

// ---- Existential gadgets (labeled-null invention) ---------------------------

TEST(DeltaChaseTest, ExistentialGadgetsInventIdenticalNulls) {
  SchemaPtr schema = MakeSchema({"A", "B"});
  // Each fire invents nulls; byte-identity means the two modes must invent
  // them in exactly the same order with exactly the same auto-names.
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

TEST(DeltaChaseTest, CrossProductClosureIdenticalAndCheaper) {
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

  Instance naive_instance = seed;
  Instance delta_instance = seed;
  ChaseResult naive = RunChase(&naive_instance, deps, WithDelta(config, false));
  ChaseResult delta = RunChase(&delta_instance, deps, WithDelta(config, true));
  ASSERT_EQ(naive.status, ChaseStatus::kFixpoint);
  ASSERT_EQ(delta.status, ChaseStatus::kFixpoint);
  ExpectSameTrace(naive, delta, "cross-product");
  EXPECT_EQ(naive_instance.ToString(), delta_instance.ToString());
  // The closure stabilizes after few passes; the naive re-scan of the final
  // quadratic-size instance dwarfs the delta scans.
  EXPECT_LT(delta.hom_nodes, naive.hom_nodes);
}

// ---- Reduction sweep (the paper's gadget instances) -------------------------

class ReductionSweepDeltaCheck : public ::testing::TestWithParam<int> {};

TEST_P(ReductionSweepDeltaCheck, ImplicationAgreesOnSweepJobs) {
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
    ChaseConfig naive_config = base;
    naive_config.use_delta = false;
    naive_config.max_fires_per_pass = cap;
    ChaseConfig delta_config = base;
    delta_config.use_delta = true;
    delta_config.max_fires_per_pass = cap;

    ImplicationResult naive = ChaseImplies(job.dependencies, job.goal,
                                           naive_config);
    ImplicationResult delta = ChaseImplies(job.dependencies, job.goal,
                                           delta_config);

    std::string label = job.name + " cap=" + std::to_string(cap);
    EXPECT_EQ(naive.verdict, delta.verdict) << label;
    EXPECT_EQ(naive.chase.status, delta.chase.status) << label;
    EXPECT_EQ(naive.chase.steps, delta.chase.steps) << label;
    EXPECT_EQ(naive.chase.passes, delta.chase.passes) << label;
    ExpectSameTrace(naive.chase, delta.chase, label);
    ASSERT_EQ(naive.counterexample.has_value(),
              delta.counterexample.has_value())
        << label;
    if (naive.counterexample.has_value()) {
      EXPECT_EQ(naive.counterexample->ToString(),
                delta.counterexample->ToString())
          << label;
    }
    EXPECT_LE(delta.chase.hom_nodes, naive.chase.hom_nodes) << label;
  }
}

INSTANTIATE_TEST_SUITE_P(Jobs, ReductionSweepDeltaCheck,
                         ::testing::Range(0, 8));

// ---- The dual solver end to end ---------------------------------------------

TEST(DeltaChaseTest, DualSolverVerdictsUnchangedByMode) {
  WorkloadOptions options;
  options.size = 6;
  for (const Job& job : ReductionSweepWorkload(options)) {
    DualSolverConfig naive_config = job.config;
    naive_config.base_chase.use_delta = false;
    DualResult naive = SolveImplication(job.dependencies, job.goal,
                                        naive_config);
    DualResult delta = SolveImplication(job.dependencies, job.goal,
                                        job.config);
    EXPECT_EQ(naive.verdict, delta.verdict) << job.name;
    EXPECT_EQ(naive.rounds_used, delta.rounds_used) << job.name;
  }
}

}  // namespace
}  // namespace tdlib
