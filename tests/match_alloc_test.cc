// Allocation guards for the hot paths: once a search object is warm, a
// further ForEach over the same instance must not touch the allocator —
// not per search-tree node, not per candidate, not per visited match — and
// fingerprinting a built job must not touch it at all.
//
// This binary replaces the global operator new with a counting one, which
// is why it is a test executable of its own.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <functional>
#include <new>
#include <vector>

#include "cache/canonical.h"
#include "chase/chase.h"
#include "core/satisfaction.h"
#include "engine/workload.h"
#include "logic/homomorphism.h"

namespace {
std::atomic<long> g_allocations{0};
}  // namespace

// Out of line: inlined into a new-expression or a delete, the malloc() and
// free() calls draw GCC's -Wmismatched-new-delete.
[[gnu::noinline]] void* operator new(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) { return ::operator new(size); }
[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { ::operator delete(p); }
void operator delete(void* p, std::size_t) noexcept { ::operator delete(p); }
void operator delete[](void* p, std::size_t) noexcept { ::operator delete(p); }

namespace tdlib {
namespace {

// A gap-regime reduction job chased for 300 steps: the instance its body
// searches match against.
struct Fixture {
  Job job;
  Instance instance;
};

Fixture ChasedGap() {
  WorkloadOptions options;
  options.size = 12;
  Job job = ReductionSweepWorkload(options)[2];
  EXPECT_EQ(job.name, "gap/pad0");
  Instance instance = job.goal.body().Freeze();
  ChaseConfig config;
  config.max_steps = 300;
  EXPECT_EQ(RunChase(&instance, job.dependencies, config).status,
            ChaseStatus::kStepLimit);
  return Fixture{std::move(job), std::move(instance)};
}

// Runs `search` twice with a visitor that head-checks every match, as the
// chase's match tasks do, and returns the allocations of the second run.
// Also reports the second run's nodes and matches.
long SecondRunAllocations(HomomorphismSearch* search, HeadChecker* head,
                          std::uint64_t* nodes, std::uint64_t* matches) {
  HomSearchStats head_stats;
  std::uint64_t visited = 0;
  const std::function<bool(const Valuation&)> visit =
      [&](const Valuation& h) {
        ++visited;
        head->Witnessed(h, &head_stats);
        return true;
      };
  search->ForEach(visit);
  visited = 0;
  const long before = g_allocations.load();
  search->ForEach(visit);
  const long allocations = g_allocations.load() - before;
  *nodes = search->stats().nodes;
  *matches = visited;
  return allocations;
}

TEST(MatchAllocations, AWarmBodySearchAllocatesNothing) {
  const Fixture f = ChasedGap();
  std::uint64_t total_nodes = 0;
  std::uint64_t total_matches = 0;
  for (const Dependency& dep : f.job.dependencies.items) {
    HomomorphismSearch search(dep.body(), f.instance);
    HeadChecker head(dep, f.instance, HomSearchOptions{});
    std::uint64_t nodes = 0;
    std::uint64_t matches = 0;
    EXPECT_EQ(SecondRunAllocations(&search, &head, &nodes, &matches), 0)
        << dep.ToString();
    total_nodes += nodes;
    total_matches += matches;
  }
  // The guard means something only over a real search.
  EXPECT_GT(total_nodes, 10000u);
  EXPECT_GT(total_matches, 1000u);
}

TEST(MatchAllocations, DeltaPartitionAndPinnedSearchesAllocateNothing) {
  const Fixture f = ChasedGap();
  const int half = static_cast<int>(f.instance.NumTuples() / 2);
  std::uint64_t total_nodes = 0;
  for (const Dependency& dep : f.job.dependencies.items) {
    HeadChecker head(dep, f.instance, HomSearchOptions{});
    for (int seed_row = -1; seed_row < dep.body().num_rows(); ++seed_row) {
      HomSearchOptions options;
      options.delta_begin = half;
      options.delta_seed_row = seed_row;
      options.id_cap = static_cast<int>(f.instance.NumTuples());
      HomomorphismSearch search(dep.body(), f.instance, options);
      std::uint64_t nodes = 0;
      std::uint64_t matches = 0;
      EXPECT_EQ(SecondRunAllocations(&search, &head, &nodes, &matches), 0)
          << dep.ToString() << " seed row " << seed_row;
      total_nodes += nodes;
    }
    // A pin re-splits the positions on SetInitial, in place.
    HomomorphismSearch pinned(dep.body(), f.instance);
    Valuation pin = Valuation::For(dep.body());
    pin.Set(0, dep.body().row(0)[0], 0);
    pinned.SetInitial(pin);
    std::uint64_t nodes = 0;
    std::uint64_t matches = 0;
    pinned.ForEach([](const Valuation&) { return true; });
    const long before = g_allocations.load();
    pinned.SetInitial(pin);
    const long set_initial = g_allocations.load() - before;
    EXPECT_EQ(set_initial, 0) << dep.ToString();
    EXPECT_EQ(SecondRunAllocations(&pinned, &head, &nodes, &matches), 0)
        << dep.ToString() << " pinned";
  }
  EXPECT_GT(total_nodes, 1000u);
}

// Allocations made by `f()`.
template <typename F>
long AllocationsOf(F f) {
  const long before = g_allocations.load();
  f();
  return g_allocations.load() - before;
}

TEST(MatchAllocations, SetUpCostsDoNotGrowWithTheTableau) {
  // What a match task pays once: building a search, copying a match into a
  // pending step, reading the head key positions. None of it may scale
  // with the arity (6-22 in the reduction) or the number of body rows.
  const Fixture f = ChasedGap();
  for (const Dependency& dep : f.job.dependencies.items) {
    ASSERT_GE(dep.schema().arity(), 6);
    EXPECT_LE(AllocationsOf([&] {
                HomomorphismSearch search(dep.body(), f.instance);
              }),
              7)
        << dep.ToString();
    const Valuation identity = Valuation::Identity(dep.body());
    EXPECT_EQ(AllocationsOf([&] { Valuation copy = identity; }), 1);
    EXPECT_EQ(AllocationsOf([&] { (void)dep.HeadRowUniversals().size(); }),
              0);
    Valuation seed;
    HeadSeedValuationInto(dep, identity, &seed);
    EXPECT_EQ(AllocationsOf([&] {
                HeadSeedValuationInto(dep, identity, &seed);
              }),
              0);
  }
}

TEST(FingerprintAllocations, FingerprintOfABuiltJobAllocatesNothing) {
  // Build walked the rows once: fingerprinting reads each dependency's
  // digest only, so not even the first call on a thread allocates.
  WorkloadOptions sweep;
  sweep.size = 6;
  for (const Job& job : ReductionSweepWorkload(sweep)) {
    CacheFingerprint fp;
    EXPECT_EQ(AllocationsOf([&] {
                fp = FingerprintProblem(job.dependencies, job.goal,
                                        job.config);
              }),
              0)
        << job.name;
    EXPECT_TRUE(fp.valid);
  }
}

}  // namespace
}  // namespace tdlib
