// Tests for the canonical-form result cache: fingerprint invariance and
// sensitivity (src/cache/canonical.h), the sharded LRU (result_cache.h),
// the persistent store (store.h), and the SolverService integration —
// byte-identical hits, in-flight dedup, last-waiter cancellation, and the
// exactly-once outcome accounting of cache-served completions.
#include "cache/canonical.h"

#include <gtest/gtest.h>

#include <chrono>
#include <map>
#include <numeric>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "cache/fingerprint.h"
#include "cache/result_cache.h"
#include "cache/store.h"
#include "core/generators.h"
#include "engine/batch_solver.h"
#include "engine/service.h"
#include "engine/workload.h"
#include "fuzz/fuzz.h"
#include "logic/schema.h"
#include "reduction/reduction.h"
#include "semigroup/normalizer.h"
#include "semigroup/presentation.h"
#include "util/metrics.h"
#include "util/rng.h"

namespace tdlib {
namespace {

// A small deterministic solver config with no wall-clock deadlines
// (cacheable by construction).
DualSolverConfig SmallConfig() {
  DualSolverConfig config;
  config.rounds = 1;
  config.base_chase.max_steps = 500;
  config.base_chase.max_tuples = 100000;
  config.base_counterexample.max_tuples = 2;
  config.base_counterexample.max_candidates = 50000;
  return config;
}

// Builds R(x,s) & R(y,t) => R(x,t) over `schema` with the variables
// registered in the given order; `swap` registers them reversed and maps
// the row ids accordingly, producing a variable-renamed isomorph.
Dependency MakeDep(const SchemaPtr& schema, bool swap) {
  Dependency::Builder b(schema);
  int x, y, s, t;
  if (!swap) {
    x = b.Var(0, "x"); y = b.Var(0, "y");
    s = b.Var(1, "s"); t = b.Var(1, "t");
  } else {
    y = b.Var(0, "v0"); x = b.Var(0, "v1");
    t = b.Var(1, "w0"); s = b.Var(1, "w1");
  }
  b.AddBodyRow({x, s});
  b.AddBodyRow({y, t});
  b.AddHeadRow({x, t});
  return std::move(b).Build().value();
}

// One-premise problem around MakeDep; the goal is the same shape.
void MakeProblem(const SchemaPtr& schema, bool swap, DependencySet* d,
                 Dependency* d0) {
  d->Add(MakeDep(schema, swap), "premise");
  *d0 = MakeDep(schema, swap);
}

// The pumping job from service_test.cc: "A A0 = A0" makes the chase feed
// itself forever under unbounded budgets — only cancellation stops it.
// With a step budget it terminates deterministically instead.
Job MakePumpingJob(const std::string& name, std::uint64_t max_steps) {
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
  config.base_chase.max_steps = max_steps;  // 0 = pump forever
  config.base_chase.max_tuples = 0;
  config.base_counterexample.max_tuples = 0;
  return Job{name, red.value().dependencies(), red.value().goal(), config, 0};
}

// Strips the leading "name|" of a DeterministicSummary so isomorphic jobs
// with different names can be compared field-for-field.
std::string SummarySansName(const JobResult& result) {
  const std::string summary = result.DeterministicSummary();
  return summary.substr(summary.find('|'));
}

// ---- Canonicalizer ---------------------------------------------------------

TEST(Canonical, FingerprintInvariantUnderVariableRenaming) {
  SchemaPtr schema = MakeSchema({"A", "B"});
  DependencySet d1, d2;
  Dependency g1 = MakeDep(schema, false), g2 = MakeDep(schema, true);
  MakeProblem(schema, false, &d1, &g1);
  MakeProblem(schema, true, &d2, &g2);

  const DualSolverConfig config = SmallConfig();
  EXPECT_EQ(CanonicalProblemText(d1, g1, config),
            CanonicalProblemText(d2, g2, config));
  EXPECT_EQ(FingerprintProblem(d1, g1, config),
            FingerprintProblem(d2, g2, config));
  EXPECT_TRUE(FingerprintProblem(d1, g1, config).valid);
}

TEST(Canonical, FingerprintInvariantUnderAttributeRenaming) {
  DependencySet d1, d2;
  Dependency g1 = MakeDep(MakeSchema({"A", "B"}), false);
  Dependency g2 = MakeDep(MakeSchema({"X", "Y"}), false);
  MakeProblem(MakeSchema({"A", "B"}), false, &d1, &g1);
  MakeProblem(MakeSchema({"X", "Y"}), false, &d2, &g2);
  EXPECT_EQ(FingerprintProblem(d1, g1, SmallConfig()),
            FingerprintProblem(d2, g2, SmallConfig()));
}

TEST(Canonical, FingerprintIgnoresDependencyAndJobNames) {
  SchemaPtr schema = MakeSchema({"A", "B"});
  DependencySet d1, d2;
  d1.Add(MakeDep(schema, false), "alpha");
  d2.Add(MakeDep(schema, false), "completely-different-name");
  Dependency goal = MakeDep(schema, false);
  EXPECT_EQ(FingerprintProblem(d1, goal, SmallConfig()),
            FingerprintProblem(d2, goal, SmallConfig()));
}

TEST(Canonical, FingerprintSensitiveToStructureAndBudgets) {
  SchemaPtr schema = MakeSchema({"A", "B"});
  DependencySet d;
  Dependency goal = MakeDep(schema, false);
  MakeProblem(schema, false, &d, &goal);

  // Structure: a second premise changes the problem.
  DependencySet bigger = d;
  bigger.Add(MakeDep(schema, false), "again");
  EXPECT_NE(FingerprintProblem(d, goal, SmallConfig()),
            FingerprintProblem(bigger, goal, SmallConfig()));

  // Budgets steer the deterministic counters, so they are part of the key.
  DualSolverConfig more_rounds = SmallConfig();
  more_rounds.rounds = 3;
  DualSolverConfig more_steps = SmallConfig();
  more_steps.base_chase.max_steps = 501;
  EXPECT_NE(FingerprintProblem(d, goal, SmallConfig()),
            FingerprintProblem(d, goal, more_rounds));
  EXPECT_NE(FingerprintProblem(d, goal, SmallConfig()),
            FingerprintProblem(d, goal, more_steps));
}

TEST(Canonical, WallClockDeadlinesAreNotCacheable) {
  SchemaPtr schema = MakeSchema({"A", "B"});
  DependencySet d;
  Dependency goal = MakeDep(schema, false);
  MakeProblem(schema, false, &d, &goal);
  DualSolverConfig with_deadline = SmallConfig();
  with_deadline.base_chase.deadline_seconds = 1.0;
  EXPECT_FALSE(CacheableConfig(with_deadline));
  EXPECT_FALSE(FingerprintProblem(d, goal, with_deadline).valid);
  EXPECT_TRUE(CacheableConfig(SmallConfig()));
}

TEST(Canonical, FuzzGeneratorCasesHaveDistinctFingerprints) {
  FuzzOptions options;
  options.cases_per_round = 6;
  std::set<std::string> seen;
  for (std::uint64_t round = 0; round < 2; ++round) {
    for (const Job& job : GenerateFuzzCases(options, round)) {
      CacheFingerprint fp =
          FingerprintProblem(job.dependencies, job.goal, job.config);
      ASSERT_TRUE(fp.valid);
      EXPECT_TRUE(seen.insert(fp.ToHex()).second)
          << "fingerprint collision on " << job.name;
    }
  }
}

// ---- Fingerprint vs canonical text ----------------------------------------

// One (D, D0, config) triple of the property test below.
struct ProblemCase {
  std::string label;
  DependencySet d;
  Dependency d0;
  DualSolverConfig config;
};

// Rebuilds `dep` over `schema` with the given body and head rows (in `dep`'s
// variable ids), keeping its variable space; `new_id[attr][v]` renumbers
// the ids and `tag` prefixes fresh display names.
Dependency Rebuild(const Dependency& dep, const SchemaPtr& schema,
                   const std::vector<std::vector<int>>& new_id,
                   const std::vector<Row>& body, const std::vector<Row>& head,
                   const std::string& tag) {
  const int arity = dep.schema().arity();
  Dependency::Builder b(schema);
  for (int attr = 0; attr < arity; ++attr) {
    for (int v = 0; v < dep.body().NumVars(attr); ++v) {
      b.Var(attr, tag + std::to_string(attr) + "_" + std::to_string(v));
    }
  }
  auto map_row = [&](const Row& row) {
    Row out(row.size());
    for (int attr = 0; attr < arity; ++attr) {
      out[attr] = new_id[attr][row[attr]];
    }
    return out;
  };
  for (const Row& row : body) b.AddBodyRow(map_row(row));
  for (const Row& row : head) b.AddHeadRow(map_row(row));
  return std::move(b).Build().value();
}

std::vector<std::vector<int>> IdentityIds(const Dependency& dep) {
  std::vector<std::vector<int>> ids(dep.schema().arity());
  for (int attr = 0; attr < dep.schema().arity(); ++attr) {
    ids[attr].resize(dep.body().NumVars(attr));
    std::iota(ids[attr].begin(), ids[attr].end(), 0);
  }
  return ids;
}

// A fresh schema of `arity` attributes named Z0, Z1, ...
SchemaPtr RenamedSchema(int arity) {
  std::vector<std::string> attrs;
  for (int a = 0; a < arity; ++a) attrs.push_back("Z" + std::to_string(a));
  return MakeSchema(attrs);
}

// An isomorphic copy of `dep` over `schema`: fresh variable names and the
// variable ids permuted per attribute.
Dependency RenamedDependency(const Dependency& dep, const SchemaPtr& schema,
                             Rng* rng) {
  std::vector<std::vector<int>> ids = IdentityIds(dep);
  for (std::vector<int>& perm : ids) {
    for (std::size_t k = perm.size(); k > 1; --k) {
      std::swap(perm[k - 1], perm[rng->Below(k)]);
    }
  }
  return Rebuild(dep, schema, ids, dep.body().rows(), dep.head().rows(), "r");
}

// An isomorphic copy: fresh attribute, variable and dependency names, and
// each dependency's variable ids permuted per attribute.
ProblemCase RenamedCopy(const ProblemCase& source, Rng* rng) {
  const SchemaPtr schema = RenamedSchema(source.d0.schema().arity());
  ProblemCase copy{source.label + "/renamed", {},
                   RenamedDependency(source.d0, schema, rng), source.config};
  for (const Dependency& dep : source.d.items) {
    copy.d.Add(RenamedDependency(dep, schema, rng), "renamed");
  }
  return copy;
}

// Joins body rows 0 and 1 of the first dependency that has two distinct
// ones, on the first attribute where they differ: a non-isomorphic change,
// since row 1's variable there loses its own first-occurrence label.
ProblemCase WithOneRowChanged(const ProblemCase& source) {
  ProblemCase changed = source;
  changed.label += "/row-changed";
  for (Dependency& dep : changed.d.items) {
    if (dep.body().num_rows() < 2) continue;
    std::vector<Row> body = dep.body().rows();
    for (int attr = 0; attr < dep.schema().arity(); ++attr) {
      if (body[0][attr] == body[1][attr]) continue;
      body[0][attr] = body[1][attr];
      dep = Rebuild(dep, dep.schema_ptr(), IdentityIds(dep), body,
                    dep.head().rows(), "c");
      return changed;
    }
  }
  return changed;
}

// The thirteen config fields of the canonical form, each changed alone.
std::vector<DualSolverConfig> ConfigFlips(const DualSolverConfig& base) {
  std::vector<DualSolverConfig> flips(13, base);
  flips[0].rounds += 1;
  flips[1].resume_chase = !base.resume_chase;
  flips[2].base_chase.max_steps += 1;
  flips[3].base_chase.max_tuples += 1;
  flips[4].base_chase.hom_max_nodes += 1;
  flips[5].base_chase.record_trace = !base.base_chase.record_trace;
  flips[6].base_chase.eager_goal_check = !base.base_chase.eager_goal_check;
  flips[7].base_chase.use_delta = !base.base_chase.use_delta;
  flips[8].base_chase.max_fires_per_pass += 1;
  flips[9].base_chase.auto_burst = !base.base_chase.auto_burst;
  flips[10].base_chase.match_slice_ids += 1;
  flips[11].base_counterexample.max_tuples += 1;
  flips[12].base_counterexample.max_candidates += 1;
  return flips;
}

std::vector<ProblemCase> PropertySources() {
  std::vector<ProblemCase> sources;
  Rng rng(20240517);
  for (int i = 0; i < 8; ++i) {
    TdGeneratorOptions options;
    options.arity = 3 + i % 2;
    options.body_rows = 2 + i % 3;
    SchemaPtr schema = MakeSchema(options.arity == 3
                                      ? std::vector<std::string>{"A", "B", "C"}
                                      : std::vector<std::string>{"A", "B", "C",
                                                                 "D"});
    ProblemCase c{"random-" + std::to_string(i), {},
                  RandomDependency(&rng, options, schema), SmallConfig()};
    for (int k = 0; k < 3; ++k) {
      c.d.Add(RandomDependency(&rng, options, schema), "td");
    }
    sources.push_back(std::move(c));
  }
  WorkloadOptions sweep;
  sweep.size = 6;
  for (const Job& job : ReductionSweepWorkload(sweep)) {
    sources.push_back(
        ProblemCase{job.name, job.dependencies, job.goal, job.config});
  }
  return sources;
}

TEST(Canonical, FingerprintEqualityMatchesCanonicalTextEquality) {
  std::vector<ProblemCase> cases;
  std::size_t distinct = 0;  // cases that must differ from all others
  Rng rng(7);
  for (const ProblemCase& source : PropertySources()) {
    cases.push_back(source);
    ++distinct;
    const ProblemCase renamed = RenamedCopy(source, &rng);
    EXPECT_EQ(CanonicalProblemText(renamed.d, renamed.d0, renamed.config),
              CanonicalProblemText(source.d, source.d0, source.config))
        << source.label;
    cases.push_back(renamed);

    const ProblemCase changed = WithOneRowChanged(source);
    EXPECT_NE(CanonicalProblemText(changed.d, changed.d0, changed.config),
              CanonicalProblemText(source.d, source.d0, source.config))
        << source.label;
    cases.push_back(changed);
    ++distinct;

    // Swap the first two premises that are not isomorphic on their own.
    const std::vector<Dependency>& items = source.d.items;
    auto alone = [&](const Dependency& dep) {
      DependencySet one;
      one.Add(dep);
      return CanonicalProblemText(one, source.d0, source.config);
    };
    for (std::size_t j = 1; j < items.size(); ++j) {
      if (alone(items[0]) == alone(items[j])) continue;
      ProblemCase swapped = source;
      swapped.label += "/swapped";
      std::swap(swapped.d.items[0], swapped.d.items[j]);
      EXPECT_NE(CanonicalProblemText(swapped.d, swapped.d0, swapped.config),
                CanonicalProblemText(source.d, source.d0, source.config))
          << source.label;
      cases.push_back(std::move(swapped));
      ++distinct;
      break;
    }

    int field = 0;
    for (const DualSolverConfig& flipped : ConfigFlips(source.config)) {
      ProblemCase c = source;
      c.label += "/config-" + std::to_string(field++);
      c.config = flipped;
      EXPECT_NE(CanonicalProblemText(c.d, c.d0, c.config),
                CanonicalProblemText(source.d, source.d0, source.config))
          << c.label;
      cases.push_back(std::move(c));
      ++distinct;
    }
  }

  // Equality of one side implies equality of the other, over every pair:
  // each text maps to one fingerprint and each fingerprint to one text.
  std::map<std::string, std::string> fp_of_text;
  std::map<std::string, std::string> text_of_fp;
  for (const ProblemCase& c : cases) {
    const std::string text = CanonicalProblemText(c.d, c.d0, c.config);
    const CacheFingerprint fp = FingerprintProblem(c.d, c.d0, c.config);
    ASSERT_TRUE(fp.valid) << c.label;
    const auto by_text = fp_of_text.emplace(text, fp.ToHex());
    EXPECT_EQ(by_text.first->second, fp.ToHex())
        << c.label << ": equal texts, different fingerprints";
    const auto by_fp = text_of_fp.emplace(fp.ToHex(), text);
    EXPECT_EQ(by_fp.first->second, text)
        << c.label << ": equal fingerprints, different texts";
  }
  // Every variant but the renamed copies is a problem of its own.
  EXPECT_EQ(fp_of_text.size(), distinct);
  EXPECT_EQ(text_of_fp.size(), distinct);
}

std::string DigestHex(const Dependency& dep) {
  CacheFingerprint fp;
  fp.hi = dep.CanonicalDigest().hi;
  fp.lo = dep.CanonicalDigest().lo;
  fp.valid = true;
  return fp.ToHex();
}

TEST(Canonical, DigestEqualityMatchesDependencyTextEquality) {
  // Every dependency of the fuzz generator's cases, each beside a copy with
  // renamed variables and one with renamed attributes and permuted ids.
  FuzzOptions options;
  options.cases_per_round = 6;
  Rng rng(11);
  std::vector<Dependency> deps;
  for (std::uint64_t round = 0; round < 10; ++round) {
    for (const Job& job : GenerateFuzzCases(options, round)) {
      std::vector<Dependency> sources = job.dependencies.items;
      sources.push_back(job.goal);
      const SchemaPtr schema = RenamedSchema(job.goal.schema().arity());
      for (const Dependency& dep : sources) {
        const Dependency renamed = dep.RenameVariables("_v");
        const Dependency permuted = RenamedDependency(dep, schema, &rng);
        EXPECT_EQ(DigestHex(renamed), DigestHex(dep)) << dep.ToString();
        EXPECT_EQ(DigestHex(permuted), DigestHex(dep)) << dep.ToString();
        deps.push_back(dep);
        deps.push_back(renamed);
        deps.push_back(permuted);
      }
    }
  }
  // Each text maps to one digest and each digest to one text.
  std::map<std::string, std::string> digest_of_text;
  std::map<std::string, std::string> text_of_digest;
  for (const Dependency& dep : deps) {
    const std::string text = CanonicalDependencyText(dep);
    const std::string digest = DigestHex(dep);
    const auto by_text = digest_of_text.emplace(text, digest);
    EXPECT_EQ(by_text.first->second, digest)
        << dep.ToString() << ": equal texts, different digests";
    const auto by_digest = text_of_digest.emplace(digest, text);
    EXPECT_EQ(by_digest.first->second, text)
        << dep.ToString() << ": equal digests, different texts";
  }
  EXPECT_GE(digest_of_text.size(), 100u);
  EXPECT_EQ(digest_of_text.size(), text_of_digest.size());
}

TEST(Canonical, FingerprintSeesPremiseOrderButNotRenamedMembers) {
  WorkloadOptions sweep;
  sweep.size = 6;
  const Job job = ReductionSweepWorkload(sweep)[0];
  const CacheFingerprint fp =
      FingerprintProblem(job.dependencies, job.goal, job.config);
  const std::vector<Dependency>& items = job.dependencies.items;

  // Swapping D's first member with one that is not a renaming of it.
  std::size_t other = 1;
  while (other < items.size() &&
         DigestHex(items[other]) == DigestHex(items[0])) {
    ++other;
  }
  ASSERT_LT(other, items.size());
  DependencySet swapped = job.dependencies;
  std::swap(swapped.items[0], swapped.items[other]);
  EXPECT_NE(FingerprintProblem(swapped, job.goal, job.config), fp);

  // Replacing every member (and the goal) with a renamed copy.
  Rng rng(5);
  const SchemaPtr schema = RenamedSchema(job.goal.schema().arity());
  DependencySet renamed = job.dependencies;
  for (std::size_t i = 0; i < renamed.items.size(); ++i) {
    renamed.items[i] = i % 2 == 0
                           ? renamed.items[i].RenameVariables("_copy")
                           : RenamedDependency(renamed.items[i], schema, &rng);
  }
  EXPECT_EQ(FingerprintProblem(renamed, job.goal.RenameVariables("_copy"),
                               job.config),
            fp);
}

TEST(Canonical, FingerprintLowBitsSpreadOverFuzzCases) {
  // ResultCache shards and CacheFingerprintHash buckets are taken from the
  // low bits of fp.lo, so those alone must separate distinct problems.
  FuzzOptions options;
  options.cases_per_round = 6;
  std::set<std::string> texts;
  std::set<std::uint64_t> low_bits;
  for (std::uint64_t round = 0; round < 40; ++round) {
    for (const Job& job : GenerateFuzzCases(options, round)) {
      const std::string text =
          CanonicalProblemText(job.dependencies, job.goal, job.config);
      if (!texts.insert(text).second) continue;  // same problem again
      low_bits.insert(
          FingerprintProblem(job.dependencies, job.goal, job.config).lo &
          0xffffffu);
    }
  }
  ASSERT_GE(texts.size(), 100u);
  EXPECT_GE(static_cast<double>(low_bits.size()),
            0.99 * static_cast<double>(texts.size()));
}

// ---- LRU -------------------------------------------------------------------

CacheFingerprint Fp(std::uint64_t n) {
  CacheFingerprint fp;
  fp.hi = n;
  fp.lo = ~n;
  fp.valid = true;
  return fp;
}

CachedVerdict Verdict(int rounds) {
  CachedVerdict v;
  v.verdict = DualVerdict::kImplied;
  v.rounds_used = rounds;
  return v;
}

TEST(ResultCacheLru, EvictsOldestWhenOverTheByteBudget) {
  CacheOptions options;
  options.shards = 1;  // deterministic recency order
  options.max_bytes = 3 * ResultCache::kEntryCost;
  ResultCache cache(options);

  cache.Insert(Fp(1), Verdict(1));
  cache.Insert(Fp(2), Verdict(2));
  cache.Insert(Fp(3), Verdict(3));
  CacheStats stats = cache.Stats();
  EXPECT_EQ(stats.entries, 3);
  EXPECT_EQ(stats.bytes, 3 * ResultCache::kEntryCost);
  EXPECT_EQ(stats.evictions, 0);

  // A lookup refreshes recency: 1 becomes MRU, so inserting 4 evicts 2.
  CachedVerdict out;
  ASSERT_TRUE(cache.Lookup(Fp(1), &out));
  EXPECT_EQ(out.rounds_used, 1);
  cache.Insert(Fp(4), Verdict(4));

  stats = cache.Stats();
  EXPECT_EQ(stats.entries, 3);
  EXPECT_EQ(stats.evictions, 1);
  EXPECT_TRUE(cache.Lookup(Fp(1), &out));
  EXPECT_FALSE(cache.Lookup(Fp(2), &out));
  EXPECT_TRUE(cache.Lookup(Fp(3), &out));
  EXPECT_TRUE(cache.Lookup(Fp(4), &out));
}

TEST(ResultCacheLru, ReinsertRefreshesInsteadOfDuplicating) {
  CacheOptions options;
  options.shards = 1;
  options.max_bytes = 8 * ResultCache::kEntryCost;
  ResultCache cache(options);
  cache.Insert(Fp(1), Verdict(1));
  cache.Insert(Fp(1), Verdict(1));
  CacheStats stats = cache.Stats();
  EXPECT_EQ(stats.entries, 1);
  EXPECT_EQ(stats.bytes, ResultCache::kEntryCost);
}

TEST(ResultCacheLru, InvalidFingerprintsAreNeverStored) {
  ResultCache cache;
  CacheFingerprint invalid;  // valid == false
  cache.Insert(invalid, Verdict(1));
  CachedVerdict out;
  EXPECT_FALSE(cache.Lookup(invalid, &out));
  EXPECT_EQ(cache.Stats().entries, 0);
}

// ---- Persistent store ------------------------------------------------------

TEST(ResultCacheStore, SaveLoadRoundTripsEveryEntry) {
  CacheOptions options;
  options.shards = 1;
  ResultCache cache(options);
  CachedVerdict v = Verdict(2);
  v.verdict = DualVerdict::kRefutedFinite;
  v.chase_steps = 123;
  v.chase_passes = 7;
  v.hom_nodes = 4567;
  v.match_tasks = 89;
  v.carried_passes = 1;
  v.candidates_checked = 42;
  cache.Insert(Fp(10), v);
  cache.Insert(Fp(11), Verdict(1));

  std::stringstream stream;
  SaveResultCache(stream, cache);

  ResultCache reloaded(options);
  Result<int> loaded = LoadResultCache(stream, &reloaded);
  ASSERT_TRUE(loaded.ok()) << loaded.error();
  EXPECT_EQ(loaded.value(), 2);

  CachedVerdict out;
  ASSERT_TRUE(reloaded.Lookup(Fp(10), &out));
  EXPECT_EQ(out.verdict, DualVerdict::kRefutedFinite);
  EXPECT_EQ(out.rounds_used, 2);
  EXPECT_EQ(out.chase_steps, 123u);
  EXPECT_EQ(out.chase_passes, 7u);
  EXPECT_EQ(out.hom_nodes, 4567u);
  EXPECT_EQ(out.match_tasks, 89u);
  EXPECT_EQ(out.carried_passes, 1u);
  EXPECT_EQ(out.candidates_checked, 42u);
  ASSERT_TRUE(reloaded.Lookup(Fp(11), &out));
}

TEST(ResultCacheStore, RejectsDamageWithTypedCorruptErrors) {
  ResultCache scratch;
  const auto load = [&scratch](const std::string& text) {
    std::istringstream in(text);
    return LoadResultCache(in, &scratch);
  };

  Result<int> bad_magic = load("not-a-cache 1\n0\nend\n");
  ASSERT_FALSE(bad_magic.ok());
  EXPECT_EQ(bad_magic.code(), ErrorCode::kCorrupt);

  Result<int> bad_version = load("tdlib-result-cache 9\n0\nend\n");
  ASSERT_FALSE(bad_version.ok());
  EXPECT_EQ(bad_version.code(), ErrorCode::kCorrupt);

  Result<int> absurd_count = load("tdlib-result-cache 5\n99999999999\nend\n");
  ASSERT_FALSE(absurd_count.ok());
  EXPECT_EQ(absurd_count.code(), ErrorCode::kCorrupt);

  Result<int> bad_verdict = load(
      "tdlib-result-cache 5\n1\n"
      "00000000000000aa 00000000000000bb 7 1 2 3 4 5 6 7\nend\n");
  ASSERT_FALSE(bad_verdict.ok());
  EXPECT_EQ(bad_verdict.code(), ErrorCode::kCorrupt);

  Result<int> truncated = load("tdlib-result-cache 5\n2\n"
                               "00000000000000aa 00000000000000bb 0 1 2 3 4 5 6 7\n");
  ASSERT_FALSE(truncated.ok());
  EXPECT_EQ(truncated.code(), ErrorCode::kCorrupt);

  Result<int> trailing = load("tdlib-result-cache 5\n0\nend\ngarbage\n");
  ASSERT_FALSE(trailing.ok());
  EXPECT_EQ(trailing.code(), ErrorCode::kCorrupt);

  Result<int> missing = LoadResultCacheFile("/nonexistent/tdlib.cache",
                                            &scratch);
  ASSERT_FALSE(missing.ok());
  EXPECT_EQ(missing.code(), ErrorCode::kNotFound);
}

TEST(ResultCacheStore, RefusesOlderVersionFiles) {
  // Version-1 files were keyed by an earlier fingerprint function,
  // version-2 entries carry the hom_nodes of the chase before it matched
  // passes in dependency waves, version-3 entries those of the chase before
  // it kept one pending step per head key, and version-4 files are keyed by
  // the fingerprint that hashed every row instead of each dependency's
  // digest: each would serve what no solve computes now, or hold keys no
  // fingerprint reaches, so they are refused whole (tdbatch then starts
  // cold) instead of loaded.
  for (const char* version : {"1", "2", "3", "4"}) {
    ResultCache cache;
    std::istringstream in(std::string("tdlib-result-cache ") + version +
                          "\n1\n"
                          "00000000000000aa 00000000000000bb 0 1 2 3 4 5 6 7"
                          "\nend\n");
    Result<int> loaded = LoadResultCache(in, &cache);
    ASSERT_FALSE(loaded.ok()) << version;
    EXPECT_EQ(loaded.code(), ErrorCode::kCorrupt);
    EXPECT_NE(loaded.error().find("unsupported version"), std::string::npos)
        << loaded.error();
    EXPECT_EQ(cache.Stats().entries, 0);
  }

  ResultCache empty;
  std::stringstream saved;
  SaveResultCache(saved, empty);
  EXPECT_EQ(saved.str().rfind("tdlib-result-cache 5\n", 0), 0u);
}

// ---- Service integration ---------------------------------------------------

TEST(ServiceCache, WarmSubmitsAreByteIdenticalHits) {
  WorkloadOptions options;
  options.size = 6;
  std::vector<Job> jobs = ReductionSweepWorkload(options);
  BatchSummary serial = RunSerial(jobs);

  ServiceOptions service_options;
  service_options.num_threads = 2;
  service_options.result_cache = std::make_shared<ResultCache>();
  SolverService service(service_options);

  for (std::size_t i = 0; i < jobs.size(); ++i) {
    JobResult cold = service.Submit(jobs[i]).Wait();
    EXPECT_EQ(cold.DeterministicSummary(),
              serial.results[i].DeterministicSummary());
  }
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    JobResult warm = service.Submit(jobs[i]).Wait();
    EXPECT_EQ(warm.DeterministicSummary(),
              serial.results[i].DeterministicSummary());
    EXPECT_EQ(warm.cache_source, CacheSource::kHit);
    EXPECT_EQ(warm.status, JobStatus::kCompleted);
  }
  const CacheStats stats = service_options.result_cache->Stats();
  EXPECT_EQ(stats.hits, static_cast<std::int64_t>(jobs.size()));
  EXPECT_EQ(stats.misses, static_cast<std::int64_t>(jobs.size()));
}

TEST(ServiceCache, IsomorphicJobWithDifferentNameHits) {
  WorkloadOptions options;
  options.size = 1;
  std::vector<Job> jobs = ReductionSweepWorkload(options);
  ServiceOptions service_options;
  service_options.num_threads = 1;
  service_options.result_cache = std::make_shared<ResultCache>();
  SolverService service(service_options);

  JobResult first = service.Submit(jobs[0]).Wait();
  Job renamed = jobs[0];
  renamed.name = "same-problem-different-name";
  JobResult second = service.Submit(renamed).Wait();
  EXPECT_EQ(second.cache_source, CacheSource::kHit);
  EXPECT_EQ(second.name, renamed.name);
  EXPECT_EQ(SummarySansName(second), SummarySansName(first));
}

TEST(ServiceCache, ByteIdentityAcrossThreadCountsWithCacheOnAndOff) {
  WorkloadOptions options;
  options.size = 6;
  std::vector<Job> jobs = ReductionSweepWorkload(options);
  BatchSummary serial = RunSerial(jobs);

  for (int threads : {1, 2, 4, 8}) {
    for (bool cache_on : {false, true}) {
      ServiceOptions service_options;
      service_options.num_threads = threads;
      if (cache_on) {
        service_options.result_cache = std::make_shared<ResultCache>();
      }
      SolverService service(service_options);
      std::vector<JobHandle> handles;
      for (const Job& job : jobs) handles.push_back(service.Submit(job));
      for (std::size_t i = 0; i < handles.size(); ++i) {
        EXPECT_EQ(handles[i].Wait().DeterministicSummary(),
                  serial.results[i].DeterministicSummary())
            << "threads=" << threads << " cache=" << cache_on;
      }
    }
  }
}

TEST(ServiceCache, DeadlineSubmissionsBypassTheCache) {
  WorkloadOptions options;
  options.size = 1;
  std::vector<Job> jobs = ReductionSweepWorkload(options);
  ServiceOptions service_options;
  service_options.num_threads = 1;
  service_options.result_cache = std::make_shared<ResultCache>();
  SolverService service(service_options);

  SubmitOptions submit;
  submit.deadline_seconds = 60;  // generous: the job itself is fast
  JobResult r = service.Submit(jobs[0], submit).Wait();
  EXPECT_EQ(r.cache_source, CacheSource::kNone);
  EXPECT_EQ(service_options.result_cache->Stats().entries, 0);
}

TEST(ServiceCache, InFlightDedupOneChaseLastWaiterCancels) {
  // A single worker pinned by an unbounded pumping job keeps every later
  // submission queued, which makes the coalescing sequence deterministic.
  ServiceOptions service_options;
  service_options.num_threads = 1;
  service_options.result_cache = std::make_shared<ResultCache>();
  SolverService service(service_options);

  JobHandle blocker = service.Submit(MakePumpingJob("blocker", 0));
  std::this_thread::sleep_for(std::chrono::milliseconds(50));

  Job bounded = MakePumpingJob("bounded-a", 400);
  Job bounded_iso = MakePumpingJob("bounded-b", 400);
  JobHandle a = service.Submit(bounded);
  JobHandle b = service.Submit(bounded_iso);

  // Every submission probes the cache first, so the blocker, a, and b each
  // count one probe miss; the dedup shows up as b ATTACHING instead of
  // creating a second runner.
  CacheStats stats = service_options.result_cache->Stats();
  EXPECT_EQ(stats.misses, 3);
  EXPECT_EQ(stats.coalesced, 1);  // the isomorph attached to a's runner
  EXPECT_EQ(stats.insertions, 0);  // nothing has completed yet

  // Cancelling ONE waiter terminates that submission only — the shared run
  // survives for the other.
  EXPECT_TRUE(a.Cancel());
  EXPECT_EQ(a.Wait().status, JobStatus::kCancelled);
  EXPECT_FALSE(b.Poll().has_value());

  // Free the worker; the surviving waiter completes with the same bytes a
  // fresh serial solve of the SAME problem produces.
  EXPECT_TRUE(blocker.Cancel());
  JobResult via_dedup = b.Wait();
  EXPECT_EQ(via_dedup.status, JobStatus::kCompleted);
  EXPECT_EQ(via_dedup.cache_source, CacheSource::kCoalesced);
  EXPECT_EQ(SummarySansName(via_dedup), SummarySansName(RunJob(bounded)));
  EXPECT_EQ(service_options.result_cache->Stats().insertions, 1);
}

TEST(ServiceCache, CancellingEveryWaiterCancelsTheSharedRun) {
  ServiceOptions service_options;
  service_options.num_threads = 1;
  service_options.result_cache = std::make_shared<ResultCache>();
  SolverService service(service_options);

  JobHandle blocker = service.Submit(MakePumpingJob("blocker", 0));
  std::this_thread::sleep_for(std::chrono::milliseconds(50));

  JobHandle a = service.Submit(MakePumpingJob("bounded-a", 400));
  JobHandle b = service.Submit(MakePumpingJob("bounded-b", 400));
  EXPECT_TRUE(a.Cancel());
  EXPECT_TRUE(b.Cancel());
  EXPECT_EQ(a.Wait().status, JobStatus::kCancelled);
  EXPECT_EQ(b.Wait().status, JobStatus::kCancelled);

  EXPECT_TRUE(blocker.Cancel());
  service.WaitIdle();
  // The audience-less run was cancelled before a worker ever picked it up,
  // so nothing was solved and nothing was cached.
  EXPECT_EQ(service_options.result_cache->Stats().entries, 0);

  // A fresh isomorphic submission therefore misses and runs for real.
  JobResult fresh = service.Submit(MakePumpingJob("bounded-c", 400)).Wait();
  EXPECT_EQ(fresh.status, JobStatus::kCompleted);
  EXPECT_EQ(fresh.cache_source, CacheSource::kMiss);
  // Four probe misses (blocker, a, b, c) and exactly one insertion: only
  // the fresh re-run ever completed a chase.
  EXPECT_EQ(service_options.result_cache->Stats().misses, 4);
  EXPECT_EQ(service_options.result_cache->Stats().insertions, 1);
}

TEST(ServiceCache, ConcurrentIsomorphicSubmissionsSolveOnce) {
  // Race-tolerant form (also the TSan exercise): N isomorphic submissions
  // in quick succession must produce ONE solve — every result equal, each
  // submission a miss, a hit, or a coalesced attach.
  ServiceOptions service_options;
  service_options.num_threads = 4;
  service_options.result_cache = std::make_shared<ResultCache>();
  SolverService service(service_options);

  constexpr int kCopies = 8;
  std::vector<JobHandle> handles;
  for (int i = 0; i < kCopies; ++i) {
    handles.push_back(service.Submit(
        MakePumpingJob("iso-" + std::to_string(i), 400)));
  }
  std::vector<JobResult> results;
  for (JobHandle& handle : handles) results.push_back(handle.Wait());
  const std::string expected = SummarySansName(results[0]);
  for (const JobResult& r : results) {
    EXPECT_EQ(r.status, JobStatus::kCompleted);
    EXPECT_EQ(SummarySansName(r), expected);
    EXPECT_NE(r.cache_source, CacheSource::kNone);
  }
  // Probe accounting partitions the submissions: every probe either hits
  // or misses, and every probe miss either created a runner (whose
  // completion is an insertion) or attached to one. Timing decides the
  // hit/coalesce split, never the totals.
  const CacheStats stats = service_options.result_cache->Stats();
  EXPECT_EQ(stats.hits + stats.misses, kCopies);
  EXPECT_EQ(stats.misses, stats.insertions + stats.coalesced);
  EXPECT_GE(stats.insertions, 1);
}

TEST(ServiceCache, DedupOffStillFillsAndServesTheCache) {
  ServiceOptions service_options;
  service_options.num_threads = 2;
  service_options.result_cache = std::make_shared<ResultCache>();
  service_options.cache_inflight_dedup = false;
  SolverService service(service_options);

  JobResult cold = service.Submit(MakePumpingJob("first", 400)).Wait();
  EXPECT_EQ(cold.cache_source, CacheSource::kMiss);
  JobResult warm = service.Submit(MakePumpingJob("second", 400)).Wait();
  EXPECT_EQ(warm.cache_source, CacheSource::kHit);
  EXPECT_EQ(SummarySansName(warm), SummarySansName(cold));
  EXPECT_EQ(service_options.result_cache->Stats().coalesced, 0);
}

TEST(ServiceCache, ResumeAfterHitRunsFreshWithoutPoisoningTheCache) {
  Job small = MakePumpingJob("resumable", 400);
  ServiceOptions service_options;
  service_options.num_threads = 1;
  service_options.result_cache = std::make_shared<ResultCache>();
  SolverService service(service_options);

  JobResult miss = service.Submit(small).Wait();
  JobHandle hit = service.Submit(small);
  ASSERT_EQ(hit.Wait().cache_source, CacheSource::kHit);

  // Resuming the hit handle with a bigger budget re-solves for real and
  // matches a from-scratch run under that budget.
  DualSolverConfig bigger = small.config;
  bigger.base_chase.max_steps = 900;
  ASSERT_TRUE(hit.ResumeWithBudget(bigger));
  JobResult resumed = hit.Wait();
  EXPECT_EQ(resumed.cache_source, CacheSource::kNone);
  EXPECT_EQ(resumed.DeterministicSummary(),
            RunJob(small, bigger).DeterministicSummary());

  // The resumed run must not have overwritten the small-budget cache entry.
  JobResult warm_again = service.Submit(small).Wait();
  EXPECT_EQ(warm_again.cache_source, CacheSource::kHit);
  EXPECT_EQ(warm_again.DeterministicSummary(), miss.DeterministicSummary());
}

TEST(ServiceCache, OutcomeCountersCountEachLogicalSubmissionOnce) {
  SetMetricsEnabled(true);
  MetricsRegistry::Global().Reset();

  ServiceOptions service_options;
  service_options.num_threads = 2;
  service_options.result_cache = std::make_shared<ResultCache>();
  {
    SolverService service(service_options);
    constexpr int kCopies = 6;
    std::vector<JobHandle> handles;
    for (int i = 0; i < kCopies; ++i) {
      handles.push_back(service.Submit(
          MakePumpingJob("counted-" + std::to_string(i), 400)));
    }
    for (JobHandle& handle : handles) {
      EXPECT_EQ(handle.Wait().status, JobStatus::kCompleted);
    }
  }
  SetMetricsEnabled(false);

  MetricsSnapshot snapshot = MetricsRegistry::Global().Snapshot();
  // Six logical submissions, six completions — the internal dedup runner is
  // not a submission and must not inflate either side of the ledger.
  EXPECT_EQ(snapshot.counters["engine.jobs_submitted"], 6);
  EXPECT_EQ(snapshot.counters["engine.jobs_completed"], 6);
  EXPECT_EQ(snapshot.counters["engine.jobs_skipped"], 0);
  EXPECT_EQ(snapshot.counters["engine.jobs_cancelled"], 0);
  EXPECT_EQ(snapshot.gauges["engine.jobs_inflight"], 0);
  // The cache.* family is published alongside, with the probe-accounting
  // invariants (see ConcurrentIsomorphicSubmissionsSolveOnce).
  EXPECT_EQ(snapshot.counters["cache.hits"] + snapshot.counters["cache.misses"],
            6);
  EXPECT_EQ(snapshot.counters["cache.misses"],
            snapshot.counters["cache.insertions"] +
                snapshot.counters["cache.inflight_coalesced"]);
  EXPECT_GE(snapshot.counters["cache.insertions"], 1);
  MetricsRegistry::Global().Reset();
}

TEST(ServiceCache, WarmStartFromAStoreServesHitsAcrossServices) {
  Job job = MakePumpingJob("persisted", 400);
  std::stringstream stream;
  JobResult fresh;
  {
    ServiceOptions service_options;
    service_options.num_threads = 1;
    service_options.result_cache = std::make_shared<ResultCache>();
    SolverService service(service_options);
    fresh = service.Submit(job).Wait();
    SaveResultCache(stream, *service_options.result_cache);
  }

  auto reloaded = std::make_shared<ResultCache>();
  Result<int> loaded = LoadResultCache(stream, reloaded.get());
  ASSERT_TRUE(loaded.ok()) << loaded.error();
  ASSERT_EQ(loaded.value(), 1);

  ServiceOptions service_options;
  service_options.num_threads = 1;
  service_options.result_cache = reloaded;
  SolverService service(service_options);
  JobResult warm = service.Submit(job).Wait();
  EXPECT_EQ(warm.cache_source, CacheSource::kHit);
  EXPECT_EQ(warm.DeterministicSummary(), fresh.DeterministicSummary());
}

}  // namespace
}  // namespace tdlib
