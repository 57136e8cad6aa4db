// Tests for dependency satisfaction (model checking) over finite instances.
#include "core/satisfaction.h"

#include <gtest/gtest.h>

#include <vector>

#include "core/generators.h"
#include "core/parser.h"
#include "util/rng.h"

namespace tdlib {
namespace {

SchemaPtr Abc() { return MakeSchema({"A", "B", "C"}); }

Dependency Parse(const SchemaPtr& schema, const std::string& text) {
  Result<Dependency> d = ParseDependency(schema, text);
  EXPECT_TRUE(d.ok()) << d.error();
  return std::move(d).value();
}

TEST(Satisfaction, EmptyInstanceSatisfiesEverything) {
  SchemaPtr schema = Abc();
  Instance empty(schema);
  Dependency d = Parse(schema, "R(a,b,c) & R(a,b2,c2) => R(a9,b,c2)");
  SatisfactionResult r = CheckSatisfaction(d, empty);
  EXPECT_EQ(r.verdict, Satisfaction::kSatisfied);
  EXPECT_EQ(r.body_matches, 0u);
}

TEST(Satisfaction, ViolationProducesCounterexampleValuation) {
  SchemaPtr schema = Abc();
  Instance db(schema);
  for (int i = 0; i < 2; ++i) db.AddValue(0);
  for (int i = 0; i < 2; ++i) db.AddValue(1);
  for (int i = 0; i < 2; ++i) db.AddValue(2);
  db.AddTuple({0, 0, 0});
  db.AddTuple({0, 1, 1});
  Dependency d = Parse(schema, "R(a,b,c) & R(a,b2,c2) => R(a9,b,c2)");
  SatisfactionResult r = CheckSatisfaction(d, db);
  ASSERT_EQ(r.verdict, Satisfaction::kViolated);
  ASSERT_TRUE(r.counterexample.has_value());
  // The violating match binds body variables to actual domain values.
  EXPECT_GE(r.body_matches, 1u);
}

TEST(Satisfaction, EidNeedsSharedExistentialWitness) {
  // EID: R(a,b,c) & R(a,b',c') => R(a*,b,c) & R(a*,b,c') — ONE supplier a*
  // must cover both conclusions.
  SchemaPtr schema = Abc();
  Dependency eid =
      Parse(schema, "R(a,b,c) & R(a,b2,c2) => R(a9,b,c) & R(a9,b,c2)");
  Instance db(schema);
  for (int i = 0; i < 3; ++i) db.AddValue(0);
  for (int i = 0; i < 2; ++i) db.AddValue(1);
  for (int i = 0; i < 2; ++i) db.AddValue(2);
  // Supplier 0 supplies (b0,c0) and (b1,c1); supplier 1 covers (b0,c1) and
  // supplier 2 covers (b1,c0) — the two "split" witnesses that satisfy each
  // TD half of the EID separately.
  db.AddTuple({0, 0, 0});
  db.AddTuple({0, 1, 1});
  db.AddTuple({1, 0, 1});
  db.AddTuple({2, 1, 0});
  // No single supplier covers style b0 in both sizes (nor b1): EID violated.
  EXPECT_EQ(CheckSatisfaction(eid, db).verdict, Satisfaction::kViolated);
  // Completing BOTH witnesses (one per body-match orientation) satisfies it.
  db.AddTuple({1, 0, 0});
  db.AddTuple({2, 1, 1});
  EXPECT_EQ(CheckSatisfaction(eid, db).verdict, Satisfaction::kSatisfied);
}

TEST(Satisfaction, TdWeakerThanEid) {
  // Splitting the EID above into two TDs is strictly weaker: the split
  // witnesses database satisfies both TDs but not the EID.
  SchemaPtr schema = Abc();
  Dependency td1 = Parse(schema, "R(a,b,c) & R(a,b2,c2) => R(a9,b,c)");
  Dependency td2 = Parse(schema, "R(a,b,c) & R(a,b2,c2) => R(a9,b,c2)");
  Dependency eid =
      Parse(schema, "R(a,b,c) & R(a,b2,c2) => R(a9,b,c) & R(a9,b,c2)");
  Instance db(schema);
  for (int i = 0; i < 3; ++i) db.AddValue(0);
  for (int i = 0; i < 2; ++i) db.AddValue(1);
  for (int i = 0; i < 2; ++i) db.AddValue(2);
  db.AddTuple({0, 0, 0});
  db.AddTuple({0, 1, 1});
  db.AddTuple({1, 0, 1});
  db.AddTuple({2, 1, 0});
  EXPECT_TRUE(Satisfies(db, td1));
  EXPECT_TRUE(Satisfies(db, td2));
  EXPECT_FALSE(Satisfies(db, eid));
}

TEST(Satisfaction, FullTdOnConcreteJoin) {
  SchemaPtr schema = Abc();
  // Join dependency-ish: R(a,b,c) & R(a,b2,c2) => R(a,b,c2).
  Dependency d = Parse(schema, "R(a,b,c) & R(a,b2,c2) => R(a,b,c2)");
  Instance db(schema);
  for (int i = 0; i < 1; ++i) db.AddValue(0);
  for (int i = 0; i < 2; ++i) db.AddValue(1);
  for (int i = 0; i < 2; ++i) db.AddValue(2);
  db.AddTuple({0, 0, 0});
  db.AddTuple({0, 1, 1});
  EXPECT_FALSE(Satisfies(db, d));  // (0, b0, c1) missing
  db.AddTuple({0, 0, 1});
  EXPECT_FALSE(Satisfies(db, d));  // (0, b1, c0) still missing
  db.AddTuple({0, 1, 0});
  EXPECT_TRUE(Satisfies(db, d));
}

TEST(Satisfaction, FirstViolatedReportsIndex) {
  SchemaPtr schema = Abc();
  DependencySet set;
  set.Add(Parse(schema, "R(a,b,c) => R(a,b,c)"), "trivial");
  set.Add(Parse(schema, "R(a,b,c) & R(a,b2,c2) => R(a,b,c2)"), "join");
  Instance db(schema);
  db.AddValue(0);
  for (int i = 0; i < 2; ++i) db.AddValue(1);
  for (int i = 0; i < 2; ++i) db.AddValue(2);
  db.AddTuple({0, 0, 0});
  db.AddTuple({0, 1, 1});
  EXPECT_EQ(FirstViolated(set, db), 1);
  db.AddTuple({0, 0, 1});
  db.AddTuple({0, 1, 0});
  EXPECT_EQ(FirstViolated(set, db), -1);
}

TEST(Satisfaction, BudgetYieldsUnknown) {
  SchemaPtr schema = Abc();
  Dependency d = Parse(schema, "R(a,b,c) & R(a2,b2,c2) => R(a,b,c2)");
  Instance db(schema);
  for (int i = 0; i < 4; ++i) db.AddValue(0);
  for (int i = 0; i < 4; ++i) db.AddValue(1);
  for (int i = 0; i < 4; ++i) db.AddValue(2);
  for (int i = 0; i < 4; ++i) db.AddTuple({i, i, i});
  HomSearchOptions options;
  options.max_nodes = 1;
  SatisfactionResult r = CheckSatisfaction(d, db, options);
  EXPECT_EQ(r.verdict, Satisfaction::kUnknown);
  EXPECT_FALSE(r.counterexample.has_value());
}

// ---- HeadChecker vs the general head search ---------------------------------
//
// The reference is the general path every head check once took: a
// HomomorphismSearch over the head, seeded with HeadSeedValuation, asked
// for any extension. HeadChecker must give the same answer AND the same
// counters, because hom_nodes/hom_candidates feed DeterministicSummary and
// cached verdicts.

struct HeadCheck {
  bool witnessed;
  HomSearchStats stats;
};

HeadCheck Reference(const Dependency& dep, const Instance& instance,
                    const Valuation& h, const HomSearchOptions& options) {
  HomomorphismSearch search(dep.head(), instance, options);
  search.SetInitial(HeadSeedValuation(dep, h));
  const bool found = search.FindAny(nullptr) == HomSearchStatus::kFound;
  return {found, search.stats()};
}

HeadCheck Checked(const Dependency& dep, const Instance& instance,
                  const Valuation& h, const HomSearchOptions& options) {
  HeadCheck out{false, {}};
  out.witnessed = HeadChecker(dep, instance, options).Witnessed(h, &out.stats);
  return out;
}

// Compares one check; returns the checker's answer for coverage tallies.
bool ExpectAgree(const Dependency& dep, const Instance& instance,
                 const Valuation& h, const HomSearchOptions& options) {
  const HeadCheck want = Reference(dep, instance, h, options);
  const HeadCheck got = Checked(dep, instance, h, options);
  EXPECT_EQ(got.witnessed, want.witnessed) << dep.ToString();
  EXPECT_EQ(got.stats.nodes, want.stats.nodes) << dep.ToString();
  EXPECT_EQ(got.stats.candidates, want.stats.candidates) << dep.ToString();
  EXPECT_EQ(got.stats.budget_hit, want.stats.budget_hit) << dep.ToString();
  return got.witnessed;
}

std::vector<Valuation> BodyMatches(const Dependency& dep,
                                   const Instance& instance) {
  std::vector<Valuation> matches;
  HomomorphismSearch body(dep.body(), instance);
  body.ForEach([&](const Valuation& h) {
    matches.push_back(h);
    return true;
  });
  return matches;
}

// Checks every body match of `dep` in `instance` under max_nodes 0, 1, 2.
int ExpectAllMatchesAgree(const Dependency& dep, const Instance& instance) {
  int witnessed = 0;
  for (const Valuation& h : BodyMatches(dep, instance)) {
    for (std::uint64_t max_nodes : {0, 1, 2}) {
      HomSearchOptions options;
      options.max_nodes = max_nodes;
      witnessed += ExpectAgree(dep, instance, h, options) ? 1 : 0;
    }
  }
  return witnessed;
}

Instance Grid(const SchemaPtr& schema, int domain) {
  Instance db(schema);
  for (int attr = 0; attr < schema->arity(); ++attr) {
    for (int v = 0; v < domain; ++v) db.AddValue(attr);
  }
  return db;
}

TEST(HeadChecker, MatchesGeneralSearchOnRandomTds) {
  int checks = 0;
  int witnessed = 0;
  int unwitnessed = 0;
  for (std::uint64_t seed = 1; seed <= 300; ++seed) {
    Rng rng(seed);
    TdGeneratorOptions gen;
    gen.arity = rng.IntIn(2, 4);
    gen.body_rows = rng.IntIn(1, 3);
    gen.force_full = rng.Chance(1, 4);
    Dependency dep = RandomDependency(&rng, gen);
    const int domain = rng.IntIn(1, 3);
    Instance db =
        RandomInstance(&rng, dep.schema_ptr(), domain, rng.IntIn(0, 14));
    std::vector<Valuation> matches = BodyMatches(dep, db);
    // Fire-time checks see tuples appended after the match was found, many
    // of them still in the index tails.
    for (int extra = rng.IntIn(0, 4); extra > 0; --extra) {
      Tuple t(static_cast<std::size_t>(gen.arity));
      for (int& value : t) value = static_cast<int>(rng.Below(domain));
      db.AddTuple(t);
    }
    for (const Valuation& h : matches) {
      HomSearchOptions options;
      options.max_nodes = rng.Below(3);
      const bool w = ExpectAgree(dep, db, h, options);
      ++checks;
      witnessed += w ? 1 : 0;
      unwitnessed += w ? 0 : 1;
    }
  }
  EXPECT_GT(checks, 1000);
  EXPECT_GT(witnessed, 100);
  EXPECT_GT(unwitnessed, 100);
}

TEST(HeadChecker, EmptyInstance) {
  SchemaPtr schema = Abc();
  Dependency d = Parse(schema, "R(a,b,c) & R(a,b2,c2) => R(a9,b,c2)");
  Instance empty = Grid(schema, 2);
  Valuation h = Valuation::Identity(d.body());
  for (int attr = 0; attr < h.arity(); ++attr) {
    for (int var = 0; var < h.NumVars(attr); ++var) h.Set(attr, var, 1);
  }
  for (std::uint64_t max_nodes : {0, 1}) {
    HomSearchOptions options;
    options.max_nodes = max_nodes;
    EXPECT_FALSE(ExpectAgree(d, empty, h, options));
    EXPECT_EQ(Checked(d, empty, h, options).stats.nodes, 1u);
    EXPECT_EQ(Checked(d, empty, h, options).stats.candidates, 0u);
  }
}

TEST(HeadChecker, AllExistentialHead) {
  // Nothing is bound: the first tuple witnesses every match.
  SchemaPtr schema = Abc();
  Dependency d = Parse(schema, "R(a,b,c) => R(a9,b9,c9)");
  ASSERT_TRUE(d.HeadRowUniversals().empty());
  Instance db = Grid(schema, 2);
  db.AddTuple({1, 0, 1});
  db.AddTuple({0, 1, 0});
  EXPECT_EQ(ExpectAllMatchesAgree(d, db), 2 * 2);  // max_nodes 0 and 2
  HomSearchOptions options;
  const HeadCheck got = Checked(d, db, Valuation::Identity(d.body()), options);
  EXPECT_TRUE(got.witnessed);
  EXPECT_EQ(got.stats.nodes, 2u);
  EXPECT_EQ(got.stats.candidates, 1u);
}

TEST(HeadChecker, FullTdHead) {
  SchemaPtr schema = Abc();
  Dependency d = Parse(schema, "R(a,b,c) & R(a,b2,c2) => R(a,b,c2)");
  ASSERT_TRUE(d.IsFull());
  Instance db = Grid(schema, 2);
  db.AddTuple({0, 0, 0});
  db.AddTuple({0, 1, 1});
  db.AddTuple({1, 0, 1});
  db.AddTuple({0, 0, 1});
  const int witnessed = ExpectAllMatchesAgree(d, db);
  EXPECT_GT(witnessed, 0);
  EXPECT_LT(witnessed, 2 * static_cast<int>(BodyMatches(d, db).size()));
}

TEST(HeadChecker, NodeBudgetOfOneStopsAtTheMatch) {
  SchemaPtr schema = Abc();
  Dependency d = Parse(schema, "R(a,b,c) => R(a,b,c9)");
  Instance db = Grid(schema, 2);
  db.AddTuple({0, 0, 0});
  db.AddTuple({1, 1, 1});
  HomSearchOptions options;
  options.max_nodes = 1;
  // A match exists, but the backtracker's second node is over budget.
  Valuation h = Valuation::FromColumns({{1}, {1}, {1}});
  const HeadCheck got = Checked(d, db, h, options);
  EXPECT_FALSE(got.witnessed);
  EXPECT_TRUE(got.stats.budget_hit);
  EXPECT_EQ(got.stats.nodes, 1u);
  EXPECT_EQ(got.stats.candidates, 1u);
  ExpectAgree(d, db, h, options);
  // No match: the scan completes inside the budget.
  h = Valuation::FromColumns({{0}, {1}, {0}});
  EXPECT_FALSE(Checked(d, db, h, options).stats.budget_hit);
  ExpectAgree(d, db, h, options);
}

TEST(HeadChecker, EqualPostingListsTieToTheLowestAttribute) {
  SchemaPtr schema = Abc();
  Dependency d = Parse(schema, "R(a,b,c) => R(a,b,c9)");
  Instance db = Grid(schema, 2);
  db.AddTuple({0, 1, 0});  // id 0: A=0
  db.AddTuple({1, 1, 0});  // id 1
  db.AddTuple({0, 0, 0});  // id 2: A=0, B=0 — the witness
  db.AddTuple({1, 0, 0});  // id 3: B=0
  ASSERT_EQ(db.CountWith(0, 0), db.CountWith(1, 0));
  const Valuation h = Valuation::FromColumns({{0}, {0}, {1}});
  // A's list {0, 2} finds the witness second; B's list {2, 3} would find
  // it first.
  const HeadCheck got = Checked(d, db, h, HomSearchOptions{});
  EXPECT_TRUE(got.witnessed);
  EXPECT_EQ(got.stats.candidates, 2u);
  ExpectAgree(d, db, h, HomSearchOptions{});
  // The tie goes to the lowest attribute whatever order the key lists.
  HomSearchStats stats;
  EXPECT_EQ(ProbeRow(db, {{1, 0}, {0, 0}}, 0, &stats), 2);
  EXPECT_EQ(stats.candidates, 2u);
}

TEST(HeadChecker, WitnessOnlyInTheIndexTail) {
  SchemaPtr schema = Abc();
  Dependency d = Parse(schema, "R(a,b,c) & R(a,b2,c2) => R(a9,b,c2)");
  Instance db = Grid(schema, 3);
  for (int i = 0; i < 3; ++i) db.AddTuple({i, i, i});
  db.AddTuple({0, 1, 2});
  db.CompactIndex();
  const std::vector<Valuation> matches = BodyMatches(d, db);
  // Witnesses appended after the rebuild sit in the tails, not the CSR base.
  db.AddTuple({2, 0, 2});
  db.AddTuple({1, 1, 0});
  ASSERT_TRUE(db.TuplesWith(1, 0).tail().size() == 1);
  ASSERT_TRUE(db.TuplesWith(2, 2).tail().size() == 1);
  int witnessed = 0;
  for (const Valuation& h : matches) {
    witnessed += ExpectAgree(d, db, h, HomSearchOptions{}) ? 1 : 0;
  }
  EXPECT_GT(witnessed, 0);
  // (b, c2) = (0, 2) is witnessed only by the tail tuple id 4.
  const Valuation h = Valuation::FromColumns({{0}, {0, 1}, {0, 2}});
  EXPECT_TRUE(ExpectAgree(d, db, h, HomSearchOptions{}));
  HomSearchStats stats;
  EXPECT_EQ(ProbeRow(db, {{1, 0}, {2, 2}}, 0, &stats), 4);
}

TEST(HeadChecker, MultiRowHeadsKeepTheGeneralSearch) {
  SchemaPtr schema = Abc();
  Dependency eid =
      Parse(schema, "R(a,b,c) & R(a,b2,c2) => R(a9,b,c) & R(a9,b,c2)");
  Instance db = Grid(schema, 3);
  db.AddTuple({0, 0, 0});
  db.AddTuple({0, 1, 1});
  db.AddTuple({1, 0, 1});
  db.AddTuple({2, 1, 0});
  db.AddTuple({1, 0, 0});
  const int witnessed = ExpectAllMatchesAgree(eid, db);
  EXPECT_GT(witnessed, 0);
}

}  // namespace
}  // namespace tdlib
