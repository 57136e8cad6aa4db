// Tests for Dependency: construction, classification (full/embedded,
// TD/EID, trivial), renaming, rendering, and the shared immutable
// representation behind cheap copies.
#include "core/dependency.h"

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/parser.h"

namespace tdlib {
namespace {

SchemaPtr GarmentSchema() { return MakeSchema({"SUPPLIER", "STYLE", "SIZE"}); }

// The paper's Fig. 1 dependency:
//   R(a,b,c) & R(a,b',c') => R(a*, b, c').
Dependency Fig1() {
  Result<Dependency> d = ParseDependency(
      GarmentSchema(), "R(a,b,c) & R(a,b2,c2) => R(a9,b,c2)");
  EXPECT_TRUE(d.ok()) << d.error();
  return std::move(d).value();
}

TEST(Dependency, BuilderRejectsEmptyBodyOrHead) {
  {
    Dependency::Builder b(GarmentSchema());
    b.AddHeadRow({b.Var(0), b.Var(1), b.Var(2)});
    EXPECT_FALSE(std::move(b).Build().ok());
  }
  {
    Dependency::Builder b(GarmentSchema());
    b.AddBodyRow({b.Var(0), b.Var(1), b.Var(2)});
    EXPECT_FALSE(std::move(b).Build().ok());
  }
}

TEST(Dependency, Fig1IsEmbeddedTd) {
  Dependency d = Fig1();
  EXPECT_TRUE(d.IsTd());
  EXPECT_FALSE(d.IsFull());  // a* is existential
  EXPECT_FALSE(d.IsTrivial());
  EXPECT_EQ(d.CheckInvariants(), "");
}

TEST(Dependency, FullWhenConclusionVarsAppearInBody) {
  Result<Dependency> d = ParseDependency(
      GarmentSchema(), "R(a,b,c) & R(a,b2,c2) => R(a,b,c2)");
  ASSERT_TRUE(d.ok());
  EXPECT_TRUE(d.value().IsFull());
}

TEST(Dependency, UniversalityFollowsBodyOccurrence) {
  Dependency d = Fig1();
  // Variable a (attr 0, id 0) occurs in the body; a9 (the existential) not.
  EXPECT_TRUE(d.IsUniversal(0, 0));
  bool some_existential = false;
  for (int v = 0; v < d.head().NumVars(0); ++v) {
    some_existential = some_existential || !d.IsUniversal(0, v);
  }
  EXPECT_TRUE(some_existential);
}

TEST(Dependency, TrivialWhenConclusionIsAnAntecedent) {
  Result<Dependency> d =
      ParseDependency(GarmentSchema(), "R(a,b,c) & R(a,b2,c2) => R(a,b,c)");
  ASSERT_TRUE(d.ok());
  EXPECT_TRUE(d.value().IsTrivial());
}

TEST(Dependency, TrivialWithExistentialCollapse) {
  // R(a,b,c) => R(a, b*, c): b* existential can map onto b.
  Result<Dependency> d =
      ParseDependency(GarmentSchema(), "R(a,b,c) => R(a,b9,c)");
  ASSERT_TRUE(d.ok());
  EXPECT_TRUE(d.value().IsTrivial());
}

TEST(Dependency, EidWithConjunctiveConclusion) {
  // The EID example from the paper:
  //   R(a,b,c) & R(a,b',c') => R(a*,b,c) & R(a*,b,c').
  Result<Dependency> d = ParseDependency(
      GarmentSchema(),
      "R(a,b,c) & R(a,b2,c2) => R(a9,b,c) & R(a9,b,c2)");
  ASSERT_TRUE(d.ok()) << d.error();
  EXPECT_FALSE(d.value().IsTd());
  EXPECT_EQ(d.value().head().num_rows(), 2);
  // The shared existential a* makes this NOT expressible as two separate
  // TDs; it is also non-trivial.
  EXPECT_FALSE(d.value().IsTrivial());
}

TEST(Dependency, RenameVariablesPreservesStructure) {
  Dependency d = Fig1();
  Dependency renamed = d.RenameVariables("_copy");
  EXPECT_EQ(renamed.CheckInvariants(), "");
  EXPECT_EQ(renamed.body().num_rows(), d.body().num_rows());
  EXPECT_EQ(renamed.head().num_rows(), d.head().num_rows());
  EXPECT_TRUE(renamed.IsTd());
  EXPECT_FALSE(renamed.IsFull());
  EXPECT_NE(renamed.ToString(), d.ToString());  // names differ
}

TEST(Dependency, ToStringRoundTripsThroughParser) {
  Dependency d = Fig1();
  Result<Dependency> reparsed =
      ParseDependency(GarmentSchema(), d.ToString());
  ASSERT_TRUE(reparsed.ok()) << reparsed.error();
  EXPECT_EQ(reparsed.value().ToString(), d.ToString());
}

TEST(DependencySet, NamesTravelWithItems) {
  DependencySet set;
  set.Add(Fig1(), "fig1");
  EXPECT_EQ(set.items.size(), 1u);
  EXPECT_NE(set.ToString().find("fig1:"), std::string::npos);
}

// ---- Shared representation -------------------------------------------------

TEST(DependencySharing, CopyAliasesTheSourceStorage) {
  const Dependency a = Fig1();
  const Dependency b = a;
  EXPECT_EQ(&a.body(), &b.body());
  EXPECT_EQ(&a.head(), &b.head());
  EXPECT_EQ(&a.schema(), &b.schema());
}

TEST(DependencySharing, CopyOutlivesItsSource) {
  auto source = std::make_unique<Dependency>(Fig1());
  const std::string rendered = source->ToString();
  const Dependency copy = *source;
  source.reset();  // the copy alone keeps the representation alive
  EXPECT_EQ(copy.ToString(), rendered);
  EXPECT_EQ(copy.CheckInvariants(), "");
  EXPECT_TRUE(copy.IsTd());
  EXPECT_FALSE(copy.IsFull());
  EXPECT_FALSE(copy.IsTrivial());
  EXPECT_TRUE(copy.IsUniversal(0, 0));
}

TEST(DependencySharing, ConcurrentCopiesOfOneSetAreRaceFree) {
  DependencySet set;
  set.Add(Fig1(), "fig1");
  set.Add(Fig1().RenameVariables("_r"), "renamed");
  constexpr int kThreads = 4;
  constexpr int kCopies = 10000;
  std::vector<long> rows(kThreads, 0);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&set, &rows, t] {
      for (int i = 0; i < kCopies; ++i) {
        const DependencySet copy = set;
        for (const Dependency& dep : copy.items) {
          rows[t] += dep.body().num_rows() + dep.head().num_rows();
        }
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  for (int t = 0; t < kThreads; ++t) EXPECT_EQ(rows[t], 6L * kCopies);
  EXPECT_EQ(set.items[0].ToString(), Fig1().ToString());
}

}  // namespace
}  // namespace tdlib
