// Tests for the homomorphism search engine: enumeration, initial
// valuations, budgets, the id cap and tableau containment.
#include "logic/homomorphism.h"

#include <gtest/gtest.h>

#include <set>
#include <vector>

#include "util/rng.h"

namespace tdlib {
namespace {

// Schema {A, B}; instance with a small "join graph".
class HomTest : public ::testing::Test {
 protected:
  HomTest() : schema_(MakeSchema({"A", "B"})), inst_(schema_) {
    // Domain A: 0,1,2; Domain B: 0,1.
    for (int i = 0; i < 3; ++i) inst_.AddValue(0);
    for (int i = 0; i < 2; ++i) inst_.AddValue(1);
    inst_.AddTuple({0, 0});
    inst_.AddTuple({1, 0});
    inst_.AddTuple({1, 1});
    inst_.AddTuple({2, 1});
  }
  SchemaPtr schema_;
  Instance inst_;
};

TEST_F(HomTest, SingleRowMatchesAnyTuple) {
  Tableau t(schema_);
  t.AddRow({t.NewVariable(0), t.NewVariable(1)});
  int count = 0;
  HomomorphismSearch search(t, inst_);
  EXPECT_EQ(search.ForEach([&](const Valuation&) {
    ++count;
    return true;
  }),
            HomSearchStatus::kExhausted);
  EXPECT_EQ(count, 4);  // one hom per tuple
}

TEST_F(HomTest, JoinThroughSharedVariable) {
  // R(a, b) & R(a', b): pairs of tuples agreeing on B.
  Tableau t(schema_);
  int a = t.NewVariable(0);
  int a2 = t.NewVariable(0);
  int b = t.NewVariable(1);
  t.AddRow({a, b});
  t.AddRow({a2, b});
  int count = 0;
  HomomorphismSearch search(t, inst_);
  search.ForEach([&](const Valuation&) {
    ++count;
    return true;
  });
  // B=0 has 2 tuples -> 4 ordered pairs; B=1 has 2 tuples -> 4 pairs.
  EXPECT_EQ(count, 8);
}

TEST_F(HomTest, InitialValuationRestricts) {
  Tableau t(schema_);
  int a = t.NewVariable(0);
  int b = t.NewVariable(1);
  t.AddRow({a, b});
  Valuation initial = Valuation::For(t);
  initial.Set(0, a, 1);  // pin A-variable to value 1
  HomomorphismSearch search(t, inst_);
  search.SetInitial(initial);
  int count = 0;
  search.ForEach([&](const Valuation& v) {
    EXPECT_EQ(v.Get(0, a), 1);
    ++count;
    return true;
  });
  EXPECT_EQ(count, 2);  // tuples (1,0) and (1,1)
}

TEST_F(HomTest, UnsatisfiablePinExhausts) {
  Tableau t(schema_);
  int a = t.NewVariable(0);
  int b = t.NewVariable(1);
  t.AddRow({a, b});
  t.AddRow({a, b});  // same row twice is fine
  Valuation initial = Valuation::For(t);
  initial.Set(0, a, 0);
  initial.Set(1, b, 1);  // (0,1) is not a tuple
  HomomorphismSearch search(t, inst_);
  search.SetInitial(initial);
  EXPECT_EQ(search.FindAny(nullptr), HomSearchStatus::kExhausted);
}

TEST_F(HomTest, FindAnyStopsEarly) {
  Tableau t(schema_);
  t.AddRow({t.NewVariable(0), t.NewVariable(1)});
  Valuation found = Valuation::For(t);
  HomomorphismSearch search(t, inst_);
  EXPECT_EQ(search.FindAny(&found), HomSearchStatus::kFound);
  // The returned valuation maps the row onto an actual tuple.
  Tuple image{found.Get(0, t.row(0)[0]), found.Get(1, t.row(0)[1])};
  EXPECT_TRUE(inst_.Contains(image));
}

TEST_F(HomTest, BudgetIsReported) {
  Tableau t(schema_);
  for (int i = 0; i < 4; ++i) {
    t.AddRow({t.NewVariable(0), t.NewVariable(1)});
  }
  HomSearchOptions options;
  options.max_nodes = 2;
  HomomorphismSearch search(t, inst_);
  int count = 0;
  HomomorphismSearch budgeted(t, inst_, options);
  EXPECT_EQ(budgeted.ForEach([&](const Valuation&) {
    ++count;
    return true;
  }),
            HomSearchStatus::kBudget);
}

// Body images (tuple id per row) of every match `options` enumerates.
std::set<std::vector<int>> Images(const Tableau& t, const Instance& target,
                                  const HomSearchOptions& options) {
  std::set<std::vector<int>> images;
  HomomorphismSearch search(t, target, options);
  search.ForEach([&](const Valuation&) {
    EXPECT_TRUE(images.insert(search.row_tuples()).second);
    return true;
  });
  return images;
}

TEST(HomIdCap, SearchesTheInstanceBelowTheCap) {
  // A capped search over the whole instance must enumerate exactly what an
  // uncapped search enumerates over the instance's first `cap` tuples —
  // alone and combined with every member of a delta partition, which is
  // how the chase matches a pass while earlier waves keep inserting.
  SchemaPtr schema = MakeSchema({"A", "B", "C"});
  Tableau t(schema);
  int a = t.NewVariable(0), a2 = t.NewVariable(0);
  int b = t.NewVariable(1), b2 = t.NewVariable(1);
  int c = t.NewVariable(2);
  t.AddRow({a, b, c});
  t.AddRow({a2, b, t.NewVariable(2)});
  t.AddRow({a, b2, c});
  Rng rng(17);
  Instance full(schema);
  for (int attr = 0; attr < 3; ++attr) {
    for (int v = 0; v < 4; ++v) full.AddValue(attr);
  }
  for (int i = 0; i < 60; ++i) {
    full.AddTuple({static_cast<int>(rng.Below(4)),
                   static_cast<int>(rng.Below(4)),
                   static_cast<int>(rng.Below(4))});
  }
  for (int cap : {0, 1, 9, 30, static_cast<int>(full.NumTuples())}) {
    Instance prefix(schema);
    for (int attr = 0; attr < 3; ++attr) {
      for (int v = 0; v < 4; ++v) prefix.AddValue(attr);
    }
    for (int id = 0; id < cap; ++id) {
      const TupleRef tuple = full.tuple(id);
      prefix.AddTuple({tuple[0], tuple[1], tuple[2]});
    }
    HomSearchOptions capped;
    capped.id_cap = cap;
    EXPECT_EQ(Images(t, full, capped), Images(t, prefix, {})) << cap;
    const int delta_begin = cap / 2;
    for (int seed_row = -1; seed_row < t.num_rows(); ++seed_row) {
      HomSearchOptions windowed;
      windowed.delta_begin = delta_begin;
      windowed.delta_seed_row = seed_row;
      HomSearchOptions windowed_capped = windowed;
      windowed_capped.id_cap = cap;
      EXPECT_EQ(Images(t, full, windowed_capped),
                Images(t, prefix, windowed))
          << cap << " seed row " << seed_row;
    }
  }
}

TEST(MapsInto, TableauContainment) {
  SchemaPtr schema = MakeSchema({"A", "B"});
  // t1: R(a, b)  — maps into anything with a row.
  Tableau t1(schema);
  t1.AddRow({t1.NewVariable(0), t1.NewVariable(1)});
  // t2: R(a, b) & R(a, b') — two rows sharing A.
  Tableau t2(schema);
  int a = t2.NewVariable(0);
  t2.AddRow({a, t2.NewVariable(1)});
  t2.AddRow({a, t2.NewVariable(1)});
  EXPECT_EQ(MapsInto(t1, t2), HomSearchStatus::kFound);
  EXPECT_EQ(MapsInto(t2, t1), HomSearchStatus::kFound);  // collapse both rows
  // t3: two rows with DIFFERENT A-variables that must stay different? They
  // need not: homomorphisms may merge variables, so t3 -> t1 also succeeds.
  Tableau t3(schema);
  t3.AddRow({t3.NewVariable(0), t3.NewVariable(1)});
  t3.AddRow({t3.NewVariable(0), t3.NewVariable(1)});
  EXPECT_EQ(MapsInto(t3, t1), HomSearchStatus::kFound);
}

TEST(MapsInto, RespectsTyping) {
  // A tableau whose B-variable pattern cannot be realized: R(a,b) & R(a,b')
  // with b != b' CAN map by merging b and b' — homomorphisms are free to
  // merge. What cannot happen is mapping across attributes; the type system
  // makes that unrepresentable, which this test documents.
  SchemaPtr schema = MakeSchema({"A", "B"});
  Tableau from(schema);
  int a = from.NewVariable(0);
  from.AddRow({a, from.NewVariable(1)});
  Tableau to(schema);
  to.AddRow({to.NewVariable(0), to.NewVariable(1)});
  EXPECT_EQ(MapsInto(from, to), HomSearchStatus::kFound);
}

TEST(HomSearchNodes, NodesAreCounted) {
  SchemaPtr schema = MakeSchema({"A"});
  Instance inst(schema);
  inst.AddValue(0);
  inst.AddTuple({0});
  Tableau t(schema);
  t.AddRow({t.NewVariable(0)});
  HomomorphismSearch search(t, inst);
  search.FindAny(nullptr);
  EXPECT_GT(search.nodes_explored(), 0u);
}

}  // namespace
}  // namespace tdlib
