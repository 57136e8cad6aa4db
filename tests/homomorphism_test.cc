// Tests for the homomorphism search engine: enumeration, initial
// valuations, budgets, the id cap and tableau containment.
#include "logic/homomorphism.h"

#include <gtest/gtest.h>

#include <set>
#include <string>
#include <utility>
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

// ---- Join and private positions, the flat valuation -------------------------

// A 3-attribute instance of 40 random tuples over 4 values per attribute.
Instance RandomAbc(const SchemaPtr& schema, std::uint64_t seed) {
  Instance inst(schema);
  for (int attr = 0; attr < 3; ++attr) {
    for (int v = 0; v < 4; ++v) inst.AddValue(attr);
  }
  Rng rng(seed);
  for (int i = 0; i < 40; ++i) {
    inst.AddTuple({static_cast<int>(rng.Below(4)),
                   static_cast<int>(rng.Below(4)),
                   static_cast<int>(rng.Below(4))});
  }
  return inst;
}

// Everything one ForEach reports: each visited valuation with its body
// image, in visit order, and the counters.
struct Enumeration {
  std::vector<std::pair<Valuation, std::vector<int>>> matches;
  HomSearchStats stats;
};

Enumeration Enumerate(HomomorphismSearch* search) {
  Enumeration out;
  search->ForEach([&](const Valuation& v) {
    out.matches.emplace_back(v, search->row_tuples());
    return true;
  });
  out.stats = search->stats();
  return out;
}

void ExpectSame(const Enumeration& got, const Enumeration& want,
                const std::string& label) {
  ASSERT_EQ(got.matches.size(), want.matches.size()) << label;
  for (std::size_t i = 0; i < want.matches.size(); ++i) {
    EXPECT_TRUE(got.matches[i].first == want.matches[i].first)
        << label << " match " << i;
    EXPECT_EQ(got.matches[i].second, want.matches[i].second)
        << label << " match " << i;
  }
  EXPECT_EQ(got.stats.nodes, want.stats.nodes) << label;
  EXPECT_EQ(got.stats.candidates, want.stats.candidates) << label;
}

TEST(HomJoinPositions, ReusedSearchMatchesFreshSearches) {
  // R(a, b, c) & R(a, b2, c2) & R(a2, b2, c3): a and b2 join, the rest are
  // private until a pin makes them join positions. One search object runs
  // under several pin sets in turn — including a pin on a variable the
  // previous search wrote privately at every visit, and back to no pin —
  // and must report exactly what a fresh object reports for each.
  SchemaPtr schema = MakeSchema({"A", "B", "C"});
  Tableau t(schema);
  const int a = t.NewVariable(0), a2 = t.NewVariable(0);
  const int b = t.NewVariable(1), b2 = t.NewVariable(1);
  const int c = t.NewVariable(2), c2 = t.NewVariable(2),
            c3 = t.NewVariable(2);
  t.AddRow({a, b, c});
  t.AddRow({a, b2, c2});
  t.AddRow({a2, b2, c3});
  const Instance inst = RandomAbc(schema, 5);

  std::vector<Valuation> pins;
  pins.push_back(Valuation::For(t));
  Valuation pin_c = Valuation::For(t);
  pin_c.Set(2, c, 1);
  pins.push_back(pin_c);
  Valuation pin_b_c3 = Valuation::For(t);
  pin_b_c3.Set(1, b, 2);
  pin_b_c3.Set(2, c3, 0);
  pins.push_back(pin_b_c3);
  pins.push_back(Valuation::For(t));

  HomomorphismSearch reused(t, inst);
  for (std::size_t i = 0; i < pins.size(); ++i) {
    HomomorphismSearch fresh(t, inst);
    fresh.SetInitial(pins[i]);
    const Enumeration want = Enumerate(&fresh);
    EXPECT_FALSE(want.matches.empty()) << i;
    reused.SetInitial(pins[i]);
    ExpectSame(Enumerate(&reused), want, "pins " + std::to_string(i));
    // A second ForEach without SetInitial starts from the same pins.
    ExpectSame(Enumerate(&reused), want, "again " + std::to_string(i));
    for (const auto& [v, image] : want.matches) {
      if (pins[i].Bound(2, c)) {
        EXPECT_EQ(v.Get(2, c), 1);
      }
      if (pins[i].Bound(2, c3)) {
        EXPECT_EQ(v.Get(2, c3), 0);
      }
    }
  }
}

TEST(HomJoinPositions, VisitBindsEveryRowVariable) {
  // Private positions are written only for the visit; the visited
  // valuation must still bind every variable of every row to the bound
  // tuple's value, and leave a variable no row holds at -1.
  SchemaPtr schema = MakeSchema({"A", "B", "C"});
  Tableau t(schema);
  const int a = t.NewVariable(0);
  const int rowless = t.NewVariable(0);
  const int b = t.NewVariable(1), b2 = t.NewVariable(1);
  const int c = t.NewVariable(2), c2 = t.NewVariable(2);
  t.AddRow({a, b, c});
  t.AddRow({a, b2, c2});
  const Instance inst = RandomAbc(schema, 9);
  HomomorphismSearch search(t, inst);
  int visits = 0;
  search.ForEach([&](const Valuation& v) {
    ++visits;
    EXPECT_EQ(v.Get(0, rowless), -1);
    for (int r = 0; r < t.num_rows(); ++r) {
      const TupleRef tuple = inst.tuple(search.row_tuples()[r]);
      for (int attr = 0; attr < 3; ++attr) {
        EXPECT_EQ(v.Get(attr, t.row(r)[attr]), tuple[attr])
            << "row " << r << " attr " << attr;
      }
    }
    return true;
  });
  EXPECT_GT(visits, 40);
  // FindAny hands out the same complete valuation.
  Valuation found;
  ASSERT_EQ(search.FindAny(&found), HomSearchStatus::kFound);
  EXPECT_TRUE(found.Bound(1, b2));
  EXPECT_TRUE(found.Bound(2, c2));
  EXPECT_FALSE(found.Bound(0, rowless));
}

TEST(ValuationShape, ForAndIdentityOnAMixedArityTableau) {
  // Three, one and two variables for A, B and C: the flat layout must keep
  // every column its own length.
  SchemaPtr schema = MakeSchema({"A", "B", "C"});
  Tableau t(schema);
  t.EnsureVariables(0, 3);
  t.EnsureVariables(1, 1);
  t.EnsureVariables(2, 2);
  t.AddRow({2, 0, 1});
  const int num_vars[] = {3, 1, 2};

  const Valuation unbound = Valuation::For(t);
  const Valuation identity = Valuation::Identity(t);
  for (const Valuation* v : {&unbound, &identity}) {
    ASSERT_EQ(v->arity(), 3);
    for (int attr = 0; attr < 3; ++attr) {
      ASSERT_EQ(v->NumVars(attr), num_vars[attr]) << attr;
    }
  }
  for (int attr = 0; attr < 3; ++attr) {
    for (int var = 0; var < num_vars[attr]; ++var) {
      EXPECT_FALSE(unbound.Bound(attr, var));
      EXPECT_EQ(identity.Get(attr, var), var);
    }
  }
  EXPECT_TRUE(identity ==
              Valuation::FromColumns({{0, 1, 2}, {0}, {0, 1}}));
  EXPECT_TRUE(unbound != identity);
  EXPECT_EQ(Valuation().arity(), 0);

  // Setting one variable touches its slot only.
  Valuation v = Valuation::For(t);
  v.Set(2, 1, 7);
  EXPECT_EQ(v.Get(2, 1), 7);
  EXPECT_EQ(v.AtSlot(v.Slot(2, 1)), 7);
  EXPECT_EQ(v.Get(2, 0), -1);
  EXPECT_EQ(v.Get(1, 0), -1);
  // ResetFor reshapes any valuation into For(t).
  Valuation other = Valuation::FromColumns({{4}, {5, 6, 7, 8}});
  other.ResetFor(t);
  EXPECT_TRUE(other == unbound);
}

}  // namespace
}  // namespace tdlib
