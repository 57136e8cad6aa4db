#include "problems.h"

#include <algorithm>
#include <numeric>
#include <utility>

#include "core/generators.h"
#include "engine/workload.h"

namespace tdbench {
namespace {

using tdlib::Dependency;
using tdlib::DependencySet;
using tdlib::Job;
using tdlib::Row;
using tdlib::SchemaPtr;

// Rebuilds `dep` over `schema`: variable v of attribute a becomes
// new_id[a][v] and is named by `name(a, new id)`. Ids are allocated in new-id
// order, so a permuted `new_id` permutes the allocation order.
template <typename NameFn>
Dependency Rebuild(const Dependency& dep, const SchemaPtr& schema,
                   const std::vector<std::vector<int>>& new_id, NameFn name) {
  Dependency::Builder builder(schema);
  for (int a = 0; a < schema->arity(); ++a) {
    for (int v = 0; v < dep.body().NumVars(a); ++v) builder.Var(a, name(a, v));
  }
  auto map_row = [&](const Row& row) {
    Row out(row.size());
    for (std::size_t a = 0; a < row.size(); ++a) {
      out[a] = new_id[a][static_cast<std::size_t>(row[a])];
    }
    return out;
  };
  for (const Row& row : dep.body().rows()) builder.AddBodyRow(map_row(row));
  for (const Row& row : dep.head().rows()) builder.AddHeadRow(map_row(row));
  return std::move(builder).Build().value();
}

}  // namespace

std::vector<Problem> BuildSweep(int size, Ledger* ledger) {
  tdlib::WorkloadOptions options;
  options.size = size;
  const Clock::time_point start = Clock::now();
  std::vector<Job> jobs = tdlib::ReductionSweepWorkload(options);
  ledger->Add("reduction.build_ms", 1e3 * SecondsBetween(start, Clock::now()) /
                                        static_cast<double>(size));
  constexpr Regime kRegimes[] = {Regime::kImplied, Regime::kRefuted,
                                 Regime::kGap};
  std::vector<Problem> sweep;
  sweep.reserve(jobs.size());
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    sweep.push_back(Problem{std::move(jobs[i]), kRegimes[i % 3]});
  }
  return sweep;
}

Problem RandomProblem(std::uint64_t stream, std::uint64_t index) {
  tdlib::Rng rng(stream * 0xd1342543de82ef95ULL ^
                 (0x9e3779b97f4a7c15ULL * (index + 1)));
  SchemaPtr schema = tdlib::MakeSchema({"A", "B", "C"});
  tdlib::TdGeneratorOptions gen;
  gen.arity = 3;
  gen.body_rows = 2;
  gen.head_rows = 1;
  DependencySet d;
  for (int k = 0; k < 3; ++k) {
    gen.force_full = (k % 2 == 0);
    d.Add(tdlib::RandomDependency(&rng, gen, schema), "rnd" + std::to_string(k));
  }
  gen.force_full = false;
  Dependency goal = tdlib::RandomDependency(&rng, gen, schema);
  for (int redraw = 0; goal.IsTrivial() && redraw < 64; ++redraw) {
    goal = tdlib::RandomDependency(&rng, gen, schema);
  }
  return Problem{Job{"random/" + std::to_string(stream) + "/" +
                         std::to_string(index),
                     std::move(d), std::move(goal),
                     tdlib::DefaultWorkloadSolverConfig(), 0},
                 Regime::kRandom};
}

Job RenamedCopy(const Job& source, tdlib::Rng* rng, const std::string& tag) {
  const tdlib::Schema& old_schema = source.goal.schema();
  std::vector<std::string> attrs;
  for (int a = 0; a < old_schema.arity(); ++a) {
    attrs.push_back("T" + tag + "c" + std::to_string(a));
  }
  SchemaPtr schema = tdlib::MakeSchema(attrs);
  auto rename = [&](const Dependency& dep) {
    std::vector<std::vector<int>> new_id(attrs.size());
    for (std::size_t a = 0; a < attrs.size(); ++a) {
      std::vector<int>& ids = new_id[a];
      ids.resize(static_cast<std::size_t>(dep.body().NumVars(static_cast<int>(a))));
      std::iota(ids.begin(), ids.end(), 0);
      for (std::size_t k = ids.size(); k > 1; --k) {
        std::swap(ids[k - 1], ids[rng->Below(k)]);
      }
    }
    return Rebuild(dep, schema, new_id, [&](int a, int v) {
      return "t" + tag + "v" + std::to_string(a) + "_" + std::to_string(v);
    });
  };
  DependencySet d;
  for (std::size_t k = 0; k < source.dependencies.items.size(); ++k) {
    d.Add(rename(source.dependencies.items[k]),
          "T" + tag + "d" + std::to_string(k));
  }
  return Job{"copy" + tag + "/" + source.name, std::move(d),
             rename(source.goal), source.config, source.priority};
}

Job WithOneRowChanged(const Job& job) {
  Job changed = job;
  for (Dependency& dep : changed.dependencies.items) {
    if (dep.body().num_rows() < 2) continue;
    std::vector<Row> body = dep.body().rows();
    const int arity = dep.schema().arity();
    // Flip one equality between rows 0 and 1: join them on the first
    // attribute where they differ, or split them on attribute 0 with a fresh
    // variable when the rows are identical.
    int attr = 0;
    while (attr < arity && body[0][attr] == body[1][attr]) ++attr;
    if (attr < arity) {
      body[0][attr] = body[1][attr];
    } else {
      body[0][0] = dep.body().NumVars(0);
    }
    Dependency::Builder builder(dep.schema_ptr());
    for (int a = 0; a < arity; ++a) {
      const int vars = dep.body().NumVars(a) + (a == 0 ? 1 : 0);
      for (int v = 0; v < vars; ++v) {
        builder.Var(a, "w" + std::to_string(a) + "_" + std::to_string(v));
      }
    }
    for (const Row& row : body) builder.AddBodyRow(row);
    for (const Row& row : dep.head().rows()) builder.AddHeadRow(row);
    dep = std::move(builder).Build().value();
    break;
  }
  return changed;
}

}  // namespace tdbench
