// The self-test of the correctness checks: every check is shown a planted
// fault and must catch it, and is shown the genuine article and must pass it.
#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "cache/result_cache.h"
#include "engine/service.h"
#include "engine/workload.h"
#include "oracle.h"
#include "problems.h"
#include "workloads.h"

namespace tdbench {
namespace {

using tdlib::Dependency;
using tdlib::DualResult;
using tdlib::DualVerdict;
using tdlib::Job;
using tdlib::Row;
using tdlib::SchemaPtr;

// The multivalued dependency X ->> Y | Z over (A, B, C) as a TD:
// R(x, y, z) & R(x, y1, z1) => R(x, y, z1), where `key` is the attribute of
// x and `left` the attribute of y.
Dependency Mvd(const SchemaPtr& schema, int key, int left) {
  const int right = 3 - key - left;
  Dependency::Builder b(schema);
  Row first(3), second(3), head(3);
  first[key] = second[key] = head[key] = b.Var(key, "x");
  first[left] = head[left] = b.Var(left, "y");
  second[left] = b.Var(left, "y1");
  first[right] = b.Var(right, "z");
  second[right] = head[right] = b.Var(right, "z1");
  b.AddBodyRow(first);
  b.AddBodyRow(second);
  b.AddHeadRow(head);
  return std::move(b).Build().value();
}

Database With(Database db, const std::vector<int>& tuple) {
  db.push_back(tuple);
  return db;
}

Database Without(Database db, const std::vector<int>& tuple) {
  for (auto it = db.begin(); it != db.end(); ++it) {
    if (*it == tuple) {
      db.erase(it);
      break;
    }
  }
  return db;
}

// `db` plus every missing tuple of the product of its columns' values. A
// product database satisfies every TD (each head row's image is in it), so
// a completed witness no longer violates D0.
Database ProductCompletion(const Database& db) {
  std::vector<std::vector<int>> column(db.front().size());
  for (const std::vector<int>& t : db) {
    for (std::size_t a = 0; a < t.size(); ++a) {
      if (std::find(column[a].begin(), column[a].end(), t[a]) ==
          column[a].end()) {
        column[a].push_back(t[a]);
      }
    }
  }
  Database out;
  std::vector<int> tuple(column.size());
  std::vector<std::size_t> pos(column.size(), 0);
  for (;;) {
    for (std::size_t a = 0; a < column.size(); ++a) tuple[a] = column[a][pos[a]];
    out.push_back(tuple);
    std::size_t a = 0;
    while (a < column.size() && ++pos[a] == column[a].size()) pos[a++] = 0;
    if (a == column.size()) break;
  }
  return out;
}

DualResult Solve(const Job& job) {
  return tdlib::SolveImplication(job.dependencies, job.goal, job.config);
}

}  // namespace

std::string SelfTest() {
  std::vector<std::string> missed;
  auto expect = [&](bool ok, const std::string& what) {
    if (!ok) missed.push_back(what);
  };

  // Hand-checked databases for D = {A ->> B | C}, D0 = B ->> A | C.
  const SchemaPtr schema = tdlib::MakeSchema({"A", "B", "C"});
  tdlib::DependencySet d;
  d.Add(Mvd(schema, 0, 1), "A->>B");
  const Dependency d0 = Mvd(schema, 1, 0);
  // The A-groups {000} and {101, 100} are products over (B, C), so D holds;
  // the B=0 group lacks 001, so D0 fails.
  const Database w = {{0, 0, 0}, {1, 0, 1}, {1, 0, 0}};
  expect(CheckWitness(d, d0, w).empty(), "a valid witness is rejected");
  // Adding 001 completes the B=0 group (and the A=0 group stays a product).
  expect(!CheckWitness(d, d0, With(w, {0, 0, 1})).empty(),
         "a witness with a tuple added so that D0 holds is accepted");
  // Adding 011 makes the A=0 group {000, 011}, which needs 001 and 010.
  expect(!CheckWitness(d, d0, With(w, {0, 1, 1})).empty(),
         "a witness with a tuple added so that D breaks is accepted");
  // Without 101 the B=0 group {000, 100} is a product over (A, C).
  expect(!CheckWitness(d, d0, Without(w, {1, 0, 1})).empty(),
         "a witness with a tuple removed so that D0 holds is accepted");
  // The A=0 group of w2 is the product {0,1} x {0,1}; the B=0 group lacks
  // 002. Removing 001 leaves {000, 011, 010} in the A=0 group.
  const Database w2 = {{0, 0, 0}, {0, 1, 1}, {0, 0, 1}, {0, 1, 0}, {1, 0, 2}};
  expect(CheckWitness(d, d0, w2).empty(), "a second valid witness is rejected");
  expect(!CheckWitness(d, d0, Without(w2, {0, 0, 1})).empty(),
         "a witness with a tuple removed so that D breaks is accepted");

  // Flipped verdicts on real solver results: the brute force refutes a
  // flipped random problem, the regime check a flipped sweep job, and the
  // field comparison any flip.
  const Problem mvd{Job{"selftest/mvd", d, d0,
                        tdlib::DefaultWorkloadSolverConfig(), 0},
                    Regime::kRandom};
  const DualResult solved = Solve(mvd.job);
  expect(CheckCertificate(mvd, solved).empty(),
         "the solver's refutation of B ->> A | C is rejected");
  DualResult flipped = solved;
  flipped.verdict = DualVerdict::kImplied;
  expect(!CheckCertificate(mvd, flipped).empty(),
         "a refutation flipped to IMPLIED passes the brute force");
  expect(Fields::Of(flipped) != Fields::Of(solved),
         "a flipped verdict equals the serial reference");
  Ledger scratch;
  for (const Problem& p : BuildSweep(3, &scratch)) {
    const DualResult real = Solve(p.job);
    expect(CheckCertificate(p, real).empty(),
           p.job.name + ": the solver's certificate is rejected");
    DualResult wrong = real;
    wrong.verdict = p.regime == Regime::kImplied
                        ? DualVerdict::kRefutedByFixpoint
                        : DualVerdict::kImplied;
    expect(!CheckCertificate(p, wrong).empty(),
           p.job.name + ": a flipped verdict passes the regime check");
  }

  // A real universal model, completed to a product database.
  bool completed = false;
  for (std::uint64_t i = 0; i < 64 && !completed; ++i) {
    const Problem p = RandomProblem(0x7e57, i);
    const DualResult real = Solve(p.job);
    if (real.verdict != DualVerdict::kRefutedByFixpoint) continue;
    const Database model = ToDatabase(*real.implication.counterexample);
    expect(CheckWitness(p.job.dependencies, p.job.goal, model).empty(),
           p.job.name + ": the solver's universal model is rejected");
    expect(!CheckWitness(p.job.dependencies, p.job.goal,
                         ProductCompletion(model))
                .empty(),
           p.job.name + ": a universal model completed so that D0 holds is "
                        "accepted");
    completed = true;
  }
  expect(completed, "no random problem refuted at a chase fixpoint");

  // A renamed copy is served from the cache with its source's fields; the
  // same copy with one row changed is not.
  tdlib::ServiceOptions service_options;
  service_options.num_threads = 1;
  service_options.result_cache = std::make_shared<tdlib::ResultCache>();
  tdlib::SolverService service(service_options);
  const Fields source = Fields::Of(service.Submit(mvd.job).Wait());
  tdlib::Rng rng(7);
  const Job copy = RenamedCopy(mvd.job, &rng, "st");
  expect(ServedAsCopy(service.Submit(copy).Wait(), source),
         "a renamed copy is not served as a copy");
  expect(!ServedAsCopy(service.Submit(WithOneRowChanged(copy)).Wait(), source),
         "a renamed copy with one row changed is served as a copy");

  std::string report;
  for (const std::string& m : missed) report += (report.empty() ? "" : "; ") + m;
  return report;
}

}  // namespace tdbench
