// Exactness goldens for the chase's fire sequence.
//
// The gap and random-TD literals below were recorded by the library before
// the chase matched and fired each pass in dependency waves, the
// repeated-key literals before it kept one pending step per head key. They
// pin, per case, the number of
// fires and passes, a hash of the recorded trace and a hash of
// Instance::Serialize of the instance the run stopped on — the bytes a
// change to how a pass is matched must not move. Search counters (hom_nodes,
// hom_candidates, match_tasks, carried_passes) are deliberately NOT pinned
// here: they measure matching work, which is what such a change is for.
//
// The cases are the reduction sweep's gap jobs, whose chase pumps until the
// step budget cuts it mid-pass, at three budgets each, in the default shape
// and in the burst-capped shapes that carry steps between passes; plus a
// random-TD batch and a hand-built program whose body matches repeat head
// keys. Each gap trace must also be a prefix of the trace the same run
// produces under a larger budget.
#include <gtest/gtest.h>

#include <cstdint>
#include <set>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "chase/chase.h"
#include "chase/implication.h"
#include "core/generators.h"
#include "core/parser.h"
#include "engine/thread_pool.h"
#include "engine/workload.h"
#include "util/rng.h"

namespace tdlib {
namespace {

// FNV-1a over a byte string.
std::uint64_t Fnv(const std::string& bytes) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (unsigned char c : bytes) {
    h ^= c;
    h *= 0x100000001b3ULL;
  }
  return h;
}

std::string TraceText(const std::vector<ChaseStep>& trace) {
  std::ostringstream os;
  for (const ChaseStep& step : trace) {
    os << step.dependency_index << ':';
    for (const std::vector<int>& column : step.body_match.values) {
      for (int v : column) os << v << ',';
      os << ';';
    }
    os << '>';
    for (int id : step.new_tuples) os << id << ',';
    os << '\n';
  }
  return os.str();
}

struct ChaseRun {
  ChaseResult result;
  std::string instance_bytes;
};

// Chases D0's frozen body with `deps` toward D0, as ChaseImplies does.
ChaseRun ChaseJob(const Job& job, ChaseConfig config) {
  config.record_trace = true;
  Instance instance = job.goal.body().Freeze();
  ChaseRun run;
  run.result = RunChase(&instance, job.dependencies, config,
                        ConclusionGoal(job.goal, config.HomOptions()));
  std::ostringstream os;
  instance.Serialize(os);
  run.instance_bytes = os.str();
  return run;
}

std::string Line(const std::string& label, const ChaseRun& run) {
  std::ostringstream os;
  os << label << ' ' << ChaseStatusName(run.result.status) << ' '
     << run.result.steps << ' ' << run.result.passes << ' ' << std::hex
     << Fnv(TraceText(run.result.trace)) << ' ' << Fnv(run.instance_bytes);
  return os.str();
}

bool IsPrefix(const std::vector<ChaseStep>& a,
              const std::vector<ChaseStep>& b) {
  if (a.size() > b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i].dependency_index != b[i].dependency_index ||
        a[i].body_match.values != b[i].body_match.values ||
        a[i].new_tuples != b[i].new_tuples) {
      return false;
    }
  }
  return true;
}

std::vector<Job> GapJobs() {
  WorkloadOptions options;
  options.size = 12;  // gap/pad0 .. gap/pad3
  std::vector<Job> gaps;
  for (Job& job : ReductionSweepWorkload(options)) {
    if (job.name.rfind("gap/", 0) == 0) gaps.push_back(std::move(job));
  }
  return gaps;
}

struct Shape {
  const char* name;
  ChaseConfig config;
};

// Every pass of a gap job is a pumping pass, so auto_burst runs it
// uncapped (the plain shape); the fixed cap is what carries steps.
std::vector<Shape> Shapes() {
  ChaseConfig plain;
  ChaseConfig capped;
  capped.max_fires_per_pass = 64;
  return {{"plain", plain}, {"cap64", capped}};
}

const std::uint64_t kBudgets[] = {600, 1500, 2000};

// label status steps passes trace-hash instance-hash
constexpr char kGoldenGap[] =
    "gap/pad0/plain/600 step-limit 600 6 8d1023f7a69685d8 379c23aeb34ece66\n"
    "gap/pad0/plain/1500 step-limit 1500 6 21fdb8065348dd30 82c2c362e7a1c045\n"
    "gap/pad0/plain/2000 step-limit 2000 6 67eeadcd32f13160 5d111c3b1af149f9\n"
    "gap/pad0/cap64/600 step-limit 600 13 9fbd2debc3457d56 97e0b5a1af66a27d\n"
    "gap/pad0/cap64/1500 step-limit 1500 28 c82b57a5ba6a6412 47cfe97e2ea23ef8\n"
    "gap/pad0/cap64/2000 step-limit 2000 35 f06e33cb7723a4b5 97421e393d8edb90\n"
    "gap/pad1/plain/600 step-limit 600 5 ab7f0a613bb96f41 8013b4ca55a816f\n"
    "gap/pad1/plain/1500 step-limit 1500 6 60de78e15466b5fc 58d2703dbe33a984\n"
    "gap/pad1/plain/2000 step-limit 2000 6 1824e884690872e6 50f71dd85c462683\n"
    "gap/pad1/cap64/600 step-limit 600 13 5ab39d53ce31d640 a124a8eaa8804614\n"
    "gap/pad1/cap64/1500 step-limit 1500 27 b75d31f52b05f8d4 61d607d3e3a94716\n"
    "gap/pad1/cap64/2000 step-limit 2000 35 26a5e8a38f7a19ed 713f69e8b4fff847\n"
    "gap/pad2/plain/600 step-limit 600 5 e62bb849625526f9 7b89fcc9bb82013a\n"
    "gap/pad2/plain/1500 step-limit 1500 6 a2138475afe78024 8d03080081ab4ca\n"
    "gap/pad2/plain/2000 step-limit 2000 6 69e66d4c39507612 3a16c13239b1f3f0\n"
    "gap/pad2/cap64/600 step-limit 600 13 3cf21c397c9c7e49 fee7a779f5e180f3\n"
    "gap/pad2/cap64/1500 step-limit 1500 27 2acd32283002f626 8a18bdf21bbbe4e7\n"
    "gap/pad2/cap64/2000 step-limit 2000 35 bcd483b6d75dced5 a9990a67b3555416\n"
    "gap/pad3/plain/600 step-limit 600 5 a0a4714273db62af 6f1f6d08b88596fe\n"
    "gap/pad3/plain/1500 step-limit 1500 5 6d80215978cc0a3a 48dfae045a560750\n"
    "gap/pad3/plain/2000 step-limit 2000 6 91e707f77ed614d1 111cc9eb2c405dbe\n"
    "gap/pad3/cap64/600 step-limit 600 13 208d3562481706a9 f23fcbdecc2a7421\n"
    "gap/pad3/cap64/1500 step-limit 1500 27 98b84dd22f9ef75 edf907a8c84f41b4\n"
    "gap/pad3/cap64/2000 step-limit 2000 35 b44de1f6b39edb30 3f501a62b1000605";

std::vector<std::string> GapLines(TaskExecutor* pool) {
  std::vector<std::string> lines;
  for (const Job& job : GapJobs()) {
    for (const Shape& shape : Shapes()) {
      std::vector<ChaseStep> previous;
      for (std::uint64_t budget : kBudgets) {
        ChaseConfig config = shape.config;
        config.max_steps = budget;
        config.pool = pool;
        ChaseRun run = ChaseJob(job, config);
        const std::string label = job.name + "/" + shape.name + "/" +
                                  std::to_string(budget);
        EXPECT_TRUE(IsPrefix(previous, run.result.trace)) << label;
        previous = std::move(run.result.trace);
        run.result.trace = previous;
        lines.push_back(Line(label, run));
      }
    }
  }
  return lines;
}

// On a mismatch the message prints the lines as literal source.
void ExpectGolden(const std::vector<std::string>& lines,
                  const std::string& golden) {
  std::string joined;
  std::string printed;
  for (const std::string& line : lines) {
    if (!joined.empty()) joined += '\n';
    joined += line;
    printed += "    \"" + line + "\\n\"\n";
  }
  EXPECT_EQ(joined, golden) << printed;
}

TEST(WaveChaseGolden, GapJobsSerial) {
  ExpectGolden(GapLines(nullptr), kGoldenGap);
}

TEST(WaveChaseGolden, GapJobsOnAPool) {
  ThreadPool pool(4);
  ExpectGolden(GapLines(&pool), kGoldenGap);
}

// Random programs of 24 TDs over a seeded instance: enough dependencies
// that a pass spans several waves. One line per (seed, shape); the shapes
// run into the step and tuple budgets, fixpoints, carried steps and the
// naive matcher.
constexpr char kGoldenRandom[] =
    "seed1/plain fixpoint 8 2 4319e01a4e6ad31c 3a9f5fea1044dedb\n"
    "seed1/cap16 fixpoint 8 2 4319e01a4e6ad31c 3a9f5fea1044dedb\n"
    "seed1/naive fixpoint 8 2 4319e01a4e6ad31c 3a9f5fea1044dedb\n"
    "seed2/plain fixpoint 22 3 e5d132f76986501d 4c1c309934945909\n"
    "seed2/cap16 fixpoint 22 3 e5d132f76986501d 4c1c309934945909\n"
    "seed2/naive fixpoint 22 3 e5d132f76986501d 4c1c309934945909\n"
    "seed3/plain fixpoint 8 3 db9f540a4ef2e028 c9686dfb45d252b3\n"
    "seed3/cap16 fixpoint 8 3 db9f540a4ef2e028 c9686dfb45d252b3\n"
    "seed3/naive fixpoint 8 3 db9f540a4ef2e028 c9686dfb45d252b3\n"
    "seed4/plain fixpoint 13 3 97fab5acee4b77f0 b105ea003decc373\n"
    "seed4/cap16 fixpoint 13 3 97fab5acee4b77f0 b105ea003decc373\n"
    "seed4/naive fixpoint 13 3 97fab5acee4b77f0 b105ea003decc373\n"
    "seed5/plain fixpoint 27 4 ebbf455d467c23d6 c94a5abb586d1e7a\n"
    "seed5/cap16 fixpoint 27 4 ebbf455d467c23d6 c94a5abb586d1e7a\n"
    "seed5/naive fixpoint 27 4 ebbf455d467c23d6 c94a5abb586d1e7a\n"
    "seed6/plain step-limit 200 10 6e43c8fc136dd731 cdb4b9571983ae3e\n"
    "seed6/cap16 step-limit 200 15 65f488a37c51aa09 73d2138bcf3683e6\n"
    "seed6/naive step-limit 200 10 6e43c8fc136dd731 cdb4b9571983ae3e\n"
    "seed7/plain step-limit 200 4 1917ada4e206a616 4c23948c9aabb1e0\n"
    "seed7/cap16 step-limit 200 14 de1b56d831c68646 79703da51182ccce\n"
    "seed7/naive step-limit 200 4 1917ada4e206a616 4c23948c9aabb1e0";

TEST(WaveChaseGolden, RandomTdBatch) {
  ChaseConfig plain;
  plain.max_steps = 200;
  plain.max_tuples = 1500;
  ChaseConfig capped = plain;
  capped.max_fires_per_pass = 16;
  ChaseConfig naive = plain;
  naive.use_delta = false;
  const Shape shapes[] = {{"plain", plain}, {"cap16", capped}, {"naive", naive}};
  std::vector<std::string> lines;
  for (int seed = 1; seed <= 7; ++seed) {
    Rng rng(static_cast<std::uint64_t>(seed) * 7919);
    SchemaPtr schema = MakeSchema({"X0", "X1", "X2"});
    TdGeneratorOptions options;
    DependencySet deps;
    for (int k = 0; k < 24; ++k) {
      options.body_rows = 2 + k % 2;
      options.force_full = k % 3 == 0;
      deps.Add(RandomDependency(&rng, options, schema));
    }
    const Instance seed_instance = RandomInstance(&rng, schema, 3, 5);
    for (const Shape& shape : shapes) {
      ChaseConfig config = shape.config;
      config.record_trace = true;
      Instance instance = seed_instance;
      ChaseRun run;
      run.result = RunChase(&instance, deps, config);
      std::ostringstream os;
      instance.Serialize(os);
      run.instance_bytes = os.str();
      lines.push_back(Line("seed" + std::to_string(seed) + "/" + shape.name,
                           run));
    }
  }
  ExpectGolden(lines, kGoldenRandom);
}


// ---- One pending step per head key -----------------------------------------
//
// A step's head key is its body match's values on the head's universal
// positions (Dependency::HeadRowUniversals). A hand-built program whose body
// matches repeat each head key several times: dependency 0 joins two rows on
// B and concludes R(a, b9, c2), key (a, c2), reached once per shared B value
// and per C of the first row; dependency 1 is full, key (a, b2, c), reached
// from every second row carrying b2; dependency 2 is an EID whose two head
// rows share the invented b9, key (a, c, c2). None invents an A or C value,
// so the chase reaches a fixpoint. Its literals were printed by the library
// before pending steps collapsed to one per head key.
struct RepeatedKeys {
  DependencySet deps;
  Instance seed;
};

RepeatedKeys MakeRepeatedKeys() {
  SchemaPtr schema = MakeSchema({"A", "B", "C"});
  RepeatedKeys program{DependencySet(), Instance(schema)};
  for (const char* text : {"R(a,b,c) & R(a2,b,c2) => R(a,b9,c2)",
                           "R(a,b,c) & R(a2,b2,c2) => R(a,b2,c)",
                           "R(a,b,c) & R(a2,b,c2) => R(a,b9,c) & R(a,b9,c2)"}) {
    Result<Dependency> dep = ParseDependency(schema, text);
    EXPECT_TRUE(dep.ok()) << text;
    program.deps.Add(dep.value());
  }
  const int rows[][3] = {{0, 0, 1}, {0, 0, 2}, {0, 0, 3}, {0, 1, 1},
                         {1, 0, 2}, {1, 2, 2}, {3, 0, 0}, {3, 0, 2}};
  for (const auto& row : rows) {
    Tuple t(3);
    for (int attr = 0; attr < 3; ++attr) {
      t[attr] = program.seed.InternValue(
          attr, std::string(1, static_cast<char>('a' + attr)) +
                    std::to_string(row[attr]));
    }
    program.seed.AddTuple(t);
  }
  return program;
}

std::vector<int> HeadKey(const Dependency& dep, const Valuation& match) {
  std::vector<int> key;
  for (const auto& [attr, var] : dep.HeadRowUniversals()) {
    key.push_back(match.Get(attr, var));
  }
  return key;
}

// label status steps passes trace-hash instance-hash
constexpr char kGoldenRepeatedKeys[] =
    "steps50/delta/serial step-limit 50 2 6bde03dfbeef2124 8a0a3599543960aa\n"
    "steps50/delta/pool4 step-limit 50 2 6bde03dfbeef2124 8a0a3599543960aa\n"
    "steps50/naive/serial step-limit 50 2 6bde03dfbeef2124 8a0a3599543960aa\n"
    "steps50/naive/pool4 step-limit 50 2 6bde03dfbeef2124 8a0a3599543960aa\n"
    "steps50/cap4/serial step-limit 50 13 38e846075d89b832 a5e4b34c26799268\n"
    "steps50/cap4/pool4 step-limit 50 13 38e846075d89b832 a5e4b34c26799268\n"
    "fixpoint/delta/serial fixpoint 210 3 fc0050df218e68b9 e55114db2db2c009\n"
    "fixpoint/delta/pool4 fixpoint 210 3 fc0050df218e68b9 e55114db2db2c009\n"
    "fixpoint/naive/serial fixpoint 210 3 fc0050df218e68b9 e55114db2db2c009\n"
    "fixpoint/naive/pool4 fixpoint 210 3 fc0050df218e68b9 e55114db2db2c009\n"
    "fixpoint/cap4/serial fixpoint 100 26 52f8e104603a3066 29b01472eb878ecc\n"
    "fixpoint/cap4/pool4 fixpoint 100 26 52f8e104603a3066 29b01472eb878ecc";

TEST(WaveChaseGolden, RepeatedHeadKeys) {
  RepeatedKeys program = MakeRepeatedKeys();
  for (const Dependency& dep : program.deps.items) {
    std::size_t matches = 0;
    std::set<std::vector<int>> keys;
    HomomorphismSearch search(dep.body(), program.seed, HomSearchOptions{});
    search.ForEach([&](const Valuation& h) {
      ++matches;
      keys.insert(HeadKey(dep, h));
      return true;
    });
    EXPECT_GT(matches, keys.size()) << dep.ToString();
    if (dep.IsTd()) {
      EXPECT_GE(matches, 3 * keys.size()) << dep.ToString();
    }
  }

  ChaseConfig delta;
  ChaseConfig naive;
  naive.use_delta = false;
  ChaseConfig capped;
  capped.max_fires_per_pass = 4;
  const Shape shapes[] = {{"delta", delta}, {"naive", naive}, {"cap4", capped}};
  ThreadPool pool(4);
  TaskExecutor* const pools[] = {nullptr, &pool};
  std::vector<std::string> lines;
  for (std::uint64_t budget : {std::uint64_t{50}, std::uint64_t{0}}) {
    for (const Shape& shape : shapes) {
      for (TaskExecutor* executor : pools) {
        ChaseConfig config = shape.config;
        config.max_steps = budget;
        config.record_trace = true;
        config.pool = executor;
        Instance instance = program.seed;
        ChaseRun run;
        run.result = RunChase(&instance, program.deps, config);
        std::ostringstream os;
        instance.Serialize(os);
        run.instance_bytes = os.str();
        lines.push_back(Line(std::string(budget == 0 ? "fixpoint" : "steps50") +
                                 "/" + shape.name + "/" +
                                 (executor == nullptr ? "serial" : "pool4"),
                             run));
      }
    }
  }
  ExpectGolden(lines, kGoldenRepeatedKeys);

  // A run stopped by the step budget parks one step per (dependency, head
  // key) — in the current wave's pending tail and in the carried backlog.
  for (const Shape& shape : shapes) {
    ChaseConfig config = shape.config;
    config.max_steps = 50;
    Instance instance = program.seed;
    ChaseCheckpoint checkpoint;
    RunChase(&instance, program.deps, config, {}, &checkpoint);
    ASSERT_TRUE(checkpoint.valid) << shape.name;
    EXPECT_FALSE(checkpoint.pending.empty()) << shape.name;
    std::set<std::pair<int, std::vector<int>>> held;
    for (const auto* list : {&checkpoint.pending, &checkpoint.carried}) {
      for (const PendingChaseStep& step : *list) {
        EXPECT_TRUE(
            held.emplace(step.dep_index,
                         HeadKey(program.deps.items[step.dep_index],
                                 step.match))
                .second)
            << shape.name;
      }
    }
  }
}

}  // namespace
}  // namespace tdlib
