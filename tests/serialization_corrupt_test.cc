// Corrupt-corpus regression suite: every deserializer in the persistence
// stack (TupleStore, Instance, ChaseCheckpoint, ChaseSession, the result
// cache store) is fed a
// sweep of deterministically damaged inputs — truncations at every offset
// regime, single bit flips, and outright garbage — and must return either
// a typed error (ErrorCode::kCorrupt for damaged wire bytes) or a
// well-formed value. Crashing, hanging, or unchecked huge allocations are
// the failure modes under test; the suite also runs under ASan/UBSan in CI.
#include <gtest/gtest.h>

#include <optional>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "cache/result_cache.h"
#include "cache/store.h"
#include "chase/chase.h"
#include "chase/implication.h"
#include "cluster/wire.h"
#include "core/parser.h"
#include "engine/job.h"
#include "logic/instance.h"
#include "logic/schema.h"
#include "logic/tuple_store.h"
#include "util/fault.h"

namespace tdlib {
namespace {

// A healthy serialized corpus to damage: an instance pumped a few chase
// steps (so it has invented nulls), a checkpoint, and a full session. The
// checkpoint is taken mid-pass over enough dependencies for several waves
// under a burst cap, so its wave cursor sits before dependencies whose
// carried steps are still unchecked: every list of the format is non-empty.
struct Corpus {
  SchemaPtr schema;
  DependencySet checkpoint_deps;
  ChaseConfig checkpoint_config;
  std::optional<Instance> checkpoint_instance;
  std::string tuple_store_bytes;
  std::string instance_bytes;
  std::string checkpoint_bytes;
  std::string session_bytes;
  std::string cache_bytes;
  // The cluster wire protocol (framed router<->worker sockets).
  std::string frame_bytes;
  std::string job_payload_bytes;
  std::string result_payload_bytes;
};

Corpus MakeCorpus() {
  Corpus corpus;
  corpus.schema = MakeSchema({"A", "B", "C"});
  Result<Dependency> dep = ParseDependency(
      corpus.schema, "R(a,b,c) & R(a,b2,c2) => R(a9,b,c2)");
  EXPECT_TRUE(dep.ok());
  DependencySet deps;
  deps.Add(dep.value(), "d");

  Instance instance = dep.value().body().Freeze();
  ChaseConfig config;
  config.max_steps = 1;  // stop mid-derivation
  config.record_trace = true;
  RunChase(&instance, deps, config);

  // Pass 1 fires one step and carries the rest; pass 2 stops after its
  // first wave's fire, before the later waves re-check their carried steps.
  for (int copy = 0; copy < 20; ++copy) {
    corpus.checkpoint_deps.Add(dep.value(), "d" + std::to_string(copy));
  }
  corpus.checkpoint_config.max_steps = 2;
  corpus.checkpoint_config.max_fires_per_pass = 1;
  corpus.checkpoint_config.record_trace = true;
  corpus.checkpoint_instance.emplace(dep.value().body().Freeze());
  ChaseCheckpoint wave_checkpoint;
  RunChase(&*corpus.checkpoint_instance, corpus.checkpoint_deps,
           corpus.checkpoint_config, {}, &wave_checkpoint);
  EXPECT_TRUE(wave_checkpoint.valid);
  EXPECT_FALSE(wave_checkpoint.pending.empty());
  EXPECT_FALSE(wave_checkpoint.carried.empty());
  EXPECT_LT(wave_checkpoint.next_dep, corpus.checkpoint_deps.items.size());

  {
    TupleStore store(3);
    const std::int32_t rows[][3] = {{0, 0, 0}, {0, 1, 1}, {1, 0, 1}};
    for (const auto& row : rows) store.Insert(row);
    std::ostringstream oss;
    store.Serialize(oss);
    corpus.tuple_store_bytes = oss.str();
  }
  {
    std::ostringstream oss;
    instance.Serialize(oss);
    corpus.instance_bytes = oss.str();
  }
  {
    std::ostringstream oss;
    wave_checkpoint.Serialize(oss);
    corpus.checkpoint_bytes = oss.str();
  }
  {
    ChaseSession session;
    ImplicationResult unused = ChaseImplies(deps, dep.value(), config,
                                            &session);
    (void)unused;
    std::ostringstream oss;
    session.Serialize(oss);
    corpus.session_bytes = oss.str();
  }
  {
    CacheOptions options;
    options.shards = 1;
    ResultCache cache(options);
    for (std::uint64_t n = 1; n <= 4; ++n) {
      CacheFingerprint fp;
      fp.hi = n;
      fp.lo = n * 1000003;
      fp.valid = true;
      CachedVerdict verdict;
      verdict.verdict = DualVerdict::kImplied;
      verdict.rounds_used = static_cast<int>(n);
      verdict.chase_steps = n * 17;
      cache.Insert(fp, verdict);
    }
    std::ostringstream oss;
    SaveResultCache(oss, cache);
    corpus.cache_bytes = oss.str();
  }
  {
    Job job{"corpus job", deps, dep.value(), DualSolverConfig{}, 3};
    job.config.rounds = 2;
    WireJob wire_job(std::move(job));
    wire_job.job_id = 9;
    wire_job.probe_steps = 100;
    wire_job.session_text = corpus.session_bytes;
    corpus.job_payload_bytes = EncodeJobPayload(wire_job);
    corpus.frame_bytes = EncodeFrame(FrameType::kJob, corpus.job_payload_bytes);

    WireResult wire_result;
    wire_result.job_id = 9;
    wire_result.parked = true;
    wire_result.session_text = corpus.session_bytes;
    wire_result.result.name = "corpus job";
    wire_result.result.status = JobStatus::kCompleted;
    wire_result.result.verdict = DualVerdict::kUnknown;
    wire_result.result.chase_steps = 100;
    corpus.result_payload_bytes = EncodeResultPayload(wire_result);
  }
  return corpus;
}

// The damage sweep: CorruptBytes truncates on even seeds and bit-flips on
// odd seeds, both at seed-derived positions, so [0, 2n) seeds cover both
// modes across the whole buffer.
std::vector<std::string> DamagedVariants(const std::string& healthy) {
  std::vector<std::string> variants;
  for (std::uint64_t seed = 0; seed < 64; ++seed) {
    std::string damaged = healthy;
    CorruptBytes(&damaged, seed);
    variants.push_back(std::move(damaged));
  }
  // Hand-picked nasties the sweep might miss.
  variants.push_back("");
  variants.push_back("garbage");
  variants.push_back(std::string(1024, '\0'));
  variants.push_back("9999999999999999999 1 1");  // absurd count header
  variants.push_back(healthy + " trailing garbage");
  return variants;
}

TEST(SerializationCorruptTest, TupleStoreSurvivesTheDamageSweep) {
  Corpus corpus = MakeCorpus();
  int rejected = 0;
  for (const std::string& damaged :
       DamagedVariants(corpus.tuple_store_bytes)) {
    std::istringstream in(damaged);
    Result<TupleStore> result = TupleStore::Deserialize(in);
    if (!result.ok()) {
      ++rejected;
      EXPECT_EQ(result.code(), ErrorCode::kCorrupt) << result.error();
    }
  }
  // Most of the sweep must actually reject (a sweep that accepts
  // everything is not exercising the validation paths).
  EXPECT_GT(rejected, 0);
}

TEST(SerializationCorruptTest, InstanceSurvivesTheDamageSweep) {
  Corpus corpus = MakeCorpus();
  int rejected = 0;
  for (const std::string& damaged : DamagedVariants(corpus.instance_bytes)) {
    std::istringstream in(damaged);
    Result<Instance> result = Instance::Deserialize(corpus.schema, in);
    if (!result.ok()) {
      ++rejected;
      EXPECT_EQ(result.code(), ErrorCode::kCorrupt) << result.error();
    }
  }
  EXPECT_GT(rejected, 0);
}

TEST(SerializationCorruptTest, CheckpointSurvivesTheDamageSweep) {
  Corpus corpus = MakeCorpus();
  int rejected = 0;
  for (const std::string& damaged :
       DamagedVariants(corpus.checkpoint_bytes)) {
    std::istringstream in(damaged);
    Result<ChaseCheckpoint> result = ChaseCheckpoint::Deserialize(in);
    if (!result.ok()) {
      ++rejected;
      EXPECT_EQ(result.code(), ErrorCode::kCorrupt) << result.error();
      continue;
    }
    // A variant that still parses reaches the semantic check, which must
    // answer without reading out of range (the sanitizer legs watch this).
    (void)result.value().CompatibleWith(corpus.checkpoint_config,
                                        *corpus.checkpoint_instance,
                                        corpus.checkpoint_deps);
  }
  EXPECT_GT(rejected, 0);
}

// The wave cursor line of a serialized checkpoint: "match_begin pass_start
// next_dep fired_this_pass fire_cap_this_pass", right after the header.
std::vector<std::string> CursorFields(const std::string& bytes) {
  std::istringstream in(bytes);
  std::string line;
  std::getline(in, line);  // magic and valid flag
  std::getline(in, line);
  std::istringstream fields(line);
  std::vector<std::string> out;
  for (std::string field; fields >> field;) out.push_back(field);
  return out;
}

std::string WithCursorField(const std::string& bytes, std::size_t index,
                            const std::string& value) {
  std::vector<std::string> fields = CursorFields(bytes);
  fields[index] = value;
  const std::size_t line_begin = bytes.find('\n') + 1;
  const std::size_t line_end = bytes.find('\n', line_begin);
  std::string line;
  for (const std::string& field : fields) {
    line += (line.empty() ? "" : " ") + field;
  }
  return bytes.substr(0, line_begin) + line + bytes.substr(line_end);
}

TEST(SerializationCorruptTest, CheckpointCursorOutOfRangeIsRefused) {
  Corpus corpus = MakeCorpus();
  const Instance& instance = *corpus.checkpoint_instance;
  const DependencySet& deps = corpus.checkpoint_deps;
  auto compatible = [&](const std::string& bytes) {
    std::istringstream in(bytes);
    Result<ChaseCheckpoint> parsed = ChaseCheckpoint::Deserialize(in);
    if (!parsed.ok()) {
      EXPECT_EQ(parsed.code(), ErrorCode::kCorrupt) << parsed.error();
      return false;
    }
    return parsed.value().CompatibleWith(corpus.checkpoint_config, instance,
                                         deps);
  };
  ASSERT_TRUE(compatible(corpus.checkpoint_bytes));
  ASSERT_EQ(CursorFields(corpus.checkpoint_bytes).size(), 5u);

  const std::string num_tuples = std::to_string(instance.NumTuples());
  const std::string num_deps = std::to_string(deps.items.size());
  const std::vector<std::string> pass_start_field =
      CursorFields(corpus.checkpoint_bytes);
  struct Edit {
    std::size_t field;
    std::string value;
  };
  const Edit edits[] = {
      // match_begin past pass_start.
      {0, std::to_string(std::stoull(pass_start_field[1]) + 1)},
      // pass_start past the instance.
      {1, std::to_string(instance.NumTuples() + 1)},
      // next_dep past the dependency set.
      {2, std::to_string(deps.items.size() + 1)},
      // next_dep at 0: the wave's pending steps would lie past the cursor.
      {2, "0"},
      // next_dep at the end: the carried steps would lie before it.
      {2, num_deps},
      // Negative values parse as huge unsigned ones, or not at all.
      {0, "-1"},
      {1, "-1"},
      {2, "-1"},
      {2, "x"},
  };
  for (const Edit& edit : edits) {
    EXPECT_FALSE(compatible(
        WithCursorField(corpus.checkpoint_bytes, edit.field, edit.value)))
        << "field " << edit.field << " = " << edit.value;
  }

  // Steps out of canonical order on either side of the cursor.
  std::istringstream in(corpus.checkpoint_bytes);
  ChaseCheckpoint healthy = ChaseCheckpoint::Deserialize(in).value();
  ASSERT_FALSE(healthy.carried.empty());
  ChaseCheckpoint unsorted = healthy;
  unsorted.carried.push_back(unsorted.carried.front());
  unsorted.carried.front().dep_index =
      static_cast<int>(deps.items.size()) - 1;
  EXPECT_FALSE(
      unsorted.CompatibleWith(corpus.checkpoint_config, instance, deps));
  ChaseCheckpoint foreign = healthy;
  foreign.carried.back().dep_index = static_cast<int>(deps.items.size());
  EXPECT_FALSE(
      foreign.CompatibleWith(corpus.checkpoint_config, instance, deps));
}

TEST(SerializationCorruptTest, CheckpointRepeatedHeadKeyIsRefused) {
  // RunChase keeps one pending step per (dependency, head key), so a list
  // holding two steps of one dependency with equal head keys did not come
  // from it. The twin below follows the list's last step in canonical order
  // (the largest body image) and shares its valuation; rebinding one key
  // position to a key no step holds makes the same list acceptable.
  Corpus corpus = MakeCorpus();
  const Instance& instance = *corpus.checkpoint_instance;
  const DependencySet& deps = corpus.checkpoint_deps;
  std::istringstream in(corpus.checkpoint_bytes);
  const ChaseCheckpoint healthy = ChaseCheckpoint::Deserialize(in).value();
  ASSERT_TRUE(
      healthy.CompatibleWith(corpus.checkpoint_config, instance, deps));
  auto with_twin = [&](std::vector<PendingChaseStep> ChaseCheckpoint::*list,
                       bool same_key) {
    ChaseCheckpoint twin = healthy;
    PendingChaseStep step = (twin.*list).back();
    const Dependency& dep = deps.items[step.dep_index];
    step.row_ids.assign(step.row_ids.size(),
                        static_cast<int>(instance.NumTuples()) - 1);
    auto key_of = [&](const Valuation& match) {
      std::vector<int> key;
      for (const auto& [attr, var] : dep.HeadRowUniversals()) {
        key.push_back(match.Get(attr, var));
      }
      return key;
    };
    std::set<std::vector<int>> held;
    for (const PendingChaseStep& other : twin.*list) {
      if (other.dep_index == step.dep_index) held.insert(key_of(other.match));
    }
    if (!same_key) {
      const auto [attr, var] = dep.HeadRowUniversals().front();
      for (int value = 0; value < instance.DomainSize(attr) &&
                          held.count(key_of(step.match)) > 0;
           ++value) {
        step.match.Set(attr, var, value);
      }
    }
    EXPECT_EQ(held.count(key_of(step.match)) > 0, same_key);
    (twin.*list).push_back(step);
    return twin.CompatibleWith(corpus.checkpoint_config, instance, deps);
  };
  EXPECT_FALSE(with_twin(&ChaseCheckpoint::pending, /*same_key=*/true));
  EXPECT_FALSE(with_twin(&ChaseCheckpoint::carried, /*same_key=*/true));
  EXPECT_TRUE(with_twin(&ChaseCheckpoint::pending, /*same_key=*/false));
  EXPECT_TRUE(with_twin(&ChaseCheckpoint::carried, /*same_key=*/false));
}

TEST(SerializationCorruptTest, SessionSurvivesTheDamageSweep) {
  Corpus corpus = MakeCorpus();
  int rejected = 0;
  for (const std::string& damaged : DamagedVariants(corpus.session_bytes)) {
    std::istringstream in(damaged);
    Result<ChaseSession> result =
        ChaseSession::Deserialize(corpus.schema, in);
    if (!result.ok()) {
      ++rejected;
      EXPECT_EQ(result.code(), ErrorCode::kCorrupt) << result.error();
    }
  }
  EXPECT_GT(rejected, 0);
}

TEST(SerializationCorruptTest, ResultCacheStoreSurvivesTheDamageSweep) {
  // The store load is best-effort: a damaged file must either load cleanly
  // (flips can land in payload digits and still parse) or report kCorrupt,
  // keeping whatever prefix parsed — never crash, hang, or fabricate
  // entries beyond the declared count.
  Corpus corpus = MakeCorpus();
  int rejected = 0;
  for (const std::string& damaged : DamagedVariants(corpus.cache_bytes)) {
    ResultCache cache;
    std::istringstream in(damaged);
    Result<int> result = LoadResultCache(in, &cache);
    if (!result.ok()) {
      ++rejected;
      EXPECT_EQ(result.code(), ErrorCode::kCorrupt) << result.error();
    } else {
      EXPECT_LE(result.value(), 4);
    }
    EXPECT_LE(cache.Stats().entries, 4);
  }
  EXPECT_GT(rejected, 0);
}

TEST(SerializationCorruptTest, WireFrameSurvivesTheDamageSweep) {
  // The framed socket protocol: a payload-hash header means nearly every
  // damaged variant must be rejected (trailing garbage is legitimately
  // fine — frames are length-delimited on a stream).
  Corpus corpus = MakeCorpus();
  int rejected = 0;
  for (const std::string& damaged : DamagedVariants(corpus.frame_bytes)) {
    Result<Frame> result = DecodeFrame(damaged, nullptr);
    if (!result.ok()) {
      ++rejected;
      EXPECT_EQ(result.code(), ErrorCode::kCorrupt) << result.error();
    }
  }
  EXPECT_GT(rejected, 0);
}

TEST(SerializationCorruptTest, WireJobPayloadSurvivesTheDamageSweep) {
  Corpus corpus = MakeCorpus();
  int rejected = 0;
  for (const std::string& damaged :
       DamagedVariants(corpus.job_payload_bytes)) {
    Result<WireJob> result = DecodeJobPayload(damaged);
    if (!result.ok()) {
      ++rejected;
      EXPECT_EQ(result.code(), ErrorCode::kCorrupt) << result.error();
    }
  }
  EXPECT_GT(rejected, 0);
}

TEST(SerializationCorruptTest, WireResultPayloadSurvivesTheDamageSweep) {
  Corpus corpus = MakeCorpus();
  int rejected = 0;
  for (const std::string& damaged :
       DamagedVariants(corpus.result_payload_bytes)) {
    Result<WireResult> result = DecodeResultPayload(damaged);
    if (!result.ok()) {
      ++rejected;
      EXPECT_EQ(result.code(), ErrorCode::kCorrupt) << result.error();
    }
  }
  EXPECT_GT(rejected, 0);
}

TEST(SerializationCorruptTest, HealthyBytesStillRoundTrip) {
  // The sweep is only meaningful if the undamaged corpus parses.
  Corpus corpus = MakeCorpus();
  {
    std::istringstream in(corpus.tuple_store_bytes);
    EXPECT_TRUE(TupleStore::Deserialize(in).ok());
  }
  {
    std::istringstream in(corpus.instance_bytes);
    EXPECT_TRUE(Instance::Deserialize(corpus.schema, in).ok());
  }
  {
    std::istringstream in(corpus.checkpoint_bytes);
    EXPECT_TRUE(ChaseCheckpoint::Deserialize(in).ok());
  }
  {
    std::istringstream in(corpus.session_bytes);
    EXPECT_TRUE(ChaseSession::Deserialize(corpus.schema, in).ok());
  }
  {
    ResultCache cache;
    EXPECT_EQ(corpus.cache_bytes.rfind("tdlib-result-cache 4\n", 0), 0u);
    std::istringstream in(corpus.cache_bytes);
    Result<int> loaded = LoadResultCache(in, &cache);
    EXPECT_TRUE(loaded.ok());
    EXPECT_EQ(cache.Stats().entries, 4);
  }
  {
    std::size_t consumed = 0;
    Result<Frame> frame = DecodeFrame(corpus.frame_bytes, &consumed);
    EXPECT_TRUE(frame.ok());
    EXPECT_EQ(consumed, corpus.frame_bytes.size());
    Result<WireJob> job = DecodeJobPayload(corpus.job_payload_bytes);
    EXPECT_TRUE(job.ok());
    Result<WireResult> result =
        DecodeResultPayload(corpus.result_payload_bytes);
    EXPECT_TRUE(result.ok());
  }
}

}  // namespace
}  // namespace tdlib
