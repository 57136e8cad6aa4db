#include "chase/chase.h"

#include <algorithm>
#include <atomic>
#include <istream>
#include <new>
#include <ostream>
#include <sstream>
#include <tuple>
#include <utility>

#include "core/satisfaction.h"
#include "util/fault.h"
#include "util/hash.h"
#include "util/metrics.h"
#include "util/parallel.h"
#include "util/timer.h"
#include "util/trace_span.h"

namespace tdlib {
namespace {

// Registry handles resolved once per process (stable pointers), so the
// publication sites below pay a function-local-static load, not a map
// lookup. Everything here is a pure sink: published after a phase's
// deterministic work is done, never read back — that, plus the
// MetricsEnabled() gate inside each Add/Observe, is what keeps metrics
// on/off byte-identical (tests/metrics_test.cc).
struct ChaseMetrics {
  Counter* passes;
  Counter* steps;
  Counter* hom_nodes;
  Counter* hom_candidates;
  Counter* match_tasks;
  Counter* checkpoints;
  Histogram* match_seconds;
  Histogram* fire_seconds;
  Histogram* checkpoint_seconds;
};

ChaseMetrics& GetChaseMetrics() {
  static ChaseMetrics* m = [] {
    MetricsRegistry& r = MetricsRegistry::Global();
    auto* cm = new ChaseMetrics();
    cm->passes = r.GetCounter("chase.passes");
    cm->steps = r.GetCounter("chase.steps");
    cm->hom_nodes = r.GetCounter("chase.hom_nodes");
    cm->hom_candidates = r.GetCounter("chase.hom_candidates");
    cm->match_tasks = r.GetCounter("chase.match_tasks");
    cm->checkpoints = r.GetCounter("chase.checkpoints_taken");
    cm->match_seconds = r.GetHistogram("chase.match_seconds",
                                       LatencyBuckets());
    cm->fire_seconds = r.GetHistogram("chase.fire_seconds", LatencyBuckets());
    cm->checkpoint_seconds =
        r.GetHistogram("chase.checkpoint_seconds", LatencyBuckets());
    return cm;
  }();
  return *m;
}

// Match tasks run ahead of queued job-level work when the pool is shared
// with engine/BatchSolver: a pass cannot finish until its slowest member
// search does, so letting members jump the queue shortens the pass's
// critical path without adding threads.
constexpr int kMatchTaskPriority = 1 << 20;

// One pass over a pumped instance can enumerate an enormous stream of body
// matches (each with a head-witness sub-search), so waiting for the end of
// a search to look at the clock lets a deadline overshoot by seconds. The
// check runs inside the match stream too, amortized over this many matches
// to keep clock reads off the per-match fast path.
constexpr std::uint64_t kDeadlineCheckInterval = 256;

// auto_burst's cap for flat-growth passes when max_fires_per_pass is 0: the
// burst size where the reduction-sweep ablation showed delta matching
// paying most (ROADMAP "burst tuning").
constexpr std::uint64_t kAutoBurstCap = 64;

// Budget-informed Reserve is only worth it when the budget is genuinely
// tight; pre-sizing for the default million-tuple ceiling would allocate
// hundreds of megabytes for chases that stop at a fixpoint of fifty.
constexpr std::uint64_t kReserveLimit = 1 << 16;

// Pre-sizes the instance's arena, dedup table, CSR slabs and domain vectors
// for the run's known tuple ceiling, so a budget-bounded chase grows each
// structure O(log n) times instead of rehashing/reallocating its way up.
void ReserveForBudget(Instance* instance, const DependencySet& deps,
                      const ChaseConfig& config) {
  std::uint64_t bound = config.max_tuples;
  std::size_t max_head_rows = 0;
  for (const Dependency& dep : deps.items) {
    max_head_rows = std::max(max_head_rows,
                             static_cast<std::size_t>(dep.head().num_rows()));
  }
  if (config.max_steps > 0 && max_head_rows > 0) {
    std::uint64_t step_bound =
        instance->NumTuples() + config.max_steps * max_head_rows;
    bound = bound == 0 ? step_bound : std::min(bound, step_bound);
  }
  if (bound <= instance->NumTuples() || bound > kReserveLimit) return;
  std::size_t max_domain = 0;
  for (int attr = 0; attr < instance->schema().arity(); ++attr) {
    max_domain = std::max(max_domain,
                          static_cast<std::size_t>(instance->DomainSize(attr)));
  }
  // Every fired step invents at most one labeled null per attribute per new
  // tuple, so the domain ceiling is current + new tuples.
  instance->Reserve(static_cast<std::size_t>(bound),
                    max_domain + static_cast<std::size_t>(
                                     bound - instance->NumTuples()));
}

// Head-witness checks go through core/satisfaction.h's reusable
// HeadChecker (one index probe per check for a TD head, a seeded search
// for a multi-row head). Head-witness checks always run against the full
// current instance — the delta window and the pass's id cap apply only to
// body enumeration.

// Inserts dep's head rows under `h`, inventing labeled nulls for existential
// variables, and sets *new_ids to the ids of the newly inserted tuples.
// `extended` and `tuple` are the caller's scratch, reused across fires.
void FireStep(const Dependency& dep, Instance* instance, const Valuation& h,
              Valuation* extended, Tuple* tuple, std::vector<int>* new_ids) {
  // One fresh null per distinct existential variable that appears in the
  // head (shared across head rows, as EID semantics requires).
  *extended = h;
  for (const Row& row : dep.head().rows()) {
    for (int attr = 0; attr < dep.schema().arity(); ++attr) {
      int var = row[attr];
      if (!extended->Bound(attr, var)) {
        int fresh = instance->AddValue(attr, "", /*labeled_null=*/true);
        extended->Set(attr, var, fresh);
      }
    }
  }
  new_ids->clear();
  tuple->resize(static_cast<std::size_t>(dep.schema().arity()));
  for (const Row& row : dep.head().rows()) {
    for (int attr = 0; attr < dep.schema().arity(); ++attr) {
      (*tuple)[attr] = extended->Get(attr, row[attr]);
    }
    std::size_t before = instance->NumTuples();
    if (instance->AddTuple(*tuple)) {
      new_ids->push_back(static_cast<int>(before));
    }
  }
}

// Writes the head key of `match` — its values on `positions`, the
// dependency's HeadRowUniversals — into *key. Whether a step's head is
// witnessed depends on its key alone, so of a dependency's steps with one key
// the canonically first either fires (and its tuples witness the key) or is
// already witnessed: the fire loop skips every later one. The match memo, the
// wave merge and CompatibleWith all keep one step per (dependency, key).
void HeadKeyInto(const std::vector<std::pair<int, int>>& positions,
                 const Valuation& match, std::vector<int>* key) {
  key->clear();
  for (const auto& [attr, var] : positions) key->push_back(match.Get(attr, var));
}

// One collected applicable step. `row_ids` is the body image — the tuple id
// each body row maps to under `match`, in tableau row order. It is the
// canonical sort key that makes the fire order independent of how matches
// were enumerated (full scan, semi-naive partition, any interleaving of
// concurrent tasks), which is what keeps naive/delta and serial/pooled runs
// byte-identical. Public (chase.h) because ChaseCheckpoint persists these.
using PendingStep = PendingChaseStep;

// A table from one dependency's head keys to ints: open addressing over an
// arena that stores the keys back to back (all of a dependency's keys have
// the same width), so a new key costs no allocation of its own. A match
// task looks up one key per body match, and the lookup must stay cheaper
// than the head probe it saves.
class HeadKeyTable {
 public:
  explicit HeadKeyTable(std::size_t width) : width_(width), slots_(64, 0) {}

  // Finds `key`, inserting it with value -1 when absent. Returns its value
  // (valid until the next Insert) and whether it was inserted.
  std::pair<int*, bool> Insert(const std::vector<int>& key) {
    const std::size_t mask = slots_.size() - 1;
    for (std::size_t i = Hash(key.data()) & mask;; i = (i + 1) & mask) {
      const std::uint32_t entry = slots_[i];
      if (entry == 0) {
        keys_.insert(keys_.end(), key.begin(), key.end());
        values_.push_back(-1);
        slots_[i] = static_cast<std::uint32_t>(values_.size());
        if (values_.size() * 2 > slots_.size()) Grow();
        return {&values_.back(), true};
      }
      if (std::equal(key.begin(), key.end(), KeyAt(entry - 1))) {
        return {&values_[entry - 1], false};
      }
    }
  }

 private:
  const int* KeyAt(std::size_t e) const { return keys_.data() + e * width_; }

  // FNV-1a over the key's ints, then one SplitMix64 so the low bits the
  // slot mask keeps depend on every bit of every value.
  std::size_t Hash(const int* key) const {
    std::uint64_t h = 0xcbf29ce484222325ULL;
    for (std::size_t j = 0; j < width_; ++j) {
      h = (h ^ static_cast<std::uint32_t>(key[j])) * 0x100000001b3ULL;
    }
    return static_cast<std::size_t>(SplitMix64(h));
  }

  // Doubles the slot array at half load, so a probe run stays short.
  void Grow() {
    slots_.assign(slots_.size() * 2, 0);
    const std::size_t mask = slots_.size() - 1;
    for (std::size_t e = 0; e < values_.size(); ++e) {
      std::size_t i = Hash(KeyAt(e)) & mask;
      while (slots_[i] != 0) i = (i + 1) & mask;
      slots_[i] = static_cast<std::uint32_t>(e + 1);
    }
  }

  std::size_t width_;
  std::vector<std::uint32_t> slots_;  // entry index + 1; 0 = empty
  std::vector<int> keys_;             // width_ ints per entry
  std::vector<int> values_;
};

// Walks a step list grouped by dependency and answers, per step, whether it
// is the first of its dependency's run to hold its head key.
class HeadKeyFilter {
 public:
  explicit HeadKeyFilter(const DependencySet& deps) : deps_(deps) {}

  bool First(const PendingStep& step) {
    if (step.dep_index != dep_index_) {
      dep_index_ = step.dep_index;
      positions_ = &deps_.items[dep_index_].HeadRowUniversals();
      held_ = HeadKeyTable(positions_->size());
    }
    HeadKeyInto(*positions_, step.match, &key_);
    return held_.Insert(key_).second;
  }

 private:
  const DependencySet& deps_;
  int dep_index_ = -1;
  const std::vector<std::pair<int, int>>* positions_ = nullptr;
  HeadKeyTable held_{0};
  std::vector<int> key_;
};

// Carried re-checks are batched: one task re-checks a contiguous chunk of
// the (canonically ordered) carried list. A gap-regime chase can carry a
// six-figure backlog, and a task per step would rebuild a head checker for
// a single probe; a chunk amortizes one checker per dependency run while
// still producing enough tasks to feed every worker.
constexpr std::size_t kCarriedChunk = 64;

// One unit of a wave's matching: the re-check of one chunk of carried
// steps, or one body search (a full/any-row scan, or one member
// (dependency, seed row) of the semi-naive partition). Tasks are enumerated
// in a fixed order, only read the instance, and write nothing but their own
// MatchOutput slot — which is exactly what lets them run on pool workers.
struct MatchTask {
  enum class Kind { kCarried, kSearch };
  Kind kind;
  int dep_index = -1;             // kSearch
  std::size_t carried_begin = 0;  // kCarried: chunk [begin, end)
  std::size_t carried_end = 0;
  // Body-search delta window, pre-resolved at task-list build time:
  // delta_begin < 0 = unrestricted scan, seed_row < 0 = any-row scan,
  // otherwise one partition member — possibly narrowed to the seed-row
  // slice [slice_begin, slice_end) when the member was split into
  // sub-tasks (slice_begin < 0 = the whole delta).
  int delta_begin = -1;
  int delta_seed_row = -1;
  int slice_begin = -1;
  int slice_end = -1;
};

// Per-task buffer: the steps this task found applicable plus its search
// counters. Stats are summed across tasks after the join — HomSearchStats
// is search-local, never shared between live searches.
struct MatchOutput {
  std::vector<PendingStep> pending;
  HomSearchStats stats;
};

// Executes one match task against the read-only `instance`. `base_options`
// carries the run's node budget, deadline and (in pooled mode) the shared
// cancel flag; body searches bind only tuple ids below `id_cap` (the pass
// start), while head checks see the whole current instance. Carried steps
// are moved out of *carried when still unwitnessed; distinct tasks touch
// distinct carried slots.
void RunMatchTask(const MatchTask& task, const DependencySet& deps,
                  const Instance& instance,
                  const HomSearchOptions& base_options, int id_cap,
                  std::vector<PendingStep>* carried, MatchOutput* out) {
  if (task.kind == MatchTask::Kind::kCarried) {
    // Re-check the chunk in carry order (which is canonical order, so the
    // kept steps land in *out already sorted). The carried list is grouped
    // by dependency, so one head checker serves each run of same-dep steps.
    std::optional<HeadChecker> head;
    int head_dep = -1;
    for (std::size_t ci = task.carried_begin; ci < task.carried_end; ++ci) {
      PendingStep& step = (*carried)[ci];
      const Dependency& dep = deps.items[step.dep_index];
      if (head_dep != step.dep_index) {
        head.emplace(dep, instance, base_options);
        head_dep = step.dep_index;
      }
      // A fire since this step was collected may have witnessed it (the
      // naive full scan drops those the same way).
      if (!head->Witnessed(step.match, &out->stats)) {
        out->pending.push_back(std::move(step));
      }
      if (out->stats.budget_hit) return;
      // One clock read per re-check, unamortized: every re-check runs a
      // head check too small for Backtrack's own 512-node cadence, and a
      // bounded-burst pass with a huge carried backlog would otherwise
      // overshoot the deadline by the entire backlog.
      if (base_options.deadline != nullptr &&
          base_options.deadline->Expired()) {
        out->stats.budget_hit = true;
        out->stats.deadline_hit = true;
        return;
      }
    }
    return;
  }

  const Dependency& dep = deps.items[task.dep_index];
  HomSearchOptions body_options = base_options;
  body_options.delta_begin = task.delta_begin;
  body_options.delta_seed_row = task.delta_seed_row;
  body_options.delta_seed_begin = task.slice_begin;
  body_options.delta_seed_end = task.slice_end;
  body_options.id_cap = id_cap;
  HomomorphismSearch body_search(dep.body(), instance, body_options);
  // One reusable head checker for the whole body-match stream: this task
  // runs a head check per enumerated match, and rebuilding the checker
  // each time would put allocations on the hot path.
  HeadChecker head(dep, instance, base_options);
  // Head-key memo: a key the task has seen maps to "witnessed" (-1) or to
  // the index of its kept pending step. The task only reads the instance,
  // so a repeated key's answer cannot change and it skips the head check;
  // an unwitnessed repeat keeps whichever step has the smaller body image.
  const std::vector<std::pair<int, int>>& positions = dep.HeadRowUniversals();
  HeadKeyTable seen(positions.size());
  std::vector<int> key;
  // body_search.row_tuples() is the match's body image, already computed by
  // the backtracker — no per-row FindTuple on the hot path.
  std::uint64_t matches_seen = 0;
  auto collect = [&](const Valuation& h) {
    HeadKeyInto(positions, h, &key);
    auto [kept_index, inserted] = seen.Insert(key);
    if (inserted) {
      if (!head.Witnessed(h, &out->stats)) {
        *kept_index = static_cast<int>(out->pending.size());
        out->pending.push_back(
            PendingStep{task.dep_index, h, body_search.row_tuples()});
      }
    } else if (*kept_index >= 0) {
      PendingStep& kept = out->pending[static_cast<std::size_t>(*kept_index)];
      if (body_search.row_tuples() < kept.row_ids) {
        kept.match = h;
        kept.row_ids = body_search.row_tuples();
      }
    }
    if (out->stats.budget_hit) return false;
    if (++matches_seen % kDeadlineCheckInterval == 0 &&
        base_options.deadline != nullptr && base_options.deadline->Expired()) {
      out->stats.budget_hit = true;
      out->stats.deadline_hit = true;
      return false;
    }
    // A sibling's budget trip must stop this task even when its searches
    // are all smaller than Backtrack's own cancel cadence (512 nodes); one
    // relaxed load per match is noise next to the head check above.
    if (base_options.cancel != nullptr &&
        base_options.cancel->load(std::memory_order_relaxed)) {
      out->stats.budget_hit = true;
      return false;
    }
    // The job-level cancel flag rides the same per-match cadence, so a
    // cancelled job stops promptly even when each individual search is
    // smaller than Backtrack's own check interval.
    if (base_options.job_cancel != nullptr &&
        base_options.job_cancel->load(std::memory_order_relaxed)) {
      out->stats.budget_hit = true;
      out->stats.cancel_hit = true;
      return false;
    }
    return true;
  };
  body_search.ForEach(collect);
  out->stats.MergeFrom(body_search.stats());
  // End-of-task deadline read, mirroring the kCarried branch: a pass of
  // many small member searches — each under Backtrack's 512-node and the
  // stream's 256-match cadences — must still observe the wall clock at
  // least once per task, or a serial matching phase could overshoot a
  // clamped milliseconds-scale deadline by the whole task list.
  if (!out->stats.budget_hit && base_options.deadline != nullptr &&
      base_options.deadline->Expired()) {
    out->stats.budget_hit = true;
    out->stats.deadline_hit = true;
  }
}

// Appends dependency `di`'s body searches over the pass window
// [match_begin, pass_start) to *tasks, partition members in seed-row order.
// A pure function of (config, window), so serial and pooled runs execute
// the same searches.
void AppendSearchTasks(const DependencySet& deps, std::size_t di,
                       const ChaseConfig& config, std::size_t match_begin,
                       std::size_t pass_start, std::vector<MatchTask>* tasks) {
  // Nothing new: every match was enumerated in an earlier pass and is
  // witnessed.
  if (config.use_delta && match_begin >= pass_start) return;
  MatchTask t;
  t.kind = MatchTask::Kind::kSearch;
  t.dep_index = static_cast<int>(di);
  if (!config.use_delta || match_begin == 0) {
    // Naive mode or the first pass: one unrestricted scan.
    tasks->push_back(t);
    return;
  }
  t.delta_begin = static_cast<int>(match_begin);
  // The partition pays one restricted search per body row; when the delta
  // is most of the instance (a pumping pass), those members cost more
  // together than the full scan they replace. Use the partition only while
  // the delta is the minority — the canonical fire order keeps results
  // identical whichever matcher ran.
  if ((pass_start - match_begin) * 2 > pass_start) {
    // Majority delta: one pruned scan ("any row hits the delta") — never
    // more nodes than naive, and the all-old matches' head checks are
    // still skipped.
    tasks->push_back(t);
    return;
  }
  // Union of the semi-naive partition: seed row s in the delta, rows
  // before s in the old region, rows after s unrestricted. Every
  // delta-touching match is enumerated exactly once; all-old matches —
  // already enumerated (and fired or witnessed) in the pass that saw their
  // newest tuple — are skipped entirely.
  //
  // Work stealing for few-member passes: a big delta is further cut into
  // equal id slices of the seed row's window, so even a 1-dependency pass
  // produces enough sub-tasks to feed every worker. The slicing depends
  // only on (config, delta) — never on the pool.
  const std::uint64_t delta_size =
      static_cast<std::uint64_t>(pass_start - match_begin);
  const bool sliced =
      config.match_slice_ids > 0 && delta_size > config.match_slice_ids;
  for (int s = 0; s < deps.items[di].body().num_rows(); ++s) {
    t.delta_seed_row = s;
    if (!sliced) {
      tasks->push_back(t);
      continue;
    }
    for (std::size_t lo = match_begin; lo < pass_start;
         lo += config.match_slice_ids) {
      MatchTask slice = t;
      slice.slice_begin = static_cast<int>(lo);
      slice.slice_end = static_cast<int>(
          std::min<std::size_t>(lo + config.match_slice_ids, pass_start));
      tasks->push_back(slice);
    }
  }
}

// A pass matches and fires its dependencies in waves: whole dependencies
// in canonical order, each wave adding dependencies until it holds at
// least this many body-search tasks. Sixteen keeps a 4-thread pool busy
// (four tasks per worker, so one long member search does not idle the
// rest) while a wave stays a small slice of a wide dependency set — the
// pass that spends the step budget stops at most one wave past the
// dependency whose fire spends the last step. A constant, never the pool
// width: wave boundaries, and with them every counter, are the same
// serially and at any thread count.
constexpr std::size_t kWaveTasks = 16;

// Builds the wave that starts at dependency `first_dep`: the re-checks of
// the carried steps of its dependencies (carried[*carried_pos, end), in
// chunks, in carry order) followed by its body searches. Returns the first
// dependency after the wave and advances *carried_pos past its share.
// Wave boundaries depend only on (deps, config, window).
std::size_t BuildWave(const DependencySet& deps, const ChaseConfig& config,
                      std::size_t match_begin, std::size_t pass_start,
                      std::size_t first_dep,
                      const std::vector<PendingStep>& carried,
                      std::size_t* carried_pos,
                      std::vector<MatchTask>* tasks) {
  std::vector<MatchTask> searches;
  std::size_t end = first_dep;
  while (end < deps.items.size() &&
         (end == first_dep || searches.size() < kWaveTasks)) {
    AppendSearchTasks(deps, end, config, match_begin, pass_start, &searches);
    ++end;
  }
  std::size_t carried_end = *carried_pos;
  while (carried_end < carried.size() &&
         static_cast<std::size_t>(carried[carried_end].dep_index) < end) {
    ++carried_end;
  }
  tasks->clear();
  for (std::size_t ci = *carried_pos; ci < carried_end; ci += kCarriedChunk) {
    MatchTask t;
    t.kind = MatchTask::Kind::kCarried;
    t.carried_begin = ci;
    t.carried_end = std::min(ci + kCarriedChunk, carried_end);
    tasks->push_back(t);
  }
  tasks->insert(tasks->end(), searches.begin(), searches.end());
  *carried_pos = carried_end;
  return end;
}

}  // namespace

bool HasApplicableStep(const Dependency& dep, const Instance& instance,
                       const HomSearchOptions& options) {
  bool applicable = false;
  HomSearchStats stats;
  HomomorphismSearch body_search(dep.body(), instance, options);
  HeadChecker head(dep, instance, options);
  body_search.ForEach([&](const Valuation& h) {
    if (!head.Witnessed(h, &stats)) {
      applicable = true;
      return false;
    }
    return true;
  });
  return applicable;
}

ChaseResult RunChase(Instance* instance, const DependencySet& deps,
                     const ChaseConfig& config, const ChaseGoal& goal) {
  return RunChase(instance, deps, config, goal, /*checkpoint=*/nullptr);
}

ChaseResult RunChase(Instance* instance, const DependencySet& deps,
                     const ChaseConfig& config, const ChaseGoal& goal,
                     ChaseCheckpoint* checkpoint) {
  ChaseResult result;
  Deadline deadline(config.deadline_seconds);
  HomSearchOptions hom_options = config.HomOptions();
  // Every search below — body enumeration and head sub-searches alike —
  // shares the run's deadline, so even one huge homomorphism search is cut
  // off close to the wall-clock budget.
  hom_options.deadline = &deadline;
  // The engine's cancel flag reaches every search the same way.
  hom_options.job_cancel = config.cancel;

  // When several limits trip together: a cancel request outranks everything
  // (the caller asked for it), then the wall clock, then the node budget.
  auto limit_status = [&](const HomSearchStats& stats) {
    if (stats.cancel_hit) return ChaseStatus::kCancelled;
    if (stats.deadline_hit || deadline.Expired()) return ChaseStatus::kTimeout;
    return ChaseStatus::kHomBudget;
  };
  auto cancelled = [&] {
    return config.cancel != nullptr &&
           config.cancel->load(std::memory_order_relaxed);
  };
  // Each phase boundary has its own injection site, so tests can land a
  // cancel (or an allocation failure) on exactly one boundary and assert
  // the job still publishes exactly one terminal outcome. All checks are
  // behind the FaultInjectionEnabled() relaxed-load gate.
  auto injected = [](FaultSite site) {
    return FaultInjectionEnabled() && ShouldInject(site);
  };

  // Tuples with id >= delta_begin are "new" since the previous pass's
  // matching window closed. 0 on the first pass, so pass 1 matches the
  // whole seed instance in either mode.
  std::size_t delta_begin = 0;

  // Steps an earlier pass's burst cap left unfired (delta mode only; the
  // naive full re-match re-discovers them instead), in canonical order.
  // Every entry touches a tuple that is old by now, so the delta
  // enumeration below would never see it again. The current pass re-checks
  // `carried` wave by wave — carried_pos is the first entry not yet taken
  // up — and fills next_carried for the pass after it.
  std::vector<PendingStep> carried;
  std::size_t carried_pos = 0;
  std::vector<PendingStep> next_carried;

  // The current pass's cursor, hoisted out of the loop so a checkpoint
  // resume can re-enter the pass between two fires of a wave. The pass's
  // body searches bind tuple ids below pass_start, the delta being
  // [match_begin, pass_start); next_dep is the first dependency not yet
  // matched; pending[pending_pos, end) is the current wave's unfired tail.
  // pass_fire_cap is the pass's effective burst cap — config.max_fires_per_
  // pass unless auto_burst retunes it at pass start (a resume restores the
  // interrupted pass's value from the checkpoint).
  std::size_t match_begin = 0;
  std::size_t pass_start = 0;
  std::size_t next_dep = 0;
  std::vector<PendingStep> pending;
  std::size_t pending_pos = 0;
  bool pass_found_steps = false;
  std::uint64_t fired_this_pass = 0;
  std::uint64_t pass_fire_cap = config.max_fires_per_pass;
  bool resuming = false;

  // Budgeted runs know their tuple ceiling up front; growing to it in one
  // Reserve beats rehash/realloc churn on every doubling. Harmless on
  // resume (Reserve is idempotent) and skipped for loose budgets.
  ReserveForBudget(instance, deps, config);

  if (checkpoint != nullptr && checkpoint->valid) {
    // A cancel landing exactly at resume entry terminates the run WITHOUT
    // consuming the checkpoint: the parked state stays valid for the next
    // attempt, so an ill-timed cancel costs nothing but this run.
    if (cancelled() || injected(FaultSite::kCancelResume)) {
      result.status = ChaseStatus::kCancelled;
      return result;
    }
    // Continue the interrupted pass: the caller restored (or kept) the
    // instance the checkpoint was taken against and verified
    // ResumableWith. Counters continue, so the eventual ChaseResult is the
    // one an uninterrupted run would have produced.
    match_begin = checkpoint->match_begin;
    pass_start = checkpoint->pass_start;
    next_dep = checkpoint->next_dep;
    fired_this_pass = checkpoint->fired_this_pass;
    pass_fire_cap = checkpoint->fire_cap_this_pass;
    pending = std::move(checkpoint->pending);
    carried = std::move(checkpoint->carried);
    // A checkpoint is only taken with a step in hand.
    pass_found_steps = true;
    result.steps = checkpoint->steps;
    result.passes = checkpoint->passes;
    result.hom_nodes = checkpoint->hom_nodes;
    result.hom_candidates = checkpoint->hom_candidates;
    result.match_tasks = checkpoint->match_tasks;
    result.carried_passes = checkpoint->carried_passes;
    result.trace = std::move(checkpoint->trace);
    checkpoint->Reset();  // consumed; refilled only on a resumable stop
    resuming = true;
    // No initial goal check: the uninterrupted run checked the goal after
    // the last fire (eager mode) and found it false, or defers to the pass
    // end (lazy mode) — the resumed loop reproduces both.
  } else {
    if (checkpoint != nullptr) checkpoint->Reset();
    if (goal && goal(*instance)) {
      result.status = ChaseStatus::kGoal;
      return result;
    }
  }

  // Captures the resumable state right before a kStepLimit / kTupleLimit
  // return: the pass cursor, the current wave's unfired tail from
  // `next_index`, the carried steps of the waves not yet matched, and the
  // cumulative counters (result already includes the wave's firing-phase
  // hom nodes by the time this runs). The burst cap stops firing for the
  // rest of the pass, so no stop that checkpoints comes after it: the
  // pass's next_carried is always empty here.
  auto take_checkpoint = [&](std::size_t next_index) {
    if (checkpoint == nullptr) return;
    // A cancel racing the capture wins: the run is already stopping, and
    // honoring the cancel means reporting kCancelled with no checkpoint
    // (the caller asked the job to die, not to pause). The budget status
    // the caller just set is overwritten before it becomes observable.
    if (cancelled() || injected(FaultSite::kCancelCheckpoint)) {
      result.status = ChaseStatus::kCancelled;
      return;
    }
    TraceSpan span("chase.checkpoint");
    StopWatch watch;
    ScopedTimer accumulate(&result.checkpoint_seconds);
    checkpoint->Reset();
    checkpoint->valid = true;
    checkpoint->match_begin = match_begin;
    checkpoint->pass_start = pass_start;
    checkpoint->next_dep = next_dep;
    checkpoint->fired_this_pass = fired_this_pass;
    checkpoint->fire_cap_this_pass = pass_fire_cap;
    checkpoint->pending.assign(
        std::make_move_iterator(pending.begin() +
                                static_cast<std::ptrdiff_t>(next_index)),
        std::make_move_iterator(pending.end()));
    checkpoint->carried.assign(
        std::make_move_iterator(carried.begin() +
                                static_cast<std::ptrdiff_t>(carried_pos)),
        std::make_move_iterator(carried.end()));
    checkpoint->steps = result.steps;
    checkpoint->passes = result.passes;
    checkpoint->hom_nodes = result.hom_nodes;
    checkpoint->hom_candidates = result.hom_candidates;
    checkpoint->match_tasks = result.match_tasks;
    checkpoint->carried_passes = result.carried_passes;
    checkpoint->trace = result.trace;
    checkpoint->CaptureShape(config);
    if (MetricsEnabled()) {
      ChaseMetrics& m = GetChaseMetrics();
      m.checkpoints->Add(1);
      m.checkpoint_seconds->Observe(watch.ElapsedSeconds());
    }
  };

  auto cap_reached = [&] {
    return pass_fire_cap > 0 && fired_this_pass >= pass_fire_cap;
  };

  // ---- Matching a wave: read-only over the current instance --------------
  //
  // Body searches bind only ids below pass_start, so every wave of the pass
  // enumerates the matches the pass-start instance offers, exactly as if
  // the whole pass were matched up front. Head checks look at the CURRENT
  // instance: a step an earlier wave's fires have witnessed is dropped here
  // rather than at its own fire, where the re-check would skip it anyway.
  // The task list, and hence the set of searches, is identical in serial
  // and pooled mode; only where each search runs differs. Returns false
  // when the run stops (result.status set).
  auto match_wave = [&]() -> bool {
    // Phase observation only: the span/watch read the clock (when armed)
    // and publish when the phase ends; nothing below consults them.
    TraceSpan match_span("chase.match");
    StopWatch match_watch;
    if (cancelled()) {
      result.status = ChaseStatus::kCancelled;
      return false;
    }
    std::vector<MatchTask> tasks;
    next_dep = BuildWave(deps, config, match_begin, pass_start, next_dep,
                         carried, &carried_pos, &tasks);
    std::vector<MatchOutput> outputs(tasks.size());
    result.match_tasks += tasks.size();
    const int id_cap = static_cast<int>(pass_start);

    if (config.pool != nullptr && tasks.size() > 1) {
      // Fan out. Tasks write only their own output slot; a budget/deadline
      // trip in any task raises the shared cancel flag so sibling searches
      // wind down instead of completing doomed work.
      std::atomic<bool> cancel{false};
      HomSearchOptions task_options = hom_options;
      task_options.cancel = &cancel;
      ParallelFor(
          config.pool, tasks.size(),
          [&](std::size_t i) {
            // The wave is already doomed once any sibling tripped; skipping
            // outright (like the serial early break below) only changes
            // budget-tripped runs, which are outside the parity guarantee.
            if (cancel.load(std::memory_order_relaxed)) return;
            RunMatchTask(tasks[i], deps, *instance, task_options, id_cap,
                         &carried, &outputs[i]);
            if (outputs[i].stats.budget_hit) {
              cancel.store(true, std::memory_order_relaxed);
            }
          },
          kMatchTaskPriority);
    } else {
      for (std::size_t i = 0; i < tasks.size(); ++i) {
        RunMatchTask(tasks[i], deps, *instance, hom_options, id_cap, &carried,
                     &outputs[i]);
        if (outputs[i].stats.budget_hit) break;  // remaining work is doomed
      }
    }

    // Aggregate per-task stats — the explicit sum-after-join that keeps
    // HomSearchStats search-local (no shared counters between live
    // searches).
    HomSearchStats match_stats;
    for (const MatchOutput& out : outputs) match_stats.MergeFrom(out.stats);
    result.hom_nodes += match_stats.nodes;
    result.hom_candidates += match_stats.candidates;
    // Publish the phase: one timing read + a handful of gated counter
    // adds, after the deterministic work is complete. Sits before the
    // budget-trip returns so every wave — including a tripped one — is
    // accounted exactly once.
    const double match_elapsed = match_watch.ElapsedSeconds();
    result.match_seconds += match_elapsed;
    if (MetricsEnabled()) {
      ChaseMetrics& m = GetChaseMetrics();
      m.match_tasks->Add(static_cast<std::int64_t>(tasks.size()));
      m.hom_nodes->Add(static_cast<std::int64_t>(match_stats.nodes));
      m.hom_candidates->Add(static_cast<std::int64_t>(match_stats.candidates));
      m.match_seconds->Observe(match_elapsed);
    }
    if (match_stats.budget_hit) {
      result.status = limit_status(match_stats);
      return false;
    }
    if (deadline.Expired()) {
      result.status = ChaseStatus::kTimeout;
      return false;
    }

    // Merge the per-task buffers. Task order is canonical, but the
    // sort+merge below is what actually fixes the fire order: entries
    // with equal (dep_index, row_ids) are fully identical (the body image
    // determines the valuation), so the merge order cannot leak into the
    // result.
    std::size_t total_pending = 0;
    std::size_t carried_prefix = 0;
    for (std::size_t i = 0; i < outputs.size(); ++i) {
      total_pending += outputs[i].pending.size();
      if (tasks[i].kind == MatchTask::Kind::kCarried) {
        carried_prefix += outputs[i].pending.size();
      }
    }
    pending.clear();
    pending_pos = 0;
    pending.reserve(total_pending);
    for (MatchOutput& out : outputs) {
      for (PendingStep& step : out.pending) {
        pending.push_back(std::move(step));
      }
    }
    if (pending.empty()) return true;
    pass_found_steps = true;

    // Fire in canonical (dependency, body image) order. Decoupling the
    // fire order from enumeration order is what makes the result —
    // including the ids of invented nulls — a function of the *set* of
    // applicable steps, identical across matching strategies and thread
    // counts; waves cover whole dependencies in dependency order, so
    // firing wave after wave is firing the whole pass in that order. The
    // carried re-checks (a prefix of the wave's tasks) kept their steps in
    // canonical order already, so only the freshly enumerated tail needs
    // the O(n log n) sort; a gap-regime pass with a six-figure carried
    // backlog and a handful of new matches pays one linear merge instead
    // of re-sorting the whole backlog.
    // FaultSite::kFireOrderFlip is the harness's deliberate bug: it
    // reverses the body-image ordering for this wave's sort, exactly the
    // kind of one-comparison mistake the differential fuzzer exists to
    // catch (flipped fire order changes labeled-null invention order,
    // which diverges the instance bytes). Evaluated once per wave — a
    // strict weak ordering must not change mid-sort.
    const bool flip_order = injected(FaultSite::kFireOrderFlip);
    auto canonical = [flip_order](const PendingStep& a,
                                  const PendingStep& b) {
      if (a.dep_index != b.dep_index) {
        return a.dep_index < b.dep_index;
      }
      return flip_order ? b.row_ids < a.row_ids : a.row_ids < b.row_ids;
    };
    if (flip_order) {
      // The carried prefix was stored under the true ordering; a full
      // re-sort keeps inplace_merge's sorted-halves precondition out of
      // the picture while the injected comparator is live.
      std::sort(pending.begin(), pending.end(), canonical);
    } else {
      std::sort(pending.begin() + static_cast<std::ptrdiff_t>(carried_prefix),
                pending.end(), canonical);
      std::inplace_merge(pending.begin(),
                         pending.begin() +
                             static_cast<std::ptrdiff_t>(carried_prefix),
                         pending.end(), canonical);
    }
    // One step per head key: a later step of a dependency whose key an
    // earlier one holds — from another partition task or the carried
    // prefix — is one the fire loop would skip.
    HeadKeyFilter filter(deps);
    pending.erase(std::remove_if(pending.begin(), pending.end(),
                                 [&](const PendingStep& step) {
                                   return !filter.First(step);
                                 }),
                  pending.end());
    if (cap_reached()) {
      // The burst cap already stopped this pass's fires: the wave's steps
      // wait for the next pass (delta mode only reaches here; the naive
      // matcher stops matching at the cap and re-finds them).
      next_carried.insert(next_carried.end(),
                          std::make_move_iterator(pending.begin()),
                          std::make_move_iterator(pending.end()));
      pending.clear();
    }
    return true;
  };

  // ---- Firing a wave: serial, on the calling thread ----------------------
  //
  // Fires pending[pending_pos, end). Returns false when the run stops
  // (result.status set).
  auto fire_wave = [&]() -> bool {
    if (pending_pos >= pending.size()) return true;
    HomSearchStats fire_stats;
    TraceSpan fire_span("chase.fire");
    StopWatch fire_watch;
    const std::uint64_t steps_at_fire_start = result.steps;
    // Every exit below must fold the firing phase's search counters (and,
    // riding the same guarantee, its wall time and metrics) into the
    // result exactly once; one flush helper keeps the next exit branch from
    // forgetting a counter. Called exactly once per firing-phase exit.
    auto flush_fire_stats = [&] {
      result.hom_nodes += fire_stats.nodes;
      result.hom_candidates += fire_stats.candidates;
      const double fire_elapsed = fire_watch.ElapsedSeconds();
      result.fire_seconds += fire_elapsed;
      if (MetricsEnabled()) {
        ChaseMetrics& m = GetChaseMetrics();
        m.steps->Add(
            static_cast<std::int64_t>(result.steps - steps_at_fire_start));
        m.hom_nodes->Add(static_cast<std::int64_t>(fire_stats.nodes));
        m.hom_candidates->Add(
            static_cast<std::int64_t>(fire_stats.candidates));
        m.fire_seconds->Observe(fire_elapsed);
      }
    };
    // Pending is sorted by dependency, so one head checker serves each run
    // of same-dependency steps; it reads the instance through a reference
    // and therefore sees every tuple the intervening fires insert.
    std::optional<HeadChecker> fire_head;
    int fire_head_dep = -1;
    // FireStep's scratch, reused across the wave's fires.
    Valuation extended;
    Tuple head_tuple;
    std::vector<int> new_ids;
    for (; pending_pos < pending.size(); ++pending_pos) {
      const std::size_t pi = pending_pos;
      if (cap_reached()) {
        // Burst cap: the rest of the pass waits for the next one. The
        // naive full re-match will re-discover it; the delta matcher would
        // not (every entry is old by then), so stash it.
        if (config.use_delta) {
          next_carried.insert(next_carried.end(),
                              std::make_move_iterator(pending.begin() + pi),
                              std::make_move_iterator(pending.end()));
        }
        pending.clear();
        pending_pos = 0;
        break;
      }
      if (cancelled() || injected(FaultSite::kCancelFire)) {
        // Between-fire cancel check: a cancelled job must not keep firing a
        // huge pending burst to the end of the pass. No checkpoint — the
        // caller asked the job to die, not to pause deterministically.
        flush_fire_stats();
        result.status = ChaseStatus::kCancelled;
        return false;
      }
      // Graceful degradation for allocation failure: the between-fire
      // boundary is the one place the instance is in a well-defined state
      // with the remaining work in hand, so an injected (or caught, below)
      // allocation failure parks a checkpoint whose resume replays the
      // uninterrupted run byte for byte — the step at `pi` has not been
      // touched yet, so none of its search work is double-counted.
      if (injected(FaultSite::kChaseAlloc)) {
        flush_fire_stats();
        result.status = ChaseStatus::kResourceExhausted;
        take_checkpoint(pi);
        return false;
      }
      PendingStep& step = pending[pi];
      const Dependency& dep = deps.items[step.dep_index];
      if (fire_head_dep != step.dep_index) {
        fire_head.emplace(dep, *instance, hom_options);
        fire_head_dep = step.dep_index;
      }
      // An earlier fire in this wave may have witnessed this head already.
      bool witnessed = false;
      try {
        witnessed = fire_head->Witnessed(step.match, &fire_stats);
        if (!fire_stats.budget_hit && !witnessed) {
          FireStep(dep, instance, step.match, &extended, &head_tuple,
                   &new_ids);
        }
      } catch (const std::bad_alloc&) {
        // Real allocation failure: park instead of crashing. Best-effort —
        // a throw mid-FireStep can leave part of the head inserted, so the
        // resume completes the derivation soundly (AddTuple dedups, the
        // chase is monotone) but without the injected path's byte-identity
        // promise.
        flush_fire_stats();
        result.status = ChaseStatus::kResourceExhausted;
        take_checkpoint(pi);
        return false;
      }
      if (fire_stats.budget_hit) {
        flush_fire_stats();
        result.status = limit_status(fire_stats);
        return false;
      }
      if (witnessed) continue;
      ++result.steps;
      ++fired_this_pass;
      if (config.record_trace) {
        // Nothing reads pending[pi] after its fire: a stop below checkpoints
        // the tail from pi + 1, and a burst cap carries from a later index.
        result.trace.push_back(
            ChaseStep{step.dep_index, std::move(step.match), new_ids});
      }
      if (config.eager_goal_check && goal && goal(*instance)) {
        flush_fire_stats();
        result.status = ChaseStatus::kGoal;
        return false;
      }
      if (config.max_steps > 0 && result.steps >= config.max_steps) {
        flush_fire_stats();
        result.status = ChaseStatus::kStepLimit;
        take_checkpoint(pi + 1);
        return false;
      }
      if (config.max_tuples > 0 && instance->NumTuples() >= config.max_tuples) {
        flush_fire_stats();
        result.status = ChaseStatus::kTupleLimit;
        take_checkpoint(pi + 1);
        return false;
      }
      if (deadline.Expired()) {
        flush_fire_stats();
        result.status = ChaseStatus::kTimeout;
        return false;
      }
    }
    flush_fire_stats();
    return true;
  };

  while (true) {
    if (resuming) {
      // Re-enter the interrupted pass: the cursor and the wave's unfired
      // tail came from the checkpoint.
      resuming = false;
    } else {
      ++result.passes;
      if (!carried.empty()) ++result.carried_passes;
      if (cancelled() || injected(FaultSite::kCancelMatch)) {
        result.status = ChaseStatus::kCancelled;
        return result;
      }
      match_begin = delta_begin;
      pass_start = instance->NumTuples();
      next_dep = 0;
      pending.clear();
      pending_pos = 0;
      pass_found_steps = false;
      fired_this_pass = 0;
      // Burst auto-tune: decide this pass's fire cap from the growth the
      // previous pass produced. A majority-delta pass is geometric pumping
      // — nearly every pending step is genuinely new, so capping would
      // only grow the carried backlog — and runs uncapped; flat growth
      // gets the bounded-burst regime. Pure function of (delta, instance
      // size): deterministic at any thread count, and the checkpoint
      // records the chosen cap.
      pass_fire_cap = config.max_fires_per_pass;
      if (config.auto_burst) {
        const std::size_t growth = pass_start - match_begin;
        const bool pumping = growth * 2 >= pass_start;
        pass_fire_cap = pumping ? 0
                                : (config.max_fires_per_pass > 0
                                       ? config.max_fires_per_pass
                                       : kAutoBurstCap);
      }
      if (MetricsEnabled()) GetChaseMetrics().passes->Add(1);
    }

    // Fire the current wave, then match the next one, until the pass runs
    // out of dependencies. A stop inside a wave never matches the rest; a
    // burst cap still matches them in delta mode, to carry their steps.
    while (true) {
      if (!fire_wave()) return result;
      if (next_dep >= deps.items.size()) break;
      if (cap_reached() && !config.use_delta) break;
      if (!match_wave()) return result;
    }

    // Every dependency has now been matched against the first pass_start
    // tuples; the next pass only needs to see what this pass's fires added.
    delta_begin = pass_start;
    carried = std::move(next_carried);
    next_carried.clear();
    carried_pos = 0;

    if (!pass_found_steps) {
      result.status = ChaseStatus::kFixpoint;
      return result;
    }
    if (!config.eager_goal_check && goal && goal(*instance)) {
      result.status = ChaseStatus::kGoal;
      return result;
    }
  }
}

std::string_view ChaseStatusName(ChaseStatus status) {
  switch (status) {
    case ChaseStatus::kFixpoint: return "fixpoint";
    case ChaseStatus::kGoal: return "goal";
    case ChaseStatus::kStepLimit: return "step-limit";
    case ChaseStatus::kTupleLimit: return "tuple-limit";
    case ChaseStatus::kTimeout: return "timeout";
    case ChaseStatus::kHomBudget: return "hom-budget";
    case ChaseStatus::kCancelled: return "cancelled";
    case ChaseStatus::kResourceExhausted: return "resource-exhausted";
  }
  return "?";
}

bool ChaseCheckpoint::BudgetsExceedProgress(const ChaseConfig& config,
                                            const Instance& instance) const {
  if (config.max_steps > 0 && steps >= config.max_steps) return false;
  if (config.max_tuples > 0 && instance.NumTuples() >= config.max_tuples) {
    return false;
  }
  return true;
}

bool ChaseCheckpoint::CompatibleWith(const ChaseConfig& config,
                                     const Instance& instance,
                                     const DependencySet& deps) const {
  if (!valid) return false;
  // A different shape would evolve differently from here on; the resumed
  // run would no longer replay an uninterrupted one.
  if (use_delta != config.use_delta ||
      max_fires_per_pass != config.max_fires_per_pass ||
      auto_burst != config.auto_burst ||
      match_slice_ids != config.match_slice_ids ||
      record_trace != config.record_trace ||
      eager_goal_check != config.eager_goal_check ||
      hom_max_nodes != config.hom_max_nodes) {
    return false;
  }
  // Semantic validation against this (deps, instance): checkpoints may come
  // from disk, and RunChase (and trace consumers like FormatChaseStep)
  // index deps/tuples/valuations unchecked — so a corrupt file must die
  // here, cleanly.
  const std::size_t num_tuples = instance.NumTuples();
  if (match_begin > pass_start || pass_start > num_tuples ||
      next_dep > deps.items.size()) {
    return false;
  }
  // The valuation must be shaped exactly like its dependency's variable
  // space (FireStep and the head-witness search index it by (attr, var))
  // and bind only existing domain values.
  auto valid_match = [&](int dep_index, const Valuation& match) {
    if (dep_index < 0 || dep_index >= static_cast<int>(deps.items.size())) {
      return false;
    }
    const Tableau& body = deps.items[dep_index].body();
    if (match.arity() != body.schema().arity()) return false;
    for (int attr = 0; attr < match.arity(); ++attr) {
      if (match.NumVars(attr) != body.NumVars(attr)) return false;
      for (int var = 0; var < match.NumVars(attr); ++var) {
        const int v = match.Get(attr, var);
        if (v < -1 || v >= instance.DomainSize(attr)) return false;
      }
    }
    return true;
  };
  auto valid_ids = [num_tuples](const std::vector<int>& ids) {
    for (int id : ids) {
      if (id < 0 || id >= static_cast<int>(num_tuples)) return false;
    }
    return true;
  };
  // Each list lies on its side of the wave cursor, in canonical order —
  // RunChase fires the one and merges the other as sorted runs — and holds
  // one step per (dependency, head key), as RunChase keeps them.
  auto valid_steps = [&](const std::vector<PendingChaseStep>& steps,
                         bool before_cursor) {
    const PendingChaseStep* previous = nullptr;
    HeadKeyFilter filter(deps);
    for (const PendingChaseStep& step : steps) {
      if (!valid_match(step.dep_index, step.match) ||
          !valid_ids(step.row_ids) ||
          (static_cast<std::size_t>(step.dep_index) < next_dep) !=
              before_cursor) {
        return false;
      }
      if (previous != nullptr &&
          std::tie(step.dep_index, step.row_ids) <
              std::tie(previous->dep_index, previous->row_ids)) {
        return false;
      }
      if (!filter.First(step)) return false;
      previous = &step;
    }
    return true;
  };
  if (!valid_steps(pending, /*before_cursor=*/true) ||
      !valid_steps(carried, /*before_cursor=*/false)) {
    return false;
  }
  for (const ChaseStep& step : trace) {
    if (!valid_match(step.dependency_index, step.body_match) ||
        !valid_ids(step.new_tuples)) {
      return false;
    }
  }
  return true;
}

void ChaseCheckpoint::CaptureShape(const ChaseConfig& config) {
  use_delta = config.use_delta;
  max_fires_per_pass = config.max_fires_per_pass;
  auto_burst = config.auto_burst;
  match_slice_ids = config.match_slice_ids;
  record_trace = config.record_trace;
  eager_goal_check = config.eager_goal_check;
  hom_max_nodes = config.hom_max_nodes;
}

namespace {

// Checkpoint text format helpers: everything is whitespace-separated
// integers behind a magic tag, so the format is portable and diffable.
// (Domain-value names live in Instance::Serialize, not here — a checkpoint
// holds only variable/tuple ids.)
void WriteIntVec(std::ostream& os, const std::vector<int>& v) {
  os << v.size();
  for (int x : v) os << ' ' << x;
  os << '\n';
}

// Untrusted-count discipline: a corrupt header can declare any element
// count, so deserializers never pre-size from it — they append one
// stream-checked element at a time (a lying count then fails at end of
// input instead of throwing length_error / OOMing on resize).
bool ReadIntVec(std::istream& is, std::vector<int>* v) {
  std::size_t n;
  if (!(is >> n)) return false;
  v->clear();
  for (std::size_t i = 0; i < n; ++i) {
    int x;
    if (!(is >> x)) return false;
    v->push_back(x);
  }
  return true;
}

// A valuation is written as its arity, then one line per attribute in
// WriteIntVec's layout: the column's length and its values.
void WriteValuation(std::ostream& os, const Valuation& v) {
  os << v.arity() << '\n';
  for (int attr = 0; attr < v.arity(); ++attr) {
    os << v.NumVars(attr);
    for (int var = 0; var < v.NumVars(attr); ++var) {
      os << ' ' << v.Get(attr, var);
    }
    os << '\n';
  }
}

bool ReadValuation(std::istream& is, Valuation* v) {
  std::size_t attrs;
  if (!(is >> attrs)) return false;
  std::vector<std::vector<int>> columns;
  for (std::size_t a = 0; a < attrs; ++a) {
    std::vector<int> column;
    if (!ReadIntVec(is, &column)) return false;
    columns.push_back(std::move(column));
  }
  *v = Valuation::FromColumns(columns);
  return true;
}

// Bumped from tdckpt1 when the format gained fire_cap_this_pass,
// hom_candidates and the match-strategy shape fields (auto_burst,
// match_slice_ids), from tdckpt2 when the candidate-intersection flag left
// the shape block, and from tdckpt3 when the resume point became a wave
// cursor (match_begin, pass_start, next_dep) with a carried list beside the
// wave's pending tail, and from tdckpt4 when the pending and carried lists
// came to hold one step per head key (and the counters dropped the head
// checks of the rest). Older files are rejected rather than resumed under
// a shape this build cannot reproduce.
constexpr char kCheckpointMagic[] = "tdckpt5";

void WriteSteps(std::ostream& os, const std::vector<PendingChaseStep>& steps) {
  os << steps.size() << '\n';
  for (const PendingChaseStep& step : steps) {
    os << step.dep_index << '\n';
    WriteValuation(os, step.match);
    WriteIntVec(os, step.row_ids);
  }
}

// Same untrusted-count discipline as ReadIntVec: append, never resize.
bool ReadSteps(std::istream& is, std::vector<PendingChaseStep>* steps) {
  std::size_t n;
  if (!(is >> n)) return false;
  for (std::size_t i = 0; i < n; ++i) {
    PendingChaseStep step;
    if (!(is >> step.dep_index) || !ReadValuation(is, &step.match) ||
        !ReadIntVec(is, &step.row_ids)) {
      return false;
    }
    steps->push_back(std::move(step));
  }
  return true;
}

}  // namespace

void ChaseCheckpoint::Serialize(std::ostream& os) const {
  os << kCheckpointMagic << ' ' << (valid ? 1 : 0) << '\n';
  if (!valid) return;
  os << match_begin << ' ' << pass_start << ' ' << next_dep << ' '
     << fired_this_pass << ' ' << fire_cap_this_pass << '\n';
  os << steps << ' ' << passes << ' ' << hom_nodes << ' ' << hom_candidates
     << ' ' << match_tasks << ' ' << carried_passes << '\n';
  os << (use_delta ? 1 : 0) << ' ' << max_fires_per_pass << ' '
     << (auto_burst ? 1 : 0) << ' ' << match_slice_ids << ' '
     << (record_trace ? 1 : 0) << ' ' << (eager_goal_check ? 1 : 0) << ' '
     << hom_max_nodes << '\n';
  WriteSteps(os, pending);
  WriteSteps(os, carried);
  os << trace.size() << '\n';
  for (const ChaseStep& step : trace) {
    os << step.dependency_index << '\n';
    WriteValuation(os, step.body_match);
    WriteIntVec(os, step.new_tuples);
  }
}

Result<ChaseCheckpoint> ChaseCheckpoint::Deserialize(std::istream& is) {
  using R = Result<ChaseCheckpoint>;
  auto corrupt = [](const char* what) {
    return R::Error(ErrorCode::kCorrupt,
                    std::string("checkpoint: ") + what);
  };
  std::string magic;
  int valid_flag;
  if (!(is >> magic >> valid_flag)) return corrupt("truncated header");
  if (magic != kCheckpointMagic) return corrupt("bad magic");
  if (valid_flag != 0 && valid_flag != 1) return corrupt("bad valid flag");
  ChaseCheckpoint ckpt;
  if (valid_flag == 0) return ckpt;  // an empty (non-resumable) checkpoint
  ckpt.valid = true;
  int use_delta_flag, auto_burst_flag, record_trace_flag, eager_flag;
  std::size_t num_trace;
  if (!(is >> ckpt.match_begin >> ckpt.pass_start >> ckpt.next_dep >>
        ckpt.fired_this_pass >> ckpt.fire_cap_this_pass >> ckpt.steps >>
        ckpt.passes >> ckpt.hom_nodes >> ckpt.hom_candidates >>
        ckpt.match_tasks >> ckpt.carried_passes >> use_delta_flag >>
        ckpt.max_fires_per_pass >> auto_burst_flag >> ckpt.match_slice_ids >>
        record_trace_flag >> eager_flag >> ckpt.hom_max_nodes)) {
    return corrupt("truncated counters/shape block");
  }
  ckpt.use_delta = use_delta_flag != 0;
  ckpt.auto_burst = auto_burst_flag != 0;
  ckpt.record_trace = record_trace_flag != 0;
  ckpt.eager_goal_check = eager_flag != 0;
  if (!ReadSteps(is, &ckpt.pending)) return corrupt("truncated pending step");
  if (!ReadSteps(is, &ckpt.carried)) return corrupt("truncated carried step");
  if (!(is >> num_trace)) return corrupt("missing trace count");
  for (std::size_t i = 0; i < num_trace; ++i) {
    ChaseStep step;
    if (!(is >> step.dependency_index) ||
        !ReadValuation(is, &step.body_match) ||
        !ReadIntVec(is, &step.new_tuples)) {
      return corrupt("truncated trace step");
    }
    ckpt.trace.push_back(std::move(step));
  }
  // Dependency/tuple/value id ranges are validated later by CompatibleWith
  // against the (deps, instance) the checkpoint is used with; here the
  // contract is only "no UB, no unchecked allocation, typed error".
  return ckpt;
}

std::string ChaseResult::ToString() const {
  std::ostringstream oss;
  oss << "chase: " << ChaseStatusName(status) << " after " << steps
      << " steps in " << passes << " passes (" << hom_nodes << " hom nodes)";
  return oss.str();
}

}  // namespace tdlib
