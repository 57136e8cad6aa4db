// Homomorphism search: embedding tableaux into instances.
//
// A homomorphism maps each variable of a tableau to a domain value of the
// same attribute such that every row becomes a tuple of the instance. This
// is the computational heart of the library: dependency satisfaction, chase
// applicability, tableau containment and the part (B) model check are all
// homomorphism problems. The search is backtracking with a most-constrained-
// row-first heuristic and candidate lists drawn from the instance's CSR
// inverted index; an optional node budget keeps worst-case (NP-hard)
// searches bounded.
//
// Candidate choice: for each row the search scans the shortest posting list
// among the row's bound positions (the CSR base run, then the tail) and
// binds each candidate with TryBindRow, which rejects a mismatch on any
// other bound position. A row with no bound position scans the whole id
// range.
//
// Join and private positions: a row's position is a *join* position when
// its variable occurs in another row or is pinned by the initial valuation,
// and *private* otherwise. A private variable is bound by its own row only,
// so while that row is undone it is never bound: it can neither score a
// row, nor pick a posting list, nor reject a candidate. The search
// therefore scores, picks and binds join positions only (about 2-2.5 of a
// row's 6-22 attributes in the reduction), and writes the private ones from
// the bound tuples once per complete match, just before the visit. The
// split is made when the search is built and again on SetInitial, into flat
// per-search arrays; every node, candidate and row order is the one a
// search over all positions would produce.
//
// The Valuation is one flat vector (column offsets, then the slots), so a
// copy is a single allocation. The search binds and undoes slots on one
// undo stack reserved at construction and scans a row without a bound
// position as an id range, so ForEach allocates nothing per node or per
// match.
//
// One-row probe: a template dependency's head is a single row, and within a
// typed row no variable repeats, so "is this body match witnessed?" is a
// partial-match lookup on the row's bound positions. ProbeRow answers it
// with one scan of the shortest bound posting list — no Valuation, no row
// bookkeeping — and reports exactly the counters the backtracker would.
// Multi-row (EID) heads use the backtracker.
//
// Delta restriction (semi-naive matching): a search can be confined to one
// member of the standard semi-naive partition of the delta-touching matches
// — seed row in the delta, earlier rows in the old region, later rows
// unrestricted — so that re-matching after an insertion batch costs time
// proportional to the batch, not the instance. The seed row's id window can
// further be narrowed to a sub-slice of the delta (delta_seed_begin/_end),
// which is how the chase splits one partition member into several
// equal-range sub-tasks when a pass has fewer members than workers. The
// chase unions the partition members (and slices) and fires in a canonical
// order (chase/chase.h), which is how delta mode reproduces the naive chase
// byte for byte.
//
// Concurrency: a HomomorphismSearch object is strictly single-thread — all
// of its mutable state (valuation, row bookkeeping, scratch buffers, stats)
// lives in the object. Any number of searches may run concurrently over the
// SAME target instance as long as no thread mutates it (see the concurrent-
// read contract in logic/instance.h); the parallel chase runs one search
// object per task and aggregates HomSearchStats after the join.
#ifndef TDLIB_LOGIC_HOMOMORPHISM_H_
#define TDLIB_LOGIC_HOMOMORPHISM_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <optional>
#include <type_traits>
#include <utility>
#include <vector>

#include "logic/instance.h"
#include "logic/tableau.h"
#include "util/timer.h"

namespace tdlib {

/// A (partial) assignment of domain values to typed variables: Get(attr,
/// var) is a value id of `attr`, or -1 when unbound.
///
/// Flat storage: one vector holds the arity + 1 column offsets, then every
/// attribute's column back to back, so a copy is one allocation whatever the
/// arity and an assignment between equally shaped valuations none. A *slot*
/// is the storage index of one (attr, var); the search's hot loops address
/// variables by slot.
class Valuation {
 public:
  Valuation() = default;

  /// Creates an all-unbound valuation shaped like `t`'s variable space.
  static Valuation For(const Tableau& t);
  /// Makes this valuation For(t), reusing its buffer.
  void ResetFor(const Tableau& t);

  /// Binds every variable (attr, v) of `t`'s variable space to value v:
  /// the match of `t` onto its own Freeze().
  static Valuation Identity(const Tableau& t);

  /// A valuation whose column `attr` is columns[attr].
  static Valuation FromColumns(const std::vector<std::vector<int>>& columns);

  /// Number of attributes (0 for a default-constructed valuation).
  int arity() const { return cells_.empty() ? 0 : cells_[0] - 1; }
  /// Number of variables of `attr`.
  int NumVars(int attr) const { return cells_[attr + 1] - cells_[attr]; }

  int Get(int attr, int var) const { return cells_[Slot(attr, var)]; }
  void Set(int attr, int var, int value) { cells_[Slot(attr, var)] = value; }
  bool Bound(int attr, int var) const { return Get(attr, var) >= 0; }

  /// The slot of (attr, var), and the value stored there.
  int Slot(int attr, int var) const { return cells_[attr] + var; }
  int AtSlot(int slot) const { return cells_[slot]; }
  void SetSlot(int slot, int value) { cells_[slot] = value; }
  /// One past the largest slot.
  int NumSlots() const { return static_cast<int>(cells_.size()); }

  /// Same shape and the same value in every slot.
  bool operator==(const Valuation& other) const {
    return cells_ == other.cells_;
  }
  bool operator!=(const Valuation& other) const { return !(*this == other); }

 private:
  // cells_[attr] is the slot of (attr, 0) for attr <= arity, so
  // cells_[arity] == cells_.size(); the slots follow the offsets.
  std::vector<int> cells_;
};

/// Counters one search produced. Search-local by design: every
/// HomomorphismSearch owns exactly one HomSearchStats and nothing else ever
/// writes it, so concurrent searches race on nothing. Aggregation across
/// searches (the chase's per-pass totals) is an explicit MergeFrom of
/// per-task copies after the tasks have joined — never two searches
/// pointing at one struct.
struct HomSearchStats {
  std::uint64_t nodes = 0;       ///< search-tree nodes explored
  std::uint64_t candidates = 0;  ///< candidate tuples tried against a row
                                 ///  (what the index prunes)
  bool budget_hit = false;   ///< a node/deadline/cancel limit stopped a search
  bool deadline_hit = false; ///< specifically the wall-clock deadline
  bool cancel_hit = false;   ///< specifically the job-level cancel flag

  void MergeFrom(const HomSearchStats& other) {
    nodes += other.nodes;
    candidates += other.candidates;
    budget_hit = budget_hit || other.budget_hit;
    deadline_hit = deadline_hit || other.deadline_hit;
    cancel_hit = cancel_hit || other.cancel_hit;
  }
};
// Plain counters only: no pointers, no atomics, nothing shareable. If this
// ever grows a reference to shared state, the parallel chase's sum-after-
// join aggregation breaks — keep it trivially copyable.
static_assert(std::is_trivially_copyable<HomSearchStats>::value,
              "HomSearchStats must stay per-search value data");

/// Tuning and budget knobs for the search.
struct HomSearchOptions {
  /// Abort after exploring this many search-tree nodes (0 = unlimited).
  std::uint64_t max_nodes = 0;

  /// Delta restriction: when delta_begin >= 0 and delta_seed_row >= 0,
  /// enumerate the `delta_seed_row` member of the semi-naive partition —
  /// row delta_seed_row binds only tuples with id >= delta_begin ("the
  /// delta"), every row before it (in tableau row order) binds only ids
  /// < delta_begin ("old"), rows after it are unrestricted. The union over
  /// delta_seed_row = 0..num_rows-1 visits every delta-touching match
  /// exactly once; each member's cost scales with the delta, not the
  /// instance.
  ///
  /// delta_seed_row = -1 (the default) is the "any row" mode: one search
  /// visiting every delta-touching match (all-old matches are pruned at the
  /// last undone row). Never explores more nodes than an unrestricted
  /// search, and — unlike a single partition member — complete on its own,
  /// which is why it is the default when only delta_begin is set.
  ///
  /// delta_begin < 0 disables the restriction entirely.
  int delta_begin = -1;
  int delta_seed_row = -1;

  /// Optional narrowing of the seed row's id window to
  /// [delta_seed_begin, delta_seed_end) instead of [delta_begin, +inf).
  /// Meaningful only in partition mode (delta_seed_row >= 0); -1 leaves the
  /// respective end unbounded. The chase's work-stealing slices use this to
  /// cut one partition member into disjoint sub-ranges whose union is
  /// exactly the member.
  int delta_seed_begin = -1;
  int delta_seed_end = -1;

  /// Id cap: when >= 0, every row binds only tuples with id < id_cap, on
  /// top of any delta window. The chase sets it to the pass-start size, so
  /// a pass's body searches see the instance the pass started from even
  /// while earlier waves of the same pass are inserting tuples.
  int id_cap = -1;

  /// Optional wall-clock deadline, checked every few hundred nodes inside
  /// Backtrack so one huge search cannot overshoot a caller's budget. On
  /// expiry the search reports kBudget (the space was not exhausted) and
  /// deadline_hit() is set; the borrowed Deadline must outlive the search.
  /// Deadline reads are const and thread-safe, so concurrent searches may
  /// share one Deadline object.
  const Deadline* deadline = nullptr;

  /// Optional cooperative cancel flag, checked on the same amortized cadence
  /// as the deadline. This is how a budget trip in one of the chase's
  /// concurrent match tasks binds across all of them: the tripping task sets
  /// the shared flag and every sibling search winds down within a few
  /// hundred nodes, reporting kBudget. Null (the default) disables the
  /// check; the flag must outlive the search.
  const std::atomic<bool>* cancel = nullptr;

  /// Optional job-level cancel flag, checked on the same cadence as `cancel`
  /// but with distinct reporting: a trip here sets stats.cancel_hit, which
  /// lets callers (the chase, and through it the engine's JobHandle::Cancel)
  /// tell a user-requested cancellation apart from an ordinary budget stop.
  /// `cancel` stays reserved for the chase's sibling-trip propagation — the
  /// two flags have different owners and different lifetimes, so they ride
  /// as separate pointers. Null disables; must outlive the search.
  const std::atomic<bool>* job_cancel = nullptr;
};

/// Outcome of a search that may exhaust its budget.
enum class HomSearchStatus {
  kFound,      ///< a homomorphism exists (and was produced)
  kExhausted,  ///< the full space was searched; no homomorphism exists
  kBudget,     ///< the node/deadline budget ran out before exhaustion
};

/// Backtracking search for homomorphisms `source -> target`.
class HomomorphismSearch {
 public:
  /// Both referents must outlive the search object.
  HomomorphismSearch(const Tableau& source, const Instance& target,
                     HomSearchOptions options = {});

  /// Pre-binds variables (e.g. the universal variables of a dependency head
  /// when testing whether a body match is already witnessed). The valuation
  /// must be shaped like `source`'s variable space. Replaces the previous
  /// initial valuation, pins included.
  void SetInitial(const Valuation& initial);

  /// Finds one homomorphism extending the initial valuation.
  HomSearchStatus FindAny(Valuation* result);

  /// Enumerates homomorphisms; `visit` returns false to stop early. Every
  /// total extension of the initial valuation that maps all rows into the
  /// target (and touches the delta, if one is set) is visited exactly once.
  /// The visited valuation binds every variable of every row; a variable
  /// no row holds keeps its initial value (-1 unless pinned).
  HomSearchStatus ForEach(const std::function<bool(const Valuation&)>& visit);

  /// Counters for the last call (reset by every FindAny/ForEach).
  const HomSearchStats& stats() const { return stats_; }

  /// Search-tree nodes explored by the last call.
  std::uint64_t nodes_explored() const { return stats_.nodes; }

  /// The tuple id each source row is bound to, in tableau row order — the
  /// "body image" of the match being visited. Valid only inside a ForEach/
  /// FindAny visit callback (entries are stale outside one).
  const std::vector<int>& row_tuples() const { return row_tuples_; }

  /// True iff the last call stopped because options.deadline expired
  /// (reported as kBudget; this disambiguates for timeout accounting).
  bool deadline_hit() const { return stats_.deadline_hit; }

 private:
  /// One (row, attribute) position: its attribute and its variable's slot.
  struct Position {
    int attr;
    int slot;
  };

  const Position* RowPositions(int row) const {
    return &positions_[row * arity_];
  }
  /// Re-splits every row's positions into join and private ones against
  /// the current valuation's pins (no allocation).
  void SplitPositions();
  bool Backtrack(int depth, const std::function<bool(const Valuation&)>& visit,
                 bool* stopped);
  /// The row to match next and the posting list its candidates come from:
  /// the row's shortest bound join list (ties keep the lowest attribute),
  /// or attr -1 when no join position of the row is bound.
  struct NextRow {
    int row;
    int attr;
    int value;
  };
  NextRow PickNextRow() const;
  /// Length of the (attr, value) posting list the search can bind: below
  /// the id cap when tuples sit above it, so a capped search scores rows by
  /// what it will scan — exactly as on the capped-size instance.
  std::size_t CountBindable(int attr, int value) const;
  /// Tuple ids row `row_idx` may bind: [first, second). Encodes the delta
  /// partition (and seed slices) and the id cap; {0, INT_MAX} when
  /// unrestricted.
  std::pair<int, int> RowIdBounds(int row_idx) const;
  /// Candidate ids from min_id on for `next.row`: the borrowed base and
  /// tail of the posting list PickNextRow chose, as two ascending runs
  /// (every id in runs[0] precedes every id in runs[1]; they may reach past
  /// the row's window — the caller's iteration stops there). Returns false
  /// when no join position of the row is bound: the caller scans the window.
  bool RowCandidates(const NextRow& next, int min_id, IdSpan runs[2]) const;
  /// Binds the row's unbound join positions to `tuple`, pushing their slots
  /// on undo_, or undoes back to `mark` and returns false on a mismatch.
  bool TryBindRow(int row_idx, TupleRef tuple, std::size_t mark);
  void UndoTo(std::size_t mark);

  const Tableau& source_;
  const Instance& target_;
  HomSearchOptions options_;
  const int arity_;
  Valuation valuation_;
  /// Rows holding each slot's variable (indexed by slot).
  std::vector<int> occurrences_;
  /// Row r's positions are positions_[r * arity_, (r + 1) * arity_): its
  /// join positions first, join_count_[r] of them, then its private ones,
  /// each group in attribute order.
  std::vector<Position> positions_;
  std::vector<int> join_count_;
  /// Slots the search has bound, innermost last; a depth undoes to the size
  /// it found. Reserved for every position, so it never reallocates.
  std::vector<int> undo_;
  std::vector<bool> row_done_;
  std::vector<int> row_tuples_;
  int delta_rows_bound_ = 0;  ///< "any row" mode: rows on delta tuples now
  bool cap_hides_tuples_ = false;  ///< the target holds ids >= id_cap
  HomSearchStats stats_;
};

/// Convenience wrapper: is there any homomorphism source -> target?
/// Returns kFound / kExhausted / kBudget.
HomSearchStatus ExistsHomomorphism(const Tableau& source,
                                   const Instance& target,
                                   HomSearchOptions options = {});

/// Witness probe for a one-row source whose bound positions are `bound`,
/// given as (attr, value) pairs (value >= 0, at most one pair per
/// attribute): returns the id of the first tuple agreeing with every pair,
/// scanning the shortest posting list among them (ties keep the lowest
/// attribute; base run, then tail), or -1 when none does. With no pair the
/// answer is the first tuple.
///
/// Adds to *stats exactly what FindAny of a HomomorphismSearch over that
/// row, seeded with `bound`, reports: nodes 1, or 2 on a match; candidates
/// the scan position of the match, or the list length without one; and,
/// when max_nodes == 1, a match is a budget stop (budget_hit, returns -1).
/// A search of two nodes never reaches the deadline/cancel cadence, so the
/// probe takes neither.
int ProbeRow(const Instance& target,
             const std::vector<std::pair<int, int>>& bound,
             std::uint64_t max_nodes, HomSearchStats* stats);

/// Tableau containment: does `from` map homomorphically into `to` frozen?
/// (Classic tableau-containment test; used for triviality and equivalence.)
HomSearchStatus MapsInto(const Tableau& from, const Tableau& to,
                         HomSearchOptions options = {});

}  // namespace tdlib

#endif  // TDLIB_LOGIC_HOMOMORPHISM_H_
