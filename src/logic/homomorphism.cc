#include "logic/homomorphism.h"

#include <algorithm>
#include <cassert>
#include <limits>

namespace tdlib {

Valuation Valuation::For(const Tableau& t) {
  Valuation v;
  v.ResetFor(t);
  return v;
}

void Valuation::ResetFor(const Tableau& t) {
  const int arity = t.schema().arity();
  cells_.clear();
  cells_.reserve(static_cast<std::size_t>(arity + 1 + t.TotalVars()));
  int slot = arity + 1;
  for (int attr = 0; attr <= arity; ++attr) {
    cells_.push_back(slot);
    if (attr < arity) slot += t.NumVars(attr);
  }
  cells_.resize(static_cast<std::size_t>(slot), -1);
}

Valuation Valuation::Identity(const Tableau& t) {
  Valuation v = For(t);
  for (int attr = 0; attr < v.arity(); ++attr) {
    for (int var = 0; var < v.NumVars(attr); ++var) v.Set(attr, var, var);
  }
  return v;
}

Valuation Valuation::FromColumns(const std::vector<std::vector<int>>& columns) {
  Valuation v;
  int slot = static_cast<int>(columns.size()) + 1;
  for (const std::vector<int>& column : columns) {
    v.cells_.push_back(slot);
    slot += static_cast<int>(column.size());
  }
  v.cells_.push_back(slot);
  for (const std::vector<int>& column : columns) {
    v.cells_.insert(v.cells_.end(), column.begin(), column.end());
  }
  return v;
}

HomomorphismSearch::HomomorphismSearch(const Tableau& source,
                                       const Instance& target,
                                       HomSearchOptions options)
    : source_(source),
      target_(target),
      options_(options),
      arity_(source.schema().arity()),
      valuation_(Valuation::For(source)),
      occurrences_(static_cast<std::size_t>(valuation_.NumSlots()), 0),
      positions_(static_cast<std::size_t>(source.num_rows() * arity_)),
      join_count_(static_cast<std::size_t>(source.num_rows()), 0),
      row_done_(static_cast<std::size_t>(source.num_rows()), false),
      row_tuples_(static_cast<std::size_t>(source.num_rows()), -1) {
  // Within a row each attribute holds one variable, so counting positions
  // counts rows.
  for (const Row& row : source.rows()) {
    for (int attr = 0; attr < arity_; ++attr) {
      ++occurrences_[valuation_.Slot(attr, row[attr])];
    }
  }
  undo_.reserve(positions_.size());
  SplitPositions();
}

void HomomorphismSearch::SetInitial(const Valuation& initial) {
  assert(initial.NumSlots() == valuation_.NumSlots());
  valuation_ = initial;
  SplitPositions();
}

void HomomorphismSearch::SplitPositions() {
  auto is_join = [&](int slot) {
    return occurrences_[slot] > 1 || valuation_.AtSlot(slot) >= 0;
  };
  for (int r = 0; r < source_.num_rows(); ++r) {
    const Row& row = source_.row(r);
    Position* out = &positions_[r * arity_];
    int next = 0;
    for (int attr = 0; attr < arity_; ++attr) {
      const int slot = valuation_.Slot(attr, row[attr]);
      if (is_join(slot)) out[next++] = Position{attr, slot};
    }
    join_count_[r] = next;
    for (int attr = 0; attr < arity_; ++attr) {
      const int slot = valuation_.Slot(attr, row[attr]);
      if (!is_join(slot)) out[next++] = Position{attr, slot};
    }
  }
}

HomSearchStatus HomomorphismSearch::FindAny(Valuation* result) {
  HomSearchStatus status = ForEach([&](const Valuation& v) {
    if (result != nullptr) *result = v;
    return false;  // stop at the first hit
  });
  // ForEach reports kFound when the visitor stopped it.
  return status;
}

HomSearchStatus HomomorphismSearch::ForEach(
    const std::function<bool(const Valuation&)>& visit) {
  stats_ = HomSearchStats{};
  delta_rows_bound_ = 0;
  cap_hides_tuples_ =
      options_.id_cap >= 0 &&
      target_.NumTuples() > static_cast<std::size_t>(options_.id_cap);
  std::fill(row_done_.begin(), row_done_.end(), false);
  bool stopped = false;
  Backtrack(0, visit, &stopped);
  if (stopped) return HomSearchStatus::kFound;
  return stats_.budget_hit ? HomSearchStatus::kBudget
                           : HomSearchStatus::kExhausted;
}

std::pair<int, int> HomomorphismSearch::RowIdBounds(int row_idx) const {
  int lo = 0;
  int hi = std::numeric_limits<int>::max();
  if (options_.delta_begin >= 0 && options_.delta_seed_row >= 0) {
    if (row_idx < options_.delta_seed_row) {
      hi = options_.delta_begin;
    } else if (row_idx == options_.delta_seed_row) {
      // The seed row binds the delta — or, when the chase sliced this
      // partition member into sub-tasks, one sub-range of it.
      lo = options_.delta_seed_begin >= 0 ? options_.delta_seed_begin
                                          : options_.delta_begin;
      if (options_.delta_seed_end >= 0) hi = options_.delta_seed_end;
    }
  }
  if (options_.id_cap >= 0) hi = std::min(hi, options_.id_cap);
  return {lo, hi};
}

std::size_t HomomorphismSearch::CountBindable(int attr, int value) const {
  if (!cap_hides_tuples_) return target_.CountWith(attr, value);
  const CandidateList list = target_.TuplesWith(attr, value);
  return list.base().CountBelow(options_.id_cap) +
         list.tail().CountBelow(options_.id_cap);
}

HomomorphismSearch::NextRow HomomorphismSearch::PickNextRow() const {
  // Most-constrained-first: prefer the row whose smallest bound-position
  // candidate list is shortest; rows with no bound position score the whole
  // instance size. A delta-restricted id range caps the score too, so the
  // seed row (candidates = the delta, usually tiny) is matched early. The
  // chosen row's shortest list is handed over, so RowCandidates does not
  // count the lists again.
  NextRow best{-1, -1, -1};
  std::size_t best_score = std::numeric_limits<std::size_t>::max();
  for (int i = 0; i < source_.num_rows(); ++i) {
    if (row_done_[i]) continue;
    auto [min_id, max_id] = RowIdBounds(i);
    std::size_t range = 0;
    int capped = static_cast<int>(
        std::min<std::size_t>(target_.NumTuples(),
                              static_cast<std::size_t>(max_id)));
    if (capped > min_id) range = static_cast<std::size_t>(capped - min_id);
    // The row's shortest bound posting list (ties keep the lowest
    // attribute); its other bound positions are filtered per candidate by
    // TryBindRow.
    NextRow row{i, -1, -1};
    std::size_t list_size = 0;
    const Position* join = RowPositions(i);
    for (int k = 0; k < join_count_[i]; ++k) {
      const int bound = valuation_.AtSlot(join[k].slot);
      if (bound < 0) continue;
      const std::size_t size = CountBindable(join[k].attr, bound);
      if (row.attr < 0 || size < list_size) {
        row.attr = join[k].attr;
        row.value = bound;
        list_size = size;
      }
    }
    const std::size_t score =
        row.attr < 0 ? range : std::min(range, list_size);
    if (score < best_score) {
      best_score = score;
      best = row;
    }
  }
  return best;
}

bool HomomorphismSearch::RowCandidates(const NextRow& next, int min_id,
                                       IdSpan runs[2]) const {
  if (next.attr < 0) return false;
  // Zero-copy index spans. Runs are ascending with base ids < tail ids, so
  // a delta cutoff is one binary search per run.
  const CandidateList list = target_.TuplesWith(next.attr, next.value);
  runs[0] = min_id > 0 ? list.base().SuffixFrom(min_id) : list.base();
  runs[1] = min_id > 0 ? list.tail().SuffixFrom(min_id) : list.tail();
  return true;
}

bool HomomorphismSearch::TryBindRow(int row_idx, TupleRef tuple,
                                    std::size_t mark) {
  const Position* join = RowPositions(row_idx);
  for (int k = 0; k < join_count_[row_idx]; ++k) {
    const int slot = join[k].slot;
    const int bound = valuation_.AtSlot(slot);
    const int value = tuple[join[k].attr];
    if (bound < 0) {
      valuation_.SetSlot(slot, value);
      undo_.push_back(slot);
    } else if (bound != value) {
      UndoTo(mark);
      return false;
    }
  }
  return true;
}

void HomomorphismSearch::UndoTo(std::size_t mark) {
  while (undo_.size() > mark) {
    valuation_.SetSlot(undo_.back(), -1);
    undo_.pop_back();
  }
}

bool HomomorphismSearch::Backtrack(
    int depth, const std::function<bool(const Valuation&)>& visit,
    bool* stopped) {
  if (options_.max_nodes > 0 && stats_.nodes >= options_.max_nodes) {
    stats_.budget_hit = true;
    return false;
  }
  // Amortized wall-clock / cancel check: a single pumped search can run for
  // seconds, so waiting for the caller to look at the clock between
  // searches lets a deadline overshoot arbitrarily. The cancel flag rides
  // the same cadence — it is how a concurrent sibling search's budget trip
  // winds this one down.
  if ((stats_.nodes & 0x1FF) == 0x1FF) {
    if (options_.deadline != nullptr && options_.deadline->Expired()) {
      stats_.budget_hit = true;
      stats_.deadline_hit = true;
      return false;
    }
    if (options_.cancel != nullptr &&
        options_.cancel->load(std::memory_order_relaxed)) {
      stats_.budget_hit = true;
      return false;
    }
    if (options_.job_cancel != nullptr &&
        options_.job_cancel->load(std::memory_order_relaxed)) {
      stats_.budget_hit = true;
      stats_.cancel_hit = true;
      return false;
    }
  }
  ++stats_.nodes;
  if (depth == source_.num_rows()) {
    // All rows matched: bind the private positions from the rows' tuples.
    // Between visits their slots keep the last match's values, which
    // nothing reads: the search reads join positions only, and the next
    // visit rewrites every private slot. Variables that appear in no row
    // (possible when the variable space is wider than the rows) are
    // unconstrained, so they stay as the initial valuation left them;
    // visitors treat -1 as "any".
    for (int r = 0; r < source_.num_rows(); ++r) {
      const TupleRef tuple = target_.tuple(row_tuples_[r]);
      const Position* row = RowPositions(r);
      for (int k = join_count_[r]; k < arity_; ++k) {
        valuation_.SetSlot(row[k].slot, tuple[row[k].attr]);
      }
    }
    if (!visit(valuation_)) {
      *stopped = true;
      return false;
    }
    return true;
  }
  const NextRow next = PickNextRow();
  const int row_idx = next.row;
  // The semi-naive partition as per-row id windows: candidate runs are
  // ascending, so the window is one lower_bound plus an early break.
  auto [min_id, max_id] = RowIdBounds(row_idx);
  const bool any_row_mode =
      options_.delta_begin >= 0 && options_.delta_seed_row < 0;
  if (any_row_mode && delta_rows_bound_ == 0 &&
      depth == source_.num_rows() - 1) {
    // "Any row" mode: if no row has hit the delta yet, only a delta tuple
    // on the last undone row can complete a delta-touching match.
    min_id = std::max(min_id, options_.delta_begin);
  }
  row_done_[row_idx] = true;
  const std::size_t mark = undo_.size();
  // Binds the row to one candidate and searches below it; false when the
  // search unwinds (a visitor stop or a budget trip).
  auto descend = [&](int tuple_id) {
    ++stats_.candidates;
    if (!TryBindRow(row_idx, target_.tuple(tuple_id), mark)) return true;
    row_tuples_[row_idx] = tuple_id;
    const bool in_delta = any_row_mode && tuple_id >= options_.delta_begin;
    delta_rows_bound_ += in_delta ? 1 : 0;
    const bool keep_going = Backtrack(depth + 1, visit, stopped);
    delta_rows_bound_ -= in_delta ? 1 : 0;
    UndoTo(mark);
    return keep_going;
  };
  bool keep_going = true;
  IdSpan runs[2];
  if (RowCandidates(next, min_id, runs)) {
    // Runs are ascending and run 0's ids all precede run 1's, so the first
    // id past the window ends the whole iteration.
    bool window_closed = false;
    for (int run = 0; run < 2 && keep_going && !window_closed; ++run) {
      for (int tuple_id : runs[run]) {
        window_closed = tuple_id >= max_id;
        if (window_closed || !(keep_going = descend(tuple_id))) break;
      }
    }
  } else {
    const int scan_end = static_cast<int>(std::min<std::size_t>(
        target_.NumTuples(), static_cast<std::size_t>(max_id)));
    for (int tuple_id = min_id; tuple_id < scan_end && keep_going;
         ++tuple_id) {
      keep_going = descend(tuple_id);
    }
  }
  row_done_[row_idx] = false;
  return keep_going;
}

HomSearchStatus ExistsHomomorphism(const Tableau& source,
                                   const Instance& target,
                                   HomSearchOptions options) {
  HomomorphismSearch search(source, target, options);
  return search.FindAny(nullptr);
}

int ProbeRow(const Instance& target,
             const std::vector<std::pair<int, int>>& bound,
             std::uint64_t max_nodes, HomSearchStats* stats) {
  // Node 1: the row. Its candidates are the shortest bound posting list
  // (PickNextRow's choice), or every tuple when nothing is bound.
  ++stats->nodes;
  const std::pair<int, int>* best = nullptr;
  std::size_t best_size = 0;
  for (const std::pair<int, int>& b : bound) {
    const std::size_t size = target.CountWith(b.first, b.second);
    if (best == nullptr || size < best_size ||
        (size == best_size && b.first < best->first)) {
      best = &b;
      best_size = size;
    }
  }
  // Node 2: the complete match — or the node budget stopping short of it.
  auto matched = [&](int id) {
    if (max_nodes == 1) {
      stats->budget_hit = true;
      return -1;
    }
    ++stats->nodes;
    return id;
  };
  if (best == nullptr) {
    if (target.NumTuples() == 0) return -1;
    ++stats->candidates;
    return matched(0);
  }
  const CandidateList list = target.TuplesWith(best->first, best->second);
  for (IdSpan run : {list.base(), list.tail()}) {
    for (int id : run) {
      ++stats->candidates;
      const TupleRef tuple = target.tuple(id);
      bool agrees = true;
      for (const auto& [attr, value] : bound) {
        if (tuple[attr] != value) {
          agrees = false;
          break;
        }
      }
      if (agrees) return matched(id);
    }
  }
  return -1;
}

HomSearchStatus MapsInto(const Tableau& from, const Tableau& to,
                         HomSearchOptions options) {
  Instance frozen = to.Freeze();
  return ExistsHomomorphism(from, frozen, options);
}

}  // namespace tdlib
