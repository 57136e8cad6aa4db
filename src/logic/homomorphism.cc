#include "logic/homomorphism.h"

#include <algorithm>
#include <limits>

namespace tdlib {

Valuation Valuation::For(const Tableau& t) {
  Valuation v;
  v.values.resize(t.schema().arity());
  for (int attr = 0; attr < t.schema().arity(); ++attr) {
    v.values[attr].assign(t.NumVars(attr), -1);
  }
  return v;
}

Valuation Valuation::Identity(const Tableau& t) {
  Valuation v = For(t);
  for (std::vector<int>& column : v.values) {
    for (std::size_t var = 0; var < column.size(); ++var) {
      column[var] = static_cast<int>(var);
    }
  }
  return v;
}

HomomorphismSearch::HomomorphismSearch(const Tableau& source,
                                       const Instance& target,
                                       HomSearchOptions options)
    : source_(source),
      target_(target),
      options_(options),
      valuation_(Valuation::For(source)),
      row_done_(source.num_rows(), false),
      row_tuples_(source.num_rows(), -1),
      candidate_storage_(source.num_rows()),
      undo_storage_(source.num_rows()) {}

void HomomorphismSearch::SetInitial(const Valuation& initial) {
  valuation_ = initial;
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

int HomomorphismSearch::PickNextRow() const {
  // Most-constrained-first: prefer the row whose smallest bound-position
  // candidate list is shortest; rows with no bound position score the whole
  // instance size. A delta-restricted id range caps the score too, so the
  // seed row (candidates = the delta, usually tiny) is matched early.
  int best = -1;
  std::size_t best_score = std::numeric_limits<std::size_t>::max();
  for (int i = 0; i < source_.num_rows(); ++i) {
    if (row_done_[i]) continue;
    auto [min_id, max_id] = RowIdBounds(i);
    std::size_t range = 0;
    int capped = static_cast<int>(
        std::min<std::size_t>(target_.NumTuples(),
                              static_cast<std::size_t>(max_id)));
    if (capped > min_id) range = static_cast<std::size_t>(capped - min_id);
    std::size_t score = range;
    const Row& r = source_.row(i);
    for (int attr = 0; attr < source_.schema().arity(); ++attr) {
      int bound = valuation_.Get(attr, r[attr]);
      if (bound >= 0) {
        score = std::min(score, CountBindable(attr, bound));
      }
    }
    if (score < best_score) {
      best_score = score;
      best = i;
    }
  }
  return best;
}

void HomomorphismSearch::RowCandidates(int row_idx, int min_id, int max_id,
                                       std::vector<int>* storage,
                                       IdSpan runs[2]) const {
  runs[0] = IdSpan();
  runs[1] = IdSpan();
  // Shortest bound posting list (ties keep the lowest attribute); the
  // other bound positions are filtered per candidate by TryBindRow.
  const Row& r = source_.row(row_idx);
  int best_attr = -1;
  int best_value = -1;
  std::size_t best_size = 0;
  for (int attr = 0; attr < source_.schema().arity(); ++attr) {
    int bound = valuation_.Get(attr, r[attr]);
    if (bound < 0) continue;
    std::size_t size = CountBindable(attr, bound);
    if (best_attr < 0 || size < best_size) {
      best_attr = attr;
      best_value = bound;
      best_size = size;
    }
  }
  if (best_attr >= 0) {
    // Zero-copy index spans. Runs are ascending with base ids < tail ids,
    // so a delta cutoff is one binary search per run.
    const CandidateList list = target_.TuplesWith(best_attr, best_value);
    runs[0] = min_id > 0 ? list.base().SuffixFrom(min_id) : list.base();
    runs[1] = min_id > 0 ? list.tail().SuffixFrom(min_id) : list.tail();
    return;
  }
  storage->clear();
  const std::size_t scan_end = std::min<std::size_t>(
      target_.NumTuples(), static_cast<std::size_t>(max_id));
  if (scan_end > static_cast<std::size_t>(min_id)) {
    storage->reserve(scan_end - static_cast<std::size_t>(min_id));
    for (std::size_t i = static_cast<std::size_t>(min_id); i < scan_end; ++i) {
      storage->push_back(static_cast<int>(i));
    }
  }
  runs[0] = IdSpan(storage->data(), storage->size());
}

bool HomomorphismSearch::TryBindRow(int row_idx, TupleRef tuple,
                                    std::vector<std::pair<int, int>>* undo) {
  const Row& r = source_.row(row_idx);
  for (int attr = 0; attr < source_.schema().arity(); ++attr) {
    int var = r[attr];
    int bound = valuation_.Get(attr, var);
    if (bound >= 0) {
      if (bound != tuple[attr]) {
        UndoBindings(*undo);
        undo->clear();
        return false;
      }
    } else {
      valuation_.Set(attr, var, tuple[attr]);
      undo->emplace_back(attr, var);
    }
  }
  return true;
}

void HomomorphismSearch::UndoBindings(
    const std::vector<std::pair<int, int>>& undo) {
  for (auto [attr, var] : undo) valuation_.Set(attr, var, -1);
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
    // All rows matched. Complete the valuation on variables that appear in
    // no row (possible when the variable space is wider than the rows): they
    // are unconstrained, so leave them unbound; visitors treat -1 as "any".
    if (!visit(valuation_)) {
      *stopped = true;
      return false;
    }
    return true;
  }
  int row_idx = PickNextRow();
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
  std::vector<int>& storage = candidate_storage_[depth];
  IdSpan runs[2];
  RowCandidates(row_idx, min_id, max_id, &storage, runs);
  row_done_[row_idx] = true;
  std::vector<std::pair<int, int>>& undo = undo_storage_[depth];
  undo.clear();
  bool window_closed = false;
  for (int run = 0; run < 2 && !window_closed; ++run) {
    for (int tuple_id : runs[run]) {
      // Runs are ascending and run 0's ids all precede run 1's, so the first
      // id past the window ends the whole iteration.
      if (tuple_id >= max_id) {
        window_closed = true;
        break;
      }
      ++stats_.candidates;
      undo.clear();
      if (!TryBindRow(row_idx, target_.tuple(tuple_id), &undo)) continue;
      row_tuples_[row_idx] = tuple_id;
      bool in_delta = any_row_mode && tuple_id >= options_.delta_begin;
      delta_rows_bound_ += in_delta ? 1 : 0;
      bool keep_going = Backtrack(depth + 1, visit, stopped);
      delta_rows_bound_ -= in_delta ? 1 : 0;
      UndoBindings(undo);
      if (!keep_going && (*stopped || stats_.budget_hit)) {
        row_done_[row_idx] = false;
        return false;
      }
    }
  }
  row_done_[row_idx] = false;
  return true;
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
  // (RowCandidates' choice), or every tuple when nothing is bound.
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
