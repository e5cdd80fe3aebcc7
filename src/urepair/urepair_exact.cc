#include "urepair/urepair_exact.h"

#include <algorithm>

#include "storage/consistency.h"
#include "storage/distance.h"
#include "storage/row_span.h"
#include "urepair/fresh.h"
#include "urepair/urepair_kl_approx.h"

namespace fdrepair {
namespace {

constexpr double kEps = 1e-9;

struct SearchState {
  const Table* table;
  FdSet delta;
  std::vector<AttrId> mutable_attrs;           // sorted
  std::vector<std::vector<ValueId>> candidates;  // per mutable attr (no fresh)
  std::vector<std::vector<ValueId>> fresh_ids;   // per mutable attr, n symbols
  std::vector<Tuple> assignment;               // working copy of all rows
  std::vector<int> fresh_used;                 // per mutable attr: count used
  double cost = 0;
  double best_cost = 0;
  std::vector<Tuple> best_assignment;
  bool improved = false;
};

// Do complete rows r and s satisfy every FD under the working assignment?
bool RowsConsistent(const SearchState& state, int r, int s) {
  const Tuple& t = state.assignment[r];
  const Tuple& u = state.assignment[s];
  return PairConsistent(t, u, state.delta);
}

void Search(SearchState* state, int cell);

// Advances past a completed row: check it against all earlier rows.
void CompleteRow(SearchState* state, int row, int next_cell) {
  for (int earlier = 0; earlier < row; ++earlier) {
    if (!RowsConsistent(*state, earlier, row)) return;
  }
  Search(state, next_cell);
}

void Search(SearchState* state, int cell) {
  const int num_attrs = static_cast<int>(state->mutable_attrs.size());
  const int num_cells = state->table->num_tuples() * num_attrs;
  if (cell == num_cells) {
    if (state->cost < state->best_cost - kEps) {
      state->best_cost = state->cost;
      state->best_assignment = state->assignment;
      state->improved = true;
    }
    return;
  }
  if (state->cost >= state->best_cost - kEps) return;  // prune

  const int row = cell / num_attrs;
  const int slot = cell % num_attrs;
  const AttrId attr = state->mutable_attrs[slot];
  const ValueId original = state->table->value(row, attr);
  const double weight = state->table->weight(row);
  const bool row_done = (slot == num_attrs - 1);
  const int next_cell = cell + 1;

  auto descend = [&](ValueId value, double delta_cost) {
    state->assignment[row][attr] = value;
    state->cost += delta_cost;
    if (row_done) {
      CompleteRow(state, row, next_cell);
    } else {
      Search(state, next_cell);
    }
    state->cost -= delta_cost;
  };

  // Original value first (free), then active-domain alternatives, then the
  // canonical next fresh symbols.
  descend(original, 0.0);
  if (state->cost + weight < state->best_cost - kEps) {
    for (ValueId value : state->candidates[slot]) {
      if (value == original) continue;
      descend(value, weight);
    }
    int usable_fresh =
        std::min(state->fresh_used[slot] + 1,
                 static_cast<int>(state->fresh_ids[slot].size()));
    for (int j = 0; j < usable_fresh; ++j) {
      bool is_new = (j == state->fresh_used[slot]);
      if (is_new) state->fresh_used[slot] = j + 1;
      descend(state->fresh_ids[slot][j], weight);
      if (is_new) state->fresh_used[slot] = j;
    }
  }
  state->assignment[row][attr] = original;
}

}  // namespace

StatusOr<Table> OptURepairExact(const FdSet& fds, const Table& table,
                                const ExactURepairOptions& options) {
  FdSet delta = fds.WithoutTrivial();
  if (delta.empty() || table.num_tuples() == 0 || Satisfies(table, delta)) {
    return table.Clone();
  }
  if (table.num_tuples() > options.max_rows) {
    return Status::ResourceExhausted(
        "exact U-repair limited to " + std::to_string(options.max_rows) +
        " rows, got " + std::to_string(table.num_tuples()));
  }
  AttrSet mutable_set = options.mutable_attrs.empty()
                            ? delta.Attrs()
                            : options.mutable_attrs.Intersect(delta.Attrs());
  // Updating attributes outside attr(∆) can never pay off: dropping such an
  // update preserves consistency and lowers the cost.
  const int num_cells = table.num_tuples() * mutable_set.size();
  if (num_cells > options.max_cells) {
    return Status::ResourceExhausted(
        "exact U-repair limited to " + std::to_string(options.max_cells) +
        " mutable cells, got " + std::to_string(num_cells));
  }

  SearchState state;
  state.table = &table;
  state.delta = delta;
  state.mutable_attrs = mutable_set.ToVector();

  // Candidate values: the column's active domain plus n canonical fresh
  // symbols (shared within the column — equal fresh values are part of the
  // search space, so the symbols are named per (attr, index), not per cell;
  // see urepair/fresh.h).
  Table scratch = table.Clone();  // interns fresh symbols into the pool
  DenseValueIndex seen;
  seen.Reserve(static_cast<ValueId>(table.pool()->size()) - 1);
  for (AttrId attr : state.mutable_attrs) {
    std::vector<ValueId> domain;
    seen.Clear();
    const ColumnView column = table.Column(attr);
    for (int row = 0; row < column.size(); ++row) {
      bool created = false;
      seen.FindOrCreate(column[row], &created);
      if (created) domain.push_back(column[row]);
    }
    std::sort(domain.begin(), domain.end());
    state.candidates.push_back(std::move(domain));
    std::vector<ValueId> fresh;
    if (!options.active_domain_only) {
      for (int j = 0; j < table.num_tuples(); ++j) {
        fresh.push_back(
            scratch.FreshValueNamed(FreshColumnSymbolName(attr, j)));
      }
    }
    state.fresh_ids.push_back(std::move(fresh));
  }
  state.fresh_used.assign(state.mutable_attrs.size(), 0);
  state.assignment.reserve(table.num_tuples());
  for (int row = 0; row < table.num_tuples(); ++row) {
    state.assignment.push_back(table.tuple(row));
  }

  // Seed the bound with the combined approximation; if the search cannot
  // beat it, the approximation already achieved the optimum.
  Table seed = table.Clone();
  double seed_cost = 0;
  auto approx = options.active_domain_only
                    ? StatusOr<Table>(Status::FailedPrecondition(
                          "fresh constants disallowed"))
                    : CombinedApproxURepair(delta, table);
  if (approx.ok()) {
    seed = std::move(approx).value();
    FDR_ASSIGN_OR_RETURN(seed_cost, DistUpd(seed, table));
  } else {
    // Fall back to copying row 0's values across every mutable attribute:
    // all rows then agree on attr(∆), satisfying every FD (consensus FDs
    // included, which the approximation routes refuse).
    for (int row = 1; row < seed.num_tuples(); ++row) {
      for (AttrId attr : state.mutable_attrs) {
        if (seed.value(row, attr) != seed.value(0, attr)) {
          seed.SetValue(row, attr, seed.value(0, attr));
          seed_cost += seed.weight(row);
        }
      }
    }
    if (!Satisfies(seed, delta)) {
      return Status::FailedPrecondition(
          "no consistent update exists within the mutable attributes");
    }
  }
  state.best_cost = seed_cost;

  Search(&state, 0);

  if (!state.improved) return seed;
  Table update = scratch;
  for (int row = 0; row < table.num_tuples(); ++row) {
    for (AttrId attr : state.mutable_attrs) {
      update.SetValue(row, attr, state.best_assignment[row][attr]);
    }
  }
  if (!Satisfies(update, delta)) {
    return Status::Internal(
        "exact search produced an inconsistent update for " +
        delta.ToString());
  }
  return update;
}

}  // namespace fdrepair
