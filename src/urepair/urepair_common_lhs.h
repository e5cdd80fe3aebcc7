// Subset-to-update conversion (Proposition 4.4, direction 2) and the exact
// common-lhs route (Corollary 4.6).
//
// For consensus-free ∆, a consistent subset S becomes a consistent update by
// overwriting, in every deleted tuple, each attribute of a minimum lhs cover
// with a fresh constant: fresh values break every lhs agreement, so updated
// tuples conflict with nothing. The cost is mlc(∆) · dist_sub(S, T).
// When ∆ has a common lhs, mlc = 1, the conversion is free, and combining
// with direction 1 shows the optima coincide: an optimal U-repair is
// obtained from an optimal S-repair (Corollary 4.6) — so the S-repair
// dichotomy transfers verbatim to U-repairs for such ∆.

#ifndef FDREPAIR_UREPAIR_UREPAIR_COMMON_LHS_H_
#define FDREPAIR_UREPAIR_UREPAIR_COMMON_LHS_H_

#include <string>
#include <vector>

#include "catalog/fdset.h"
#include "common/status.h"
#include "storage/table.h"
#include "urepair/fresh.h"

namespace fdrepair {

/// The freshening of Proposition 4.4 (2), in row order: calls
/// emit(row, attr, value) for each attribute of `cover` in every row of
/// `table` outside `kept_rows` (dense positions), `value` being the cell's
/// deterministic ⊥ constant in the table's pool. One walk over the rows
/// gathers cells into a stack chunk, resolves each full chunk with one
/// ValuePool::FreshCellValues call and emits its cells at once, so the
/// pass allocates nothing per cell and `emit` runs outside the pool's lock.
/// A fresh constant per cell makes the deleted tuple inert — the cover hits
/// every lhs, so it agrees with nothing on any lhs — and its name derives
/// from (TupleId, attr), so a cell freshens to the same symbol in every run
/// and on every pool with the same user content. Fails with
/// kInvalidArgument, before emitting, when a kept row is outside
/// [0, num_tuples).
template <typename Emit>
Status FreshenDeletedRows(const Table& table, const std::vector<int>& kept_rows,
                          AttrSet cover, Emit emit) {
  const int n = table.num_tuples();
  std::vector<char> kept(n, 0);
  for (int row : kept_rows) {
    if (row < 0 || row >= n) {
      return Status::InvalidArgument("kept row " + std::to_string(row) +
                                     " is outside [0, " + std::to_string(n) +
                                     ")");
    }
    kept[row] = 1;
  }
  constexpr int kChunk = 256;
  FreshCell cells[kChunk];
  int rows[kChunk] = {};
  ValueId values[kChunk] = {};
  int size = 0;
  auto flush = [&] {
    table.pool()->FreshCellValues({cells, static_cast<size_t>(size)}, values);
    for (int i = 0; i < size; ++i) emit(rows[i], cells[i].attr, values[i]);
    size = 0;
  };
  for (int row = 0; row < n; ++row) {
    if (kept[row]) continue;
    ForEachAttr(cover, [&](AttrId attr) {
      if (size == kChunk) flush();
      cells[size] = FreshCell{table.id(row), attr};
      rows[size++] = row;
    });
  }
  flush();
  return Status::OK();
}

/// Proposition 4.4 (2): turns a consistent subset (given as kept dense row
/// positions of `table`) into a consistent update by freshening a minimum
/// lhs cover in every deleted tuple (FreshenDeletedRows). Requires
/// consensus-free ∆; the result satisfies dist_upd = mlc(∆) · dist_sub.
StatusOr<Table> SubsetToUpdate(const FdSet& fds, const Table& table,
                               const std::vector<int>& kept_rows);

/// Corollary 4.6: the exact optimal U-repair for a consensus-free ∆ with a
/// common lhs, provided OSRSucceeds(∆) (otherwise OptSRepair — and by the
/// corollary the U-problem too — is APX-complete, and this returns
/// kFailedPrecondition). The paper's entry point, sequential; the planner
/// (urepair/opt_urepair.h) runs the same construction inside its one
/// component loop — inner S-repair under its exec, then the same
/// FreshenDeletedRows pass emitting cell edits — and that loop is where
/// plan capture and delta splicing live.
StatusOr<Table> CommonLhsOptimalURepair(const FdSet& fds, const Table& table);

}  // namespace fdrepair

#endif  // FDREPAIR_UREPAIR_UREPAIR_COMMON_LHS_H_
