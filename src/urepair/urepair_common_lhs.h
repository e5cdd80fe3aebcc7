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

#include <vector>

#include "catalog/fdset.h"
#include "common/status.h"
#include "storage/table.h"

namespace fdrepair {

/// Proposition 4.4 (2): turns a consistent subset (given as kept dense row
/// positions of `table`) into a consistent update by freshening a minimum
/// lhs cover in every deleted tuple. Requires consensus-free ∆; the result
/// satisfies dist_upd = mlc(∆) · dist_sub.
StatusOr<Table> SubsetToUpdate(const FdSet& fds, const Table& table,
                               const std::vector<int>& kept_rows);

/// Corollary 4.6: the exact optimal U-repair for a consensus-free ∆ with a
/// common lhs, provided OSRSucceeds(∆) (otherwise OptSRepair — and by the
/// corollary the U-problem too — is APX-complete, and this returns
/// kFailedPrecondition). The paper's entry point, sequential; the planner
/// (urepair/opt_urepair.h) runs the same construction inside its one
/// component loop — inner S-repair under its exec, then a row-order
/// freshening pass that emits cell edits without cloning the table — and
/// that loop is where plan capture and delta splicing live.
StatusOr<Table> CommonLhsOptimalURepair(const FdSet& fds, const Table& table);

}  // namespace fdrepair

#endif  // FDREPAIR_UREPAIR_UREPAIR_COMMON_LHS_H_
