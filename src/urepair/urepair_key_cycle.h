// The key-cycle route (Proposition 4.9): for ∆ = {A → B, B → A} an optimal
// U-repair costs exactly as much as an optimal S-repair even though
// mlc(∆) = 2. Construction: compute an optimal S-repair S* (via lhs
// marriage); every deleted tuple t must share its A value or its B value
// with some kept tuple s (else S* ∪ {t} would be consistent, contradicting
// optimality), so copying s's other attribute into t costs one cell.

#ifndef FDREPAIR_UREPAIR_UREPAIR_KEY_CYCLE_H_
#define FDREPAIR_UREPAIR_UREPAIR_KEY_CYCLE_H_

#include <optional>
#include <utility>
#include <vector>

#include "catalog/fdset.h"
#include "common/status.h"
#include "storage/table.h"

namespace fdrepair {

/// Detects whether ∆ (trivial FDs ignored) is exactly a two-cycle of unary
/// FDs {A → B, B → A}; returns the attribute pair (A, B) when so.
std::optional<std::pair<AttrId, AttrId>> DetectKeyCycle(const FdSet& fds);

/// Computes an *optimal* U-repair for a key-cycle FD set. Fails with
/// kFailedPrecondition when DetectKeyCycle returns nothing. The paper's
/// entry point, sequential; the planner (urepair/opt_urepair.h) runs the
/// inner S-repair under its exec and calls KeyCycleAlignRows directly.
StatusOr<Table> KeyCycleOptimalURepair(const FdSet& fds, const Table& table);

/// The Proposition 4.9 alignment pass alone: given the (A, B) cycle pair
/// and the dense row positions of an optimal S-repair of `table`, rewrites
/// each deleted tuple's one disagreeing cell. O(n) over the column store.
/// Split out so the planner's component loop (urepair/opt_urepair.cc) runs
/// it over a cold or spliced inner S-repair without re-detecting the cycle.
Table KeyCycleAlignRows(AttrId a, AttrId b, const Table& table,
                        const std::vector<int>& kept_rows);

}  // namespace fdrepair

#endif  // FDREPAIR_UREPAIR_UREPAIR_KEY_CYCLE_H_
