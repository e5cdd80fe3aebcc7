// Optimal U-repair for consensus FDs (Proposition B.2 / Corollary B.3):
// for ∅ → A the cheapest consistent update keeps the weighted-plurality
// value of column A and overwrites the rest. Distinct consensus attributes
// are attribute-disjoint FD sets {∅→A}, so each column is repaired to its
// own plurality value independently (Theorem 4.1).

#ifndef FDREPAIR_UREPAIR_UREPAIR_CONSENSUS_H_
#define FDREPAIR_UREPAIR_UREPAIR_CONSENSUS_H_

#include <utility>
#include <vector>

#include "catalog/attrset.h"
#include "common/status.h"
#include "storage/table.h"

namespace fdrepair {

/// The cost the plurality repair will incur, without building it.
double ConsensusPluralityCost(const Table& table, AttrSet attrs);

/// The plurality values, one entry per attribute of `attrs` in ascending
/// order (ties break to the first-seen value). The optimal repair of the
/// consensus columns overwrites every other cell with its column's value,
/// at dist_upd = Σ over columns of (total weight − plurality weight); the
/// planner (urepair/opt_urepair.h) emits those overwrites as cell edits.
/// Empty when the table is empty.
std::vector<std::pair<AttrId, ValueId>> ConsensusPluralityValues(
    const Table& table, AttrSet attrs);

}  // namespace fdrepair

#endif  // FDREPAIR_UREPAIR_UREPAIR_CONSENSUS_H_
