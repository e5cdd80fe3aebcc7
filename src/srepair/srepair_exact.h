// Exact optimal S-repair for *any* FD set.
//
// FD satisfaction is a pairwise property, so consistent subsets of T are
// exactly the independent sets of the conflict graph, and an optimal
// S-repair is the complement of a minimum-weight vertex cover (the strict
// reduction behind Proposition 3.3, run in the exact direction). On the hard
// side of the dichotomy this is inherently exponential — it serves as ground
// truth for property tests and for the approximation-ratio experiments, and
// as the exponential baseline whose blowup E2 charts against OptSRepair.
//
// It shares only BuildConflictedCore (graph/conflict_graph.h) with
// the planner, never the solver registry or the routing: its cover comes
// from graph/vertex_cover.h's MinWeightVertexCoverExact, a search no
// backend runs ("bnb" is the soft-cover keep/delete search, "ilp" its own
// kernel search). That keeps it independent of every backend — the
// cross-backend property tests pin every registry backend's distance to
// it, which would prove nothing if it shared a search with one of them.
// For the same reason CheckSubsetRepair (verify/repair_check.h) takes its
// optimum from here rather than from the planner's kExactOnly route, so
// it stays in the production tree.

#ifndef FDREPAIR_SREPAIR_SREPAIR_EXACT_H_
#define FDREPAIR_SREPAIR_SREPAIR_EXACT_H_

#include <vector>

#include "catalog/fdset.h"
#include "common/status.h"
#include "storage/table.h"
#include "storage/table_view.h"

namespace fdrepair {

/// Exact optimal S-repair by branch and bound on the conflict graph.
/// Refuses instances whose conflict graph has more than `max_conflict_nodes`
/// non-isolated nodes (kResourceExhausted). Returns kept dense rows sorted.
StatusOr<std::vector<int>> OptSRepairExactRows(const FdSet& fds,
                                               const TableView& view,
                                               int max_conflict_nodes = 64);

/// Materialized wrapper.
StatusOr<Table> OptSRepairExact(const FdSet& fds, const Table& table,
                                int max_conflict_nodes = 64);

}  // namespace fdrepair

#endif  // FDREPAIR_SREPAIR_SREPAIR_EXACT_H_
