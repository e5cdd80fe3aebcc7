// 2-approximate S-repair via weighted vertex cover (Proposition 3.3).
//
// Two interchangeable engines:
//  - the explicit route: materialize the conflict graph and run
//    Bar-Yehuda–Even local-ratio on its edge list (useful for the edge-order
//    ablation in E5);
//  - the fused route: run local-ratio directly on FD violation groups
//    without materializing Θ(n²) edges. Within one lhs-group the conflict
//    structure is complete multipartite across rhs-subgroups, so pairing any
//    two *alive* tuples from different subgroups and subtracting the smaller
//    residual kills at least one tuple per step — O(|∆| · n) amortized.
//
// Both finish by restoring greedily every deleted tuple that no longer
// conflicts (turning the consistent subset into an S-repair, §2.3), which
// never increases the distance.

#ifndef FDREPAIR_SREPAIR_SREPAIR_VC_APPROX_H_
#define FDREPAIR_SREPAIR_SREPAIR_VC_APPROX_H_

#include <vector>

#include "catalog/fdset.h"
#include "common/status.h"
#include "storage/table.h"
#include "storage/table_view.h"

namespace fdrepair {

/// Fused local-ratio 2-approximation; returns kept dense row positions in
/// increasing order. Works for every FD set (both dichotomy sides).
/// When `dual_lower_bound` is non-null it receives the total local-ratio
/// burn — a feasible fractional edge packing of the conflict graph, hence
/// a lower bound on the optimal deletion weight (the LP-duality half of
/// the factor-2 guarantee). The achieved distance is at most twice it.
std::vector<int> SRepairVcApproxRows(const FdSet& fds, const TableView& view,
                                     double* dual_lower_bound = nullptr);

/// Explicit conflict-graph route with a caller-supplied edge processing
/// order (indices into the conflict graph's edge list); used by ablations.
std::vector<int> SRepairVcApproxRowsViaGraph(const FdSet& fds,
                                             const TableView& view,
                                             const std::vector<int>& edge_order);

/// Materialized convenience wrapper around SRepairVcApproxRows.
Table SRepairVcApprox(const FdSet& fds, const Table& table);

/// Greedy maximalization: given kept rows forming a consistent subset, adds
/// back every other row that stays consistent, heaviest first. Exposed for
/// reuse by the exact solver and by tests.
std::vector<int> RestoreConsistentRows(const FdSet& fds, const TableView& view,
                                       std::vector<int> kept_rows);

}  // namespace fdrepair

#endif  // FDREPAIR_SREPAIR_SREPAIR_VC_APPROX_H_
