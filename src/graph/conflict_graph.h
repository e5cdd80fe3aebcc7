// Conflict graph (§3.1, Proposition 3.3): one node per tuple (weighted by
// the tuple weight), one edge per pair of tuples that jointly violate some
// FD. Deleting a vertex cover of this graph yields a consistent subset, and
// the reduction is strict — the basis of every route on the hard side of
// the dichotomy: the subset planner's cover backends, the soft planner's
// prize-collecting cover, and the exact reference OptSRepairExact.
//
// One enumeration builds it for all of them. Per FD, the view is grouped by
// lhs (LhsGroups, storage/consistency.h — the fused local-ratio's
// grouping, over the indexes Satisfies uses); within a group, members
// with different rhs values pairwise violate the FD. Pairs are merged
// across FDs and come out in ascending (i, j) order, so edge order — and
// with it which of several tied optima a search backend returns — is
// canonical, independent of any hash-table iteration order.

#ifndef FDREPAIR_GRAPH_CONFLICT_GRAPH_H_
#define FDREPAIR_GRAPH_CONFLICT_GRAPH_H_

#include <vector>

#include "catalog/fdset.h"
#include "graph/graph.h"
#include "storage/table_view.h"

namespace fdrepair {

/// The conflict graph restricted to its conflicted tuples — the only part
/// a cover solver explores; isolated tuples are always kept.
struct ConflictedCore {
  /// View indices with at least one violating pair, ascending: core node c
  /// is view row nodes[c].
  std::vector<int> nodes;
  /// Node c weighs view.weight(nodes[c]); edges in ascending (u, v) order.
  NodeWeightedGraph graph{0};
  /// Aligned with graph.edges(): kHardFdWeight when any hard FD fires on
  /// the pair, else the sum of the soft weights that do (in ∆'s order).
  std::vector<double> penalties;

  /// The complement of `cover` (core node ids): every view row not
  /// deleted, as dense row positions in ascending order.
  std::vector<int> KeptRows(const TableView& view,
                            const std::vector<int>& cover) const;
};

/// Builds the conflicted core of `view` under ∆. Worst-case Θ(n²) edges
/// (inherent).
ConflictedCore BuildConflictedCore(const TableView& view, const FdSet& fds);

/// The full conflict graph over the same enumeration: node i is view row i
/// and carries that tuple's weight; edges in ascending (i, j) order.
NodeWeightedGraph BuildConflictGraph(const TableView& view, const FdSet& fds);

}  // namespace fdrepair

#endif  // FDREPAIR_GRAPH_CONFLICT_GRAPH_H_
