// Weighted vertex cover.
//
// Proposition 3.3 reduces optimal S-repairing to weighted vertex cover on
// the conflict graph and inherits the classic 2-approximation of Bar-Yehuda
// and Even (local-ratio). The exact solver provides ground truth for the
// approximation-ratio experiments (E5), for the gadget equivalences and
// for the exact reference repair; the planner's exact backends search
// elsewhere (srepair/soft_cover.h, srepair/solver_ilp.cc).

#ifndef FDREPAIR_GRAPH_VERTEX_COVER_H_
#define FDREPAIR_GRAPH_VERTEX_COVER_H_

#include <vector>

#include "common/status.h"
#include "graph/graph.h"

namespace fdrepair {

/// Bar-Yehuda–Even local-ratio algorithm: for each edge {u, v}, subtract
/// min(residual(u), residual(v)) from both endpoints; nodes driven to zero
/// form the cover. Guarantees weight(cover) <= 2 · weight(optimal cover).
/// Runs in O(n + m). Edge order affects which 2-approximation is returned
/// (but never the guarantee); pass `edge_order` to ablate (E5). When
/// `dual_lower_bound` is non-null it receives the total subtracted weight —
/// a feasible edge packing, hence a lower bound on the optimal cover.
std::vector<int> VertexCoverLocalRatio(const NodeWeightedGraph& graph);
std::vector<int> VertexCoverLocalRatio(const NodeWeightedGraph& graph,
                                       const std::vector<int>& edge_order);
std::vector<int> VertexCoverLocalRatio(const NodeWeightedGraph& graph,
                                       const std::vector<int>& edge_order,
                                       double* dual_lower_bound);

/// Exact minimum-weight vertex cover by branch and bound (branch on an
/// uncovered edge; prune on the accumulated weight). Exponential and
/// unlimited; refuses graphs with more than `max_nodes` nodes. It backs
/// the exact reference (srepair/srepair_exact.h) and shares no search
/// with any solver backend.
StatusOr<std::vector<int>> MinWeightVertexCoverExact(
    const NodeWeightedGraph& graph, int max_nodes = 40);

/// Greedily removes redundant nodes from a valid cover (heaviest first);
/// corresponds to turning a consistent subset into a ⊆-maximal S-repair with
/// no distance increase (§2.3).
std::vector<int> MinimizeCover(const NodeWeightedGraph& graph,
                               std::vector<int> cover);

}  // namespace fdrepair

#endif  // FDREPAIR_GRAPH_VERTEX_COVER_H_
