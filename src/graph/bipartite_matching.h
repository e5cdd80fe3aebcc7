// Maximum-weight bipartite matching — the combinatorial core of
// Subroutine 3 (MarriageRep): nodes are the projections of T onto the two
// married lhs's, edge weights are optimal sub-repair weights, and the best
// matching selects which (a1, a2) blocks survive.
//
// "Maximum weight" here means over all matchings of any cardinality (all
// weights are positive in the paper's use, so larger matchings only help,
// but the solver does not assume positivity: an edge of weight <= 0 never
// raises the total, so it is never chosen).
//
// The solver is a sparse shortest-augmenting-path assignment solver. Edges
// are deduplicated into a CSR over left nodes, and every left node gets a
// private zero-cost "stay unmatched" column, which turns max-weight
// matching of any cardinality into a rectangular assignment problem. A
// greedy start (v = 0 on every column; a row takes its best column if it
// is still free) is followed by one Dijkstra per still-free row over the
// reduced costs c_ij − u_i − v_j, with implicit row duals and JV-style
// column-dual updates. O(E + L + R) set-up plus, per free row, one
// Dijkstra: O(E log E) worst case, far less on the marriage graphs.
//
// Tie-break. The chosen matching feeds the bit-identical recursion and the
// delta splice, so it is a pure function of the deduplicated edge set —
// never of input order:
//   - rows (left nodes) are processed in ascending id;
//   - in the greedy start the lowest column wins among equal costs;
//   - the Dijkstra heap breaks equal distances by column id (real columns
//     before the private ones).

#ifndef FDREPAIR_GRAPH_BIPARTITE_MATCHING_H_
#define FDREPAIR_GRAPH_BIPARTITE_MATCHING_H_

#include <utility>
#include <vector>

#include "common/status.h"

namespace fdrepair {

/// An edge between left node `left` and right node `right` with weight.
struct BipartiteEdge {
  int left;
  int right;
  double weight;
};

struct MatchingResult {
  /// Chosen edges as (left, right) pairs; no node repeats.
  std::vector<std::pair<int, int>> pairs;
  /// Aligned with `pairs`: the index of each chosen edge in the input.
  std::vector<int> edge_indices;
  double total_weight = 0;
};

/// Computes a maximum-weight matching of the bipartite graph with
/// `num_left` / `num_right` nodes and the given edges, pairs in ascending
/// left id. Duplicate edges keep the heaviest copy; its edge index is the
/// lowest among equally heavy copies. Thread-safe: scratch buffers are per
/// thread.
MatchingResult MaxWeightBipartiteMatching(int num_left, int num_right,
                                          const std::vector<BipartiteEdge>& edges);

/// Exhaustive matching for cross-checking in tests; edges.size() <= 20.
StatusOr<MatchingResult> MaxWeightMatchingBruteForce(
    int num_left, int num_right, const std::vector<BipartiteEdge>& edges);

}  // namespace fdrepair

#endif  // FDREPAIR_GRAPH_BIPARTITE_MATCHING_H_
