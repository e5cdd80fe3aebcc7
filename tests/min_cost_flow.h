// Test-only reference: min-cost flow via successive shortest augmenting
// paths (Bellman-Ford / SPFA on the residual network), and the maximum
// weight bipartite matching built on it. This was the production matching
// of Subroutine 3 (MarriageRep) before the sparse assignment solver in
// graph/bipartite_matching.h; it stays as a large-graph oracle.
//
// Costs are doubles (tuple weights are real-valued); an epsilon guards the
// "is this path still profitable" test when augmentation may stop early.

#ifndef FDREPAIR_TESTS_MIN_COST_FLOW_H_
#define FDREPAIR_TESTS_MIN_COST_FLOW_H_

#include <vector>

#include "common/status.h"
#include "graph/bipartite_matching.h"

namespace fdrepair {

/// A directed flow network with per-edge capacity and cost.
class MinCostFlow {
 public:
  /// A network with `num_nodes` nodes and no edges.
  explicit MinCostFlow(int num_nodes);

  /// Adds a directed edge; returns its index for later Flow() queries.
  /// Capacity must be non-negative; cost may be negative (max-weight
  /// matching negates weights).
  int AddEdge(int from, int to, double capacity, double cost);

  struct Result {
    double flow = 0;
    double cost = 0;
  };

  /// Repeatedly augments along a minimum-cost path from `source` to `sink`.
  /// With `stop_on_nonnegative_path` set, stops as soon as the cheapest
  /// augmenting path has cost >= -epsilon — exactly the stopping rule that
  /// turns min-cost flow into *maximum-weight* (not maximum-cardinality)
  /// matching.
  Result Solve(int source, int sink, bool stop_on_nonnegative_path = false);

  /// Flow routed through edge `edge_index` (as returned by AddEdge).
  double Flow(int edge_index) const;

 private:
  struct Edge {
    int to;
    double capacity;  // residual capacity
    double cost;
    int twin;  // index of the reverse edge
  };

  // Shortest path by cost from `source`; fills dist/parent_edge. Returns
  // true iff sink reachable.
  bool ShortestPath(int source, int sink, std::vector<double>* dist,
                    std::vector<int>* parent_edge) const;

  int num_nodes_;
  std::vector<Edge> edges_;                // interleaved edge/twin pairs
  std::vector<std::vector<int>> adjacency_;  // node -> edge indices
  std::vector<int> public_edges_;          // AddEdge order -> edges_ index
};

/// Maximum-weight bipartite matching as min-cost flow: source → left →
/// right → sink, unit capacities, costs −weight, stopping at the first
/// non-negative augmenting path. Duplicate edges keep the heaviest copy.
MatchingResult MaxWeightMatchingMinCostFlow(
    int num_left, int num_right, const std::vector<BipartiteEdge>& edges);

}  // namespace fdrepair

#endif  // FDREPAIR_TESTS_MIN_COST_FLOW_H_
