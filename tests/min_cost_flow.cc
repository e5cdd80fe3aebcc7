#include "min_cost_flow.h"

#include <algorithm>
#include <deque>
#include <limits>
#include <map>

namespace fdrepair {
namespace {
constexpr double kInf = std::numeric_limits<double>::infinity();
constexpr double kEps = 1e-9;
}  // namespace

MinCostFlow::MinCostFlow(int num_nodes)
    : num_nodes_(num_nodes), adjacency_(num_nodes) {
  FDR_CHECK(num_nodes >= 0);
}

int MinCostFlow::AddEdge(int from, int to, double capacity, double cost) {
  FDR_CHECK_MSG(from >= 0 && from < num_nodes_, "from=" << from);
  FDR_CHECK_MSG(to >= 0 && to < num_nodes_, "to=" << to);
  FDR_CHECK_MSG(capacity >= 0, "capacity=" << capacity);
  int forward = static_cast<int>(edges_.size());
  int backward = forward + 1;
  edges_.push_back(Edge{to, capacity, cost, backward});
  edges_.push_back(Edge{from, 0.0, -cost, forward});
  adjacency_[from].push_back(forward);
  adjacency_[to].push_back(backward);
  public_edges_.push_back(forward);
  return static_cast<int>(public_edges_.size()) - 1;
}

bool MinCostFlow::ShortestPath(int source, int sink, std::vector<double>* dist,
                               std::vector<int>* parent_edge) const {
  // SPFA (queue-based Bellman-Ford); handles the negative costs introduced
  // by weight negation and by residual reverse edges.
  dist->assign(num_nodes_, kInf);
  parent_edge->assign(num_nodes_, -1);
  std::vector<char> in_queue(num_nodes_, 0);
  std::deque<int> queue;
  (*dist)[source] = 0;
  queue.push_back(source);
  in_queue[source] = 1;
  while (!queue.empty()) {
    int node = queue.front();
    queue.pop_front();
    in_queue[node] = 0;
    for (int edge_index : adjacency_[node]) {
      const Edge& edge = edges_[edge_index];
      if (edge.capacity <= kEps) continue;
      double candidate = (*dist)[node] + edge.cost;
      if (candidate + kEps < (*dist)[edge.to]) {
        (*dist)[edge.to] = candidate;
        (*parent_edge)[edge.to] = edge_index;
        if (!in_queue[edge.to]) {
          // SLF heuristic: promising nodes to the front.
          if (!queue.empty() && candidate < (*dist)[queue.front()]) {
            queue.push_front(edge.to);
          } else {
            queue.push_back(edge.to);
          }
          in_queue[edge.to] = 1;
        }
      }
    }
  }
  return (*dist)[sink] < kInf;
}

MinCostFlow::Result MinCostFlow::Solve(int source, int sink,
                                       bool stop_on_nonnegative_path) {
  FDR_CHECK_MSG(source >= 0 && source < num_nodes_, "source=" << source);
  FDR_CHECK_MSG(sink >= 0 && sink < num_nodes_, "sink=" << sink);
  FDR_CHECK(source != sink);
  Result result;
  std::vector<double> dist;
  std::vector<int> parent_edge;
  while (ShortestPath(source, sink, &dist, &parent_edge)) {
    if (stop_on_nonnegative_path && dist[sink] >= -kEps) break;
    // Bottleneck along the path.
    double bottleneck = kInf;
    for (int node = sink; node != source;) {
      const Edge& edge = edges_[parent_edge[node]];
      bottleneck = std::min(bottleneck, edge.capacity);
      node = edges_[edge.twin].to;
    }
    FDR_CHECK(bottleneck > 0 && bottleneck < kInf);
    for (int node = sink; node != source;) {
      Edge& edge = edges_[parent_edge[node]];
      edge.capacity -= bottleneck;
      edges_[edge.twin].capacity += bottleneck;
      node = edges_[edge.twin].to;
    }
    result.flow += bottleneck;
    result.cost += bottleneck * dist[sink];
  }
  return result;
}

double MinCostFlow::Flow(int edge_index) const {
  FDR_CHECK_MSG(
      edge_index >= 0 && edge_index < static_cast<int>(public_edges_.size()),
      "edge_index=" << edge_index);
  int forward = public_edges_[edge_index];
  // Flow pushed = capacity accumulated on the twin (reverse) edge.
  return edges_[edges_[forward].twin].capacity;
}

MatchingResult MaxWeightMatchingMinCostFlow(
    int num_left, int num_right, const std::vector<BipartiteEdge>& edges) {
  std::map<std::pair<int, int>, double> best;
  for (const BipartiteEdge& edge : edges) {
    auto [it, inserted] = best.emplace(std::pair(edge.left, edge.right),
                                       edge.weight);
    if (!inserted) it->second = std::max(it->second, edge.weight);
  }
  // Network: source 0, left nodes 1..num_left, right nodes follow, sink last.
  const int source = 0;
  const int sink = num_left + num_right + 1;
  MinCostFlow flow(sink + 1);
  for (int u = 0; u < num_left; ++u) flow.AddEdge(source, 1 + u, 1.0, 0.0);
  for (int v = 0; v < num_right; ++v) {
    flow.AddEdge(1 + num_left + v, sink, 1.0, 0.0);
  }
  std::vector<int> flow_edges;
  for (const auto& [pair, weight] : best) {
    flow_edges.push_back(
        flow.AddEdge(1 + pair.first, 1 + num_left + pair.second, 1.0, -weight));
  }
  flow.Solve(source, sink, /*stop_on_nonnegative_path=*/true);
  MatchingResult result;
  int e = 0;
  for (const auto& [pair, weight] : best) {
    if (flow.Flow(flow_edges[e++]) > 0.5) {
      result.pairs.push_back(pair);
      result.total_weight += weight;
    }
  }
  return result;
}

}  // namespace fdrepair
