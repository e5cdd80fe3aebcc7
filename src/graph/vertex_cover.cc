#include "graph/vertex_cover.h"

#include <algorithm>
#include <limits>

namespace fdrepair {

std::vector<int> VertexCoverLocalRatio(const NodeWeightedGraph& graph) {
  std::vector<int> order(graph.num_edges());
  for (int i = 0; i < graph.num_edges(); ++i) order[i] = i;
  return VertexCoverLocalRatio(graph, order);
}

std::vector<int> VertexCoverLocalRatio(const NodeWeightedGraph& graph,
                                       const std::vector<int>& edge_order) {
  return VertexCoverLocalRatio(graph, edge_order, nullptr);
}

std::vector<int> VertexCoverLocalRatio(const NodeWeightedGraph& graph,
                                       const std::vector<int>& edge_order,
                                       double* dual_lower_bound) {
  std::vector<double> residual(graph.num_nodes());
  for (int v = 0; v < graph.num_nodes(); ++v) residual[v] = graph.weight(v);
  double packed = 0;
  for (int edge_index : edge_order) {
    FDR_CHECK(edge_index >= 0 && edge_index < graph.num_edges());
    auto [u, v] = graph.edges()[edge_index];
    double delta = std::min(residual[u], residual[v]);
    residual[u] -= delta;
    residual[v] -= delta;
    packed += delta;
  }
  if (dual_lower_bound != nullptr) *dual_lower_bound = packed;
  std::vector<int> cover;
  for (int v = 0; v < graph.num_nodes(); ++v) {
    if (residual[v] <= 1e-12 && graph.Degree(v) > 0) cover.push_back(v);
  }
  FDR_CHECK(IsVertexCover(graph, cover));
  return cover;
}

namespace {

struct BnbState {
  const NodeWeightedGraph* graph;
  std::vector<char> in_cover;
  std::vector<char> excluded;  // nodes decided out of the cover
  double weight = 0;
  double best_weight = std::numeric_limits<double>::infinity();
  std::vector<int> best_cover;
};

// Finds an edge not covered yet (neither endpoint in the cover); returns
// false when everything is covered.
bool FindUncoveredEdge(const BnbState& state, int* u, int* v) {
  for (const auto& [a, b] : state.graph->edges()) {
    if (!state.in_cover[a] && !state.in_cover[b]) {
      *u = a;
      *v = b;
      return true;
    }
  }
  return false;
}

void Branch(BnbState* state) {
  if (state->weight >= state->best_weight) return;  // prune
  int u, v;
  if (!FindUncoveredEdge(*state, &u, &v)) {
    state->best_weight = state->weight;
    state->best_cover.clear();
    for (int node = 0; node < state->graph->num_nodes(); ++node) {
      if (state->in_cover[node]) state->best_cover.push_back(node);
    }
    return;
  }
  // Branch 1: u joins the cover.
  if (!state->excluded[u]) {
    state->in_cover[u] = 1;
    state->weight += state->graph->weight(u);
    Branch(state);
    state->weight -= state->graph->weight(u);
    state->in_cover[u] = 0;
  }
  // Branch 2: u is excluded; then every neighbor of u must join. For the
  // chosen edge this forces v, which keeps the search tree binary.
  if (!state->excluded[u]) {
    state->excluded[u] = 1;
    std::vector<int> forced;
    bool feasible = true;
    for (int neighbor : state->graph->Neighbors(u)) {
      if (state->in_cover[neighbor]) continue;
      if (state->excluded[neighbor]) {
        feasible = false;  // both endpoints excluded: dead branch
        break;
      }
      forced.push_back(neighbor);
    }
    if (feasible) {
      for (int node : forced) {
        state->in_cover[node] = 1;
        state->weight += state->graph->weight(node);
      }
      Branch(state);
      for (int node : forced) {
        state->in_cover[node] = 0;
        state->weight -= state->graph->weight(node);
      }
    }
    state->excluded[u] = 0;
  }
}

}  // namespace

StatusOr<std::vector<int>> MinWeightVertexCoverExact(
    const NodeWeightedGraph& graph, int max_nodes) {
  if (graph.num_nodes() > max_nodes) {
    return Status::ResourceExhausted(
        "exact vertex cover limited to " + std::to_string(max_nodes) +
        " nodes, got " + std::to_string(graph.num_nodes()));
  }
  BnbState state;
  state.graph = &graph;
  state.in_cover.assign(graph.num_nodes(), 0);
  state.excluded.assign(graph.num_nodes(), 0);
  // Incumbent seed: every non-isolated node is trivially a cover. Seeding
  // with a weight (rather than a real incumbent cover) would prune
  // differently and change which of several tied optima the search
  // returns — the trivial cover's weight only prunes branches that could
  // never win.
  for (int v = 0; v < graph.num_nodes(); ++v) {
    if (graph.Degree(v) > 0) state.best_cover.push_back(v);
  }
  state.best_weight = graph.WeightOf(state.best_cover) +
                      std::numeric_limits<double>::epsilon();
  Branch(&state);
  FDR_CHECK(IsVertexCover(graph, state.best_cover));
  return std::move(state.best_cover);
}

std::vector<int> MinimizeCover(const NodeWeightedGraph& graph,
                               std::vector<int> cover) {
  std::vector<char> in_cover(graph.num_nodes(), 0);
  for (int node : cover) in_cover[node] = 1;
  // Try to drop nodes, heaviest first: a node is redundant when all its
  // neighbors are in the cover.
  std::sort(cover.begin(), cover.end(), [&](int a, int b) {
    return graph.weight(a) > graph.weight(b);
  });
  for (int node : cover) {
    bool redundant = true;
    for (int neighbor : graph.Neighbors(node)) {
      if (!in_cover[neighbor]) {
        redundant = false;
        break;
      }
    }
    if (redundant) in_cover[node] = 0;
  }
  std::vector<int> minimized;
  for (int node = 0; node < graph.num_nodes(); ++node) {
    if (in_cover[node]) minimized.push_back(node);
  }
  FDR_CHECK(IsVertexCover(graph, minimized));
  return minimized;
}

}  // namespace fdrepair
