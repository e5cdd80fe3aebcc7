#include "graph/vc_lp.h"

#include <algorithm>
#include <limits>
#include <queue>

namespace fdrepair {
namespace {

constexpr double kEps = 1e-12;
constexpr double kInf = std::numeric_limits<double>::infinity();

/// Dinic max-flow on a small arena-allocated arc list. Capacities are
/// doubles (tuple weights); kEps guards the saturation tests, and the phase
/// structure (level strictly increases, each augment saturates an arc)
/// terminates for real-valued capacities just as for integers.
class Dinic {
 public:
  explicit Dinic(int num_nodes)
      : head_(num_nodes, -1), level_(num_nodes), iter_(num_nodes) {}

  void AddArc(int from, int to, double capacity) {
    arcs_.push_back(Arc{to, head_[from], capacity});
    head_[from] = static_cast<int>(arcs_.size()) - 1;
    arcs_.push_back(Arc{from, head_[to], 0});
    head_[to] = static_cast<int>(arcs_.size()) - 1;
  }

  double MaxFlow(int source, int sink) {
    double flow = 0;
    while (Bfs(source, sink)) {
      iter_ = head_;
      double pushed;
      while ((pushed = Dfs(source, sink, kInf)) > kEps) flow += pushed;
    }
    return flow;
  }

  /// Residual reachability from `source` after MaxFlow: the s-side of a
  /// minimum cut.
  std::vector<char> SourceSide(int source) const {
    std::vector<char> seen(head_.size(), 0);
    std::queue<int> queue;
    queue.push(source);
    seen[source] = 1;
    while (!queue.empty()) {
      int v = queue.front();
      queue.pop();
      for (int a = head_[v]; a != -1; a = arcs_[a].next) {
        if (arcs_[a].capacity > kEps && !seen[arcs_[a].to]) {
          seen[arcs_[a].to] = 1;
          queue.push(arcs_[a].to);
        }
      }
    }
    return seen;
  }

 private:
  struct Arc {
    int to;
    int next;  // previous arc out of the same node (intrusive list)
    double capacity;
  };

  bool Bfs(int source, int sink) {
    std::fill(level_.begin(), level_.end(), -1);
    std::queue<int> queue;
    queue.push(source);
    level_[source] = 0;
    while (!queue.empty()) {
      int v = queue.front();
      queue.pop();
      for (int a = head_[v]; a != -1; a = arcs_[a].next) {
        if (arcs_[a].capacity > kEps && level_[arcs_[a].to] < 0) {
          level_[arcs_[a].to] = level_[v] + 1;
          queue.push(arcs_[a].to);
        }
      }
    }
    return level_[sink] >= 0;
  }

  double Dfs(int v, int sink, double limit) {
    if (v == sink) return limit;
    for (int& a = iter_[v]; a != -1; a = arcs_[a].next) {
      Arc& arc = arcs_[a];
      if (arc.capacity <= kEps || level_[arc.to] != level_[v] + 1) continue;
      double pushed = Dfs(arc.to, sink, std::min(limit, arc.capacity));
      if (pushed > kEps) {
        arc.capacity -= pushed;
        arcs_[a ^ 1].capacity += pushed;
        return pushed;
      }
    }
    return 0;
  }

  std::vector<Arc> arcs_;
  std::vector<int> head_;
  std::vector<int> level_;
  std::vector<int> iter_;
};

}  // namespace

VcLpSolution SolveVcLp(const NodeWeightedGraph& graph) {
  const int n = graph.num_nodes();
  VcLpSolution solution;
  solution.x.assign(n, 0.0);
  if (graph.num_edges() == 0) return solution;

  // Bipartite doubling: nodes 0..n-1 are the left copies, n..2n-1 the right
  // copies, 2n the source, 2n+1 the sink. Both copies of v carry w_v; each
  // original edge {u, v} becomes the two uncuttable arcs L_u→R_v, L_v→R_u.
  // max-flow = min-weight vertex cover of the doubling = 2 · LP optimum.
  const int source = 2 * n;
  const int sink = 2 * n + 1;
  Dinic dinic(2 * n + 2);
  for (int v = 0; v < n; ++v) {
    if (graph.Degree(v) == 0) continue;
    dinic.AddArc(source, v, graph.weight(v));
    dinic.AddArc(n + v, sink, graph.weight(v));
  }
  for (const auto& [u, v] : graph.edges()) {
    dinic.AddArc(u, n + v, kInf);
    dinic.AddArc(v, n + u, kInf);
  }
  const double flow = dinic.MaxFlow(source, sink);
  const std::vector<char> s_side = dinic.SourceSide(source);

  // Min-cut → min-weight cover of the doubling: L_v is in the cover iff
  // s→L_v is cut (L_v unreachable), R_v iff R_v→t is cut (R_v reachable).
  // x_v = (in-cover count of v's two copies) / 2 is an optimal half-
  // integral LP solution (Nemhauser–Trotter).
  for (int v = 0; v < n; ++v) {
    if (graph.Degree(v) == 0) continue;
    const int copies = (s_side[v] ? 0 : 1) + (s_side[n + v] ? 1 : 0);
    solution.x[v] = copies / 2.0;
    if (copies == 2) {
      solution.ones.push_back(v);
    } else if (copies == 1) {
      solution.halves.push_back(v);
    }
  }
  solution.value = flow / 2.0;
  return solution;
}

}  // namespace fdrepair
