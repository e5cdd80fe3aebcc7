#include "srepair/soft_cover.h"

#include <algorithm>
#include <utility>

#include "catalog/fd.h"
#include "common/status.h"
#include "graph/vc_lp.h"

namespace fdrepair {
namespace {

constexpr double kEps = 1e-12;
/// Pruning slack, matching the hard-side searches (solver_ilp.cc).
constexpr double kPruneEps = 1e-9;

bool IsHardEdge(double penalty) { return penalty == kHardFdWeight; }

/// Evaluates a deletion set into *out (cover, weight, paid penalties) and
/// returns the objective.
double Score(const NodeWeightedGraph& graph,
             const std::vector<double>& penalties,
             const std::vector<char>& deleted, SolverCover* out) {
  out->cover.clear();
  out->weight = 0;
  out->penalty = 0;
  for (int v = 0; v < graph.num_nodes(); ++v) {
    if (deleted[v]) {
      out->cover.push_back(v);
      out->weight += graph.weight(v);
    }
  }
  const auto& edges = graph.edges();
  for (size_t e = 0; e < edges.size(); ++e) {
    if (!deleted[edges[e].first] && !deleted[edges[e].second]) {
      out->penalty += penalties[e];
    }
  }
  return out->weight + out->penalty;
}

/// Greedily un-deletes nodes (heaviest first) whose return is feasible
/// (no hard edge to a kept node) and profitable (weight exceeds the
/// penalties of the soft edges that would go uncovered). The soft
/// counterpart of MinimizeCover / RestoreConsistentRows: never increases
/// the objective, deterministic.
void ImproveByRestoring(const NodeWeightedGraph& graph,
                        const std::vector<double>& penalties,
                        const std::vector<std::vector<std::pair<int, int>>>&
                            incident,
                        std::vector<char>* deleted) {
  std::vector<int> order;
  for (int v = 0; v < graph.num_nodes(); ++v) {
    if ((*deleted)[v]) order.push_back(v);
  }
  std::stable_sort(order.begin(), order.end(), [&](int a, int b) {
    return graph.weight(a) > graph.weight(b);
  });
  for (int v : order) {
    double exposed = 0;
    bool feasible = true;
    for (const auto& [u, e] : incident[v]) {
      if ((*deleted)[u]) continue;  // still covered by the other endpoint
      if (IsHardEdge(penalties[e])) {
        feasible = false;
        break;
      }
      exposed += penalties[e];
    }
    if (feasible && graph.weight(v) > exposed + kEps) (*deleted)[v] = 0;
  }
}

std::vector<std::vector<std::pair<int, int>>> BuildIncident(
    const NodeWeightedGraph& graph) {
  std::vector<std::vector<std::pair<int, int>>> incident(graph.num_nodes());
  const auto& edges = graph.edges();
  for (size_t e = 0; e < edges.size(); ++e) {
    incident[edges[e].first].emplace_back(edges[e].second,
                                          static_cast<int>(e));
    incident[edges[e].second].emplace_back(edges[e].first,
                                           static_cast<int>(e));
  }
  return incident;
}

/// The exact keep/delete search.
class SoftSearch {
 public:
  SoftSearch(const NodeWeightedGraph& graph,
             const std::vector<double>& penalties,
             const std::vector<std::vector<std::pair<int, int>>>& incident,
             const SolverExec& exec)
      : graph_(graph), penalties_(penalties), incident_(incident),
        exec_(exec) {
    state_.assign(graph.num_nodes(), kUndecided);
    residual_w_.resize(graph.num_nodes());
    residual_p_.resize(graph.num_edges());
  }

  /// Runs to completion or limit expiry; `seed` is the starting incumbent.
  void Run(const std::vector<char>& seed, double seed_total) {
    std::fill(state_.begin(), state_.end(), kUndecided);
    best_deleted_ = seed;
    best_ = seed_total;
    if (exec_.expired()) {
      stopped_ = true;  // expired before the first node: the seed stands
    } else {
      Search(0, 0);
    }
  }

  const std::vector<char>& best_deleted() const { return best_deleted_; }
  bool completed() const { return !stopped_; }
  long nodes() const { return nodes_; }

  /// The residual-instance burn bound at the root (state all-undecided).
  double RootBound() {
    std::fill(state_.begin(), state_.end(), kUndecided);
    return Burn();
  }

 private:
  static constexpr char kUndecided = 0;
  static constexpr char kKept = 1;
  static constexpr char kDeleted = 2;

  /// Local-ratio burn over the constraints still open in the current
  /// state: a feasible dual packing of the residual instance, hence a
  /// lower bound on the cost still to be paid below this search node.
  double Burn() {
    for (int v = 0; v < graph_.num_nodes(); ++v) {
      residual_w_[v] = graph_.weight(v);
    }
    const auto& edges = graph_.edges();
    double burn = 0;
    for (size_t e = 0; e < edges.size(); ++e) {
      const auto [u, v] = edges[e];
      const char su = state_[u];
      const char sv = state_[v];
      if (su == kDeleted || sv == kDeleted) continue;  // covered
      if (su == kKept && sv == kKept) continue;  // penalty already paid
      if (su == kUndecided && sv == kUndecided) {
        residual_p_[e] = penalties_[e];
        const double eps = std::min(
            {residual_w_[u], residual_w_[v], residual_p_[e]});
        residual_w_[u] -= eps;
        residual_w_[v] -= eps;
        residual_p_[e] -= eps;
        burn += eps;
      } else {
        // One endpoint kept: delete the other or pay. Hard edges never
        // reach here — keeping an endpoint force-deletes the other side.
        const int open = su == kUndecided ? u : v;
        const double eps = std::min(residual_w_[open], penalties_[e]);
        residual_w_[open] -= eps;
        burn += eps;
      }
    }
    return burn;
  }

  void Search(int from, double cost) {
    if (stopped_ || exec_.Exhausted(++nodes_)) {
      stopped_ = true;
      return;
    }
    int i = from;
    while (i < graph_.num_nodes() && state_[i] != kUndecided) ++i;
    if (i == graph_.num_nodes()) {
      if (cost < best_ - kPruneEps) {
        best_ = cost;
        for (int v = 0; v < graph_.num_nodes(); ++v) {
          best_deleted_[v] = state_[v] == kDeleted ? 1 : 0;
        }
      }
      return;
    }
    if (cost + Burn() >= best_ - kPruneEps) return;

    // Keep branch first: near-clean instances keep almost everything, so
    // good incumbents surface early. Keeping i prices its soft edges to
    // kept neighbors and force-deletes its undecided hard neighbors.
    {
      std::vector<int> trail;
      double delta = 0;
      bool feasible = true;
      for (const auto& [j, e] : incident_[i]) {
        if (state_[j] != kKept) continue;
        if (IsHardEdge(penalties_[e])) {
          feasible = false;  // would leave a hard edge uncovered
          break;
        }
        delta += penalties_[e];
      }
      if (feasible) {
        state_[i] = kKept;
        for (const auto& [j, e] : incident_[i]) {
          if (state_[j] == kUndecided && IsHardEdge(penalties_[e])) {
            state_[j] = kDeleted;
            trail.push_back(j);
            delta += graph_.weight(j);
          }
        }
        Search(i + 1, cost + delta);
        for (int j : trail) state_[j] = kUndecided;
        state_[i] = kUndecided;
      }
    }

    // Delete branch.
    state_[i] = kDeleted;
    Search(i + 1, cost + graph_.weight(i));
    state_[i] = kUndecided;
  }

  const NodeWeightedGraph& graph_;
  const std::vector<double>& penalties_;
  const std::vector<std::vector<std::pair<int, int>>>& incident_;
  const SolverExec& exec_;

  std::vector<char> state_;
  std::vector<char> best_deleted_;
  double best_ = 0;
  std::vector<double> residual_w_;
  std::vector<double> residual_p_;
  long nodes_ = 0;
  bool stopped_ = false;
};

/// The vertex-cover LP of the hard-edge subgraph: every feasible solution
/// covers all hard edges, so the LP optimum lower-bounds the objective
/// (soft penalties only add). Nodes keep their identity and weight; soft
/// edges are simply absent.
double HardSubgraphLpBound(const NodeWeightedGraph& graph,
                           const std::vector<double>& penalties) {
  NodeWeightedGraph hard(graph.num_nodes());
  for (int v = 0; v < graph.num_nodes(); ++v) {
    hard.set_weight(v, graph.weight(v));
  }
  const auto& edges = graph.edges();
  bool any = false;
  for (size_t e = 0; e < edges.size(); ++e) {
    if (IsHardEdge(penalties[e])) {
      hard.AddEdge(edges[e].first, edges[e].second);
      any = true;
    }
  }
  if (!any) return 0;
  return SolveVcLp(hard).value;
}

}  // namespace

SolverCover SoftCoverLocalRatio(const NodeWeightedGraph& graph,
                                const std::vector<double>& penalties) {
  FDR_CHECK_MSG(static_cast<int>(penalties.size()) == graph.num_edges(),
                "penalties misaligned with graph edges");
  const int n = graph.num_nodes();
  std::vector<double> residual_w(n);
  for (int v = 0; v < n; ++v) residual_w[v] = graph.weight(v);
  const auto& edges = graph.edges();
  double burn = 0;
  for (size_t e = 0; e < edges.size(); ++e) {
    const auto [u, v] = edges[e];
    const double eps =
        std::min({residual_w[u], residual_w[v], penalties[e]});
    residual_w[u] -= eps;
    residual_w[v] -= eps;
    burn += eps;
  }
  // Delete every conflicted node whose residual hit zero; uncovered soft
  // edges (both endpoints still positive) pay their — fully burned —
  // penalty.
  std::vector<char> deleted(n, 0);
  for (int v = 0; v < n; ++v) {
    if (graph.Degree(v) > 0 && residual_w[v] <= kEps) deleted[v] = 1;
  }
  auto incident = BuildIncident(graph);
  ImproveByRestoring(graph, penalties, incident, &deleted);
  SolverCover out;
  const double total = Score(graph, penalties, deleted, &out);
  out.lower_bound = burn;
  out.optimal = total <= burn + kPruneEps;
  out.ratio_bound = out.optimal ? 1.0 : 3.0;
  return out;
}

SolverCover SoftCoverBranchAndBound(const NodeWeightedGraph& graph,
                                    const std::vector<double>& penalties,
                                    const SolverExec& exec, bool use_lp_bound) {
  FDR_CHECK_MSG(static_cast<int>(penalties.size()) == graph.num_edges(),
                "penalties misaligned with graph edges");
  SolverCover seed = SoftCoverLocalRatio(graph, penalties);
  if (seed.optimal) {
    // The primal-dual pass met its own lower bound; no search needed.
    return seed;
  }
  auto incident = BuildIncident(graph);
  std::vector<char> seed_deleted(graph.num_nodes(), 0);
  for (int v : seed.cover) seed_deleted[v] = 1;

  SoftSearch search(graph, penalties, incident, exec);
  double root_bound = search.RootBound();
  if (use_lp_bound) {
    root_bound = std::max(root_bound, HardSubgraphLpBound(graph, penalties));
  }
  search.Run(seed_deleted, seed.weight + seed.penalty);

  SolverCover out;
  std::vector<char> deleted = search.best_deleted();
  if (!search.completed()) {
    // Truncated: the incumbent may carry slack a restore pass removes.
    ImproveByRestoring(graph, penalties, incident, &deleted);
  }
  const double total = Score(graph, penalties, deleted, &out);
  out.nodes = search.nodes();
  out.optimal = search.completed();
  out.lower_bound =
      out.optimal ? total : std::max(root_bound, seed.lower_bound);
  out.ratio_bound = out.optimal ? 1.0 : 3.0;
  return out;
}

}  // namespace fdrepair
