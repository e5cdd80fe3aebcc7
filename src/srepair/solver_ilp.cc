// The "ilp" and "lp-rounding" solver backends.
//
// Both are built on the exact half-integral LP relaxation of the vertex-
// cover ILP (graph/vc_lp.h) — no external solver. "ilp" is a branch and
// bound over the ILP's edge-covering constraints: Nemhauser–Trotter
// persistency fixes every x=1 vertex into the cover and confines the
// search to the half-integral kernel, reduction rules (degree-0 drop,
// neighborhood-weight domination) shrink each subproblem, and a one-pass
// dual-ascent packing prunes nodes against the incumbent. "lp-rounding"
// rounds the half-integral optimum up and greedily drops redundant
// vertices, giving the classic factor-2 guarantee with the LP value as a
// per-instance certificate.

#include <algorithm>
#include <limits>
#include <memory>
#include <utility>
#include <vector>

#include "graph/vc_lp.h"
#include "graph/vertex_cover.h"
#include "srepair/soft_cover.h"
#include "srepair/solver_backend.h"

namespace fdrepair {
namespace {

constexpr double kEps = 1e-12;
/// Pruning slack: a branch is cut when its lower bound comes within this
/// of the incumbent, so optimality claims carry the same tolerance.
constexpr double kPruneEps = 1e-9;

/// Branch and bound confined to the NT kernel. Maintains the alive
/// subgraph incrementally (degrees, alive-edge count) with an undo trail,
/// so each node costs O(E_alive) for reductions plus the dual bound.
class KernelSearch {
 public:
  KernelSearch(const NodeWeightedGraph& graph, const SolverExec& exec)
      : graph_(graph), exec_(exec) {}

  struct Result {
    std::vector<int> cover;  // kernel-graph node ids
    double weight = 0;
    bool completed = false;
    long nodes = 0;
  };

  Result Run() {
    const int n = graph_.num_nodes();
    alive_.assign(n, 1);
    in_cover_.assign(n, 0);
    degree_.resize(n);
    alive_edges_ = graph_.num_edges();
    for (int v = 0; v < n; ++v) degree_[v] = graph_.Degree(v);
    residual_.resize(n);
    // Incumbent: local-ratio on the kernel, minimized. Guarantees the
    // truncated answer still sits within factor 2 of the kernel optimum.
    std::vector<int> seed =
        MinimizeCover(graph_, VertexCoverLocalRatio(graph_));
    best_ = graph_.WeightOf(seed);
    best_cover_.assign(n, 0);
    for (int v : seed) best_cover_[v] = 1;
    if (alive_edges_ > 0) {
      if (exec_.expired()) {
        stopped_ = true;  // expired before the first node: incumbent stands
      } else {
        Search();
      }
    }
    Result out;
    for (int v = 0; v < n; ++v) {
      if (best_cover_[v]) out.cover.push_back(v);
    }
    out.weight = graph_.WeightOf(out.cover);
    out.completed = !stopped_;
    out.nodes = nodes_;
    return out;
  }

 private:
  struct TrailEntry {
    int node;
    char took;  // 1: node entered the cover; 0: node decided out
  };

  void Remove(int v, char took) {
    alive_[v] = 0;
    if (took) {
      acc_ += graph_.weight(v);
      in_cover_[v] = 1;
    }
    for (int u : graph_.Neighbors(v)) {
      if (alive_[u]) {
        --degree_[u];
        --alive_edges_;
      }
    }
    trail_.push_back({v, took});
  }

  void UndoTo(size_t mark) {
    while (trail_.size() > mark) {
      const TrailEntry entry = trail_.back();
      trail_.pop_back();
      const int v = entry.node;
      for (int u : graph_.Neighbors(v)) {
        if (alive_[u]) {
          ++degree_[u];
          ++alive_edges_;
        }
      }
      alive_[v] = 1;
      if (entry.took) {
        acc_ -= graph_.weight(v);
        in_cover_[v] = 0;
      }
    }
  }

  /// Reduction fixpoint on the alive subgraph:
  ///  - degree 0: never needed in a cover, drop;
  ///  - neighborhood domination: w(v) >= w(N_alive(v)) means taking all of
  ///    N(v) instead of v is never worse (it also covers N(v)'s other
  ///    edges), so some optimum excludes v — take N(v), drop v. With a
  ///    single alive neighbor this is the classic weighted pendant rule.
  void Reduce() {
    bool changed = true;
    while (changed && alive_edges_ > 0) {
      changed = false;
      for (int v = 0; v < graph_.num_nodes(); ++v) {
        if (!alive_[v]) continue;
        if (degree_[v] == 0) {
          Remove(v, 0);
          changed = true;
          continue;
        }
        double neighborhood = 0;
        for (int u : graph_.Neighbors(v)) {
          if (alive_[u]) neighborhood += graph_.weight(u);
        }
        if (graph_.weight(v) >= neighborhood - kEps) {
          for (int u : graph_.Neighbors(v)) {
            if (alive_[u]) Remove(u, 1);
          }
          Remove(v, 0);
          changed = true;
        }
      }
    }
    // Edge-free leftovers (only reachable when alive_edges_ hit 0 inside
    // the loop above) are never part of a minimum cover.
    if (alive_edges_ == 0) {
      for (int v = 0; v < graph_.num_nodes(); ++v) {
        if (alive_[v]) Remove(v, 0);
      }
    }
  }

  /// One dual-ascent pass over the alive edges: a feasible fractional edge
  /// packing, so acc_ + bound is a valid lower bound for this subtree.
  double DualBound() {
    for (int v = 0; v < graph_.num_nodes(); ++v) {
      if (alive_[v]) residual_[v] = graph_.weight(v);
    }
    double packed = 0;
    for (const auto& [u, v] : graph_.edges()) {
      if (!alive_[u] || !alive_[v]) continue;
      const double delta = std::min(residual_[u], residual_[v]);
      residual_[u] -= delta;
      residual_[v] -= delta;
      packed += delta;
    }
    return packed;
  }

  /// Max alive degree, ties to the heavier then lower-id node: covering
  /// decisions on hubs collapse the most constraints per branch.
  int PickBranchNode() const {
    int pick = -1;
    for (int v = 0; v < graph_.num_nodes(); ++v) {
      if (!alive_[v] || degree_[v] == 0) continue;
      if (pick < 0 || degree_[v] > degree_[pick] ||
          (degree_[v] == degree_[pick] &&
           graph_.weight(v) > graph_.weight(pick) + kEps)) {
        pick = v;
      }
    }
    return pick;
  }

  void Search() {
    if (stopped_ || exec_.Exhausted(++nodes_)) {
      stopped_ = true;
      return;
    }
    const size_t mark = trail_.size();
    Reduce();
    if (alive_edges_ == 0) {
      if (acc_ < best_) {
        best_ = acc_;
        best_cover_ = in_cover_;
      }
      UndoTo(mark);
      return;
    }
    if (acc_ + DualBound() >= best_ - kPruneEps) {
      UndoTo(mark);
      return;
    }
    const int v = PickBranchNode();
    const size_t inner = trail_.size();
    // Branch 1: v joins the cover.
    Remove(v, 1);
    Search();
    UndoTo(inner);
    // Branch 2: v stays out, so every alive neighbor must join.
    if (!stopped_) {
      for (int u : graph_.Neighbors(v)) {
        if (alive_[u]) Remove(u, 1);
      }
      Remove(v, 0);
      Search();
      UndoTo(inner);
    }
    UndoTo(mark);
  }

  const NodeWeightedGraph& graph_;
  SolverExec exec_;
  std::vector<char> alive_;
  std::vector<char> in_cover_;
  std::vector<int> degree_;
  long alive_edges_ = 0;
  double acc_ = 0;
  double best_ = std::numeric_limits<double>::infinity();
  std::vector<char> best_cover_;
  std::vector<TrailEntry> trail_;
  std::vector<double> residual_;
  long nodes_ = 0;
  bool stopped_ = false;
};

class IlpBnbBackend : public SolverBackend {
 public:
  const char* name() const override { return kSolverIlp; }
  bool exact() const override { return true; }

  StatusOr<SolverCover> SolveCover(const NodeWeightedGraph& graph,
                                   const SolverExec& exec) const override {
    SolverCover out;
    if (graph.num_edges() == 0) {
      out.optimal = true;
      out.ratio_bound = 1.0;
      return out;
    }
    // The LP solve is polynomial (one max-flow) and dwarfed by the search,
    // so the deadline is only consulted around it, not inside.
    const VcLpSolution lp = SolveVcLp(graph);
    // NT persistency: every x=1 node is in some optimum, every x=0 node is
    // out of one, and any edge not covered by the ones has both endpoints
    // half (0 + ½ < 1 would violate LP feasibility) — so the integral
    // search is confined to the induced kernel.
    std::vector<int> kernel_id(graph.num_nodes(), -1);
    NodeWeightedGraph kernel(static_cast<int>(lp.halves.size()));
    for (int i = 0; i < static_cast<int>(lp.halves.size()); ++i) {
      kernel_id[lp.halves[i]] = i;
      kernel.set_weight(i, graph.weight(lp.halves[i]));
    }
    for (const auto& [u, v] : graph.edges()) {
      if (kernel_id[u] >= 0 && kernel_id[v] >= 0) {
        kernel.AddEdge(kernel_id[u], kernel_id[v]);
      }
    }
    KernelSearch::Result search = KernelSearch(kernel, exec).Run();
    out.cover = lp.ones;
    for (int v : search.cover) out.cover.push_back(lp.halves[v]);
    std::sort(out.cover.begin(), out.cover.end());
    out.weight = graph.WeightOf(out.cover);
    out.nodes = search.nodes;
    out.optimal = search.completed;
    if (search.completed) {
      out.lower_bound = out.weight;
      out.ratio_bound = 1.0;
    } else {
      // opt(G) = w(ones) + opt(kernel) >= lp.value, and the incumbent is a
      // minimized local-ratio cover of the kernel, so factor 2 holds even
      // on truncation; the LP certificate usually proves much less.
      out.lower_bound = lp.value;
      out.ratio_bound = out.lower_bound > kEps
                            ? std::min(2.0, out.weight / out.lower_bound)
                            : 2.0;
    }
    FDR_CHECK(IsVertexCover(graph, out.cover));
    return out;
  }

  bool soft_capable() const override { return true; }

  /// Soft instances take the shared keep/delete branch and bound with the
  /// hard-subgraph LP folded into the root bound (NT kernelization does
  /// not transfer: persistency arguments break once an edge may be paid
  /// for instead of covered).
  StatusOr<SolverCover> SolveSoftCover(
      const NodeWeightedGraph& graph, const std::vector<double>& penalties,
      const SolverExec& exec) const override {
    return SoftCoverBranchAndBound(graph, penalties, exec,
                                   /*use_lp_bound=*/true);
  }
};

class LpRoundingBackend : public SolverBackend {
 public:
  const char* name() const override { return kSolverLpRounding; }
  bool exact() const override { return false; }

  StatusOr<SolverCover> SolveCover(const NodeWeightedGraph& graph,
                                   const SolverExec& exec) const override {
    (void)exec;  // one max-flow plus a greedy pass; nothing to interrupt
    SolverCover out;
    if (graph.num_edges() == 0) {
      out.optimal = true;
      out.ratio_bound = 1.0;
      return out;
    }
    const VcLpSolution lp = SolveVcLp(graph);
    // Round every x >= ½ up: each edge has x_u + x_v >= 1, so at least one
    // endpoint survives the rounding — a valid cover of weight at most
    // 2 · lp.value <= 2 · opt. MinimizeCover then drops redundancies.
    std::vector<int> rounded = lp.ones;
    rounded.insert(rounded.end(), lp.halves.begin(), lp.halves.end());
    out.cover = MinimizeCover(graph, std::move(rounded));
    out.weight = graph.WeightOf(out.cover);
    out.lower_bound = lp.value;
    out.optimal = out.weight <= lp.value + kPruneEps;
    out.ratio_bound = out.optimal ? 1.0 : 2.0;
    return out;
  }
};

}  // namespace

std::unique_ptr<SolverBackend> MakeIlpBnbBackend() {
  return std::make_unique<IlpBnbBackend>();
}

std::unique_ptr<SolverBackend> MakeLpRoundingBackend() {
  return std::make_unique<LpRoundingBackend>();
}

}  // namespace fdrepair
