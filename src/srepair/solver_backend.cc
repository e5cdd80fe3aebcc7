#include "srepair/solver_backend.h"

#include <mutex>
#include <utility>
#include <vector>

#include "catalog/fd.h"
#include "graph/vertex_cover.h"
#include "srepair/soft_cover.h"
#include "srepair/srepair_vc_approx.h"

namespace fdrepair {
namespace {

constexpr double kEps = 1e-12;

/// "local-ratio": Bar-Yehuda–Even on the explicit graph, or — preferred by
/// the planner — the fused table-level route that never materializes the
/// Θ(n²) edge set. Both report the local-ratio burn (a feasible edge
/// packing) as the proved lower bound.
class LocalRatioBackend : public SolverBackend {
 public:
  const char* name() const override { return kSolverLocalRatio; }
  bool exact() const override { return false; }

  StatusOr<SolverCover> SolveCover(const NodeWeightedGraph& graph,
                                   const SolverExec& exec) const override {
    (void)exec;  // one O(n + m) pass; nothing to interrupt
    std::vector<int> order(graph.num_edges());
    for (int i = 0; i < graph.num_edges(); ++i) order[i] = i;
    SolverCover out;
    out.cover = VertexCoverLocalRatio(graph, order, &out.lower_bound);
    out.weight = graph.WeightOf(out.cover);
    out.optimal = out.weight <= out.lower_bound + kEps;
    out.ratio_bound = out.optimal ? 1.0 : 2.0;
    return out;
  }

  bool soft_capable() const override { return true; }

  StatusOr<SolverCover> SolveSoftCover(
      const NodeWeightedGraph& graph, const std::vector<double>& penalties,
      const SolverExec& exec) const override {
    (void)exec;  // one pass; nothing to interrupt
    return SoftCoverLocalRatio(graph, penalties);
  }

  bool has_fused_rows() const override { return true; }

  StatusOr<std::vector<int>> SolveRowsFused(
      const FdSet& fds, const TableView& view, const SolverExec& exec,
      double* lower_bound) const override {
    (void)exec;
    return SRepairVcApproxRows(fds, view, lower_bound);
  }
};

/// "bnb": the soft-cover keep/delete branch and bound. Plain vertex cover
/// is the soft instance whose penalties are all infinite, so hard cores
/// take the same search as soft ones.
class BnbBackend : public SolverBackend {
 public:
  const char* name() const override { return kSolverBnb; }
  bool exact() const override { return true; }

  StatusOr<SolverCover> SolveCover(const NodeWeightedGraph& graph,
                                   const SolverExec& exec) const override {
    SolverCover out = SoftCoverBranchAndBound(
        graph, std::vector<double>(graph.num_edges(), kHardFdWeight), exec,
        /*use_lp_bound=*/false);
    // With every edge hard the seed is a restored Bar-Yehuda–Even cover,
    // so a truncated run keeps factor 2 (the soft bound is 3).
    if (!out.optimal) out.ratio_bound = 2.0;
    return out;
  }

  bool soft_capable() const override { return true; }

  StatusOr<SolverCover> SolveSoftCover(
      const NodeWeightedGraph& graph, const std::vector<double>& penalties,
      const SolverExec& exec) const override {
    return SoftCoverBranchAndBound(graph, penalties, exec,
                                   /*use_lp_bound=*/false);
  }
};

struct Registry {
  std::mutex mu;
  /// Owned backends in registration order; in-tree ones first.
  std::vector<std::unique_ptr<SolverBackend>> backends;
};

Registry& GetRegistry() {
  static Registry* registry = [] {
    auto* r = new Registry();
    r->backends.push_back(std::make_unique<LocalRatioBackend>());
    r->backends.push_back(std::make_unique<BnbBackend>());
    r->backends.push_back(MakeIlpBnbBackend());
    r->backends.push_back(MakeLpRoundingBackend());
    return r;
  }();
  return *registry;
}

}  // namespace

StatusOr<SolverCover> SolverBackend::SolveSoftCover(
    const NodeWeightedGraph& graph, const std::vector<double>& penalties,
    const SolverExec& exec) const {
  for (double penalty : penalties) {
    if (penalty != kHardFdWeight) {
      return Status::InvalidArgument(
          std::string("solver backend '") + name() +
          "' cannot solve soft-cover instances (finite edge penalties)");
    }
  }
  // All penalties infinite: the instance IS plain vertex cover.
  return SolveCover(graph, exec);
}

StatusOr<std::vector<int>> SolverBackend::SolveRowsFused(
    const FdSet& fds, const TableView& view, const SolverExec& exec,
    double* lower_bound) const {
  (void)fds;
  (void)view;
  (void)exec;
  (void)lower_bound;
  return Status::Internal(std::string("backend ") + name() +
                          " has no fused table-level route");
}

const SolverBackend* FindSolverBackend(const std::string& name) {
  Registry& registry = GetRegistry();
  std::lock_guard<std::mutex> lock(registry.mu);
  // Later registrations win, so externally-registered overrides shadow the
  // in-tree backend of the same name.
  for (auto it = registry.backends.rbegin(); it != registry.backends.rend();
       ++it) {
    if (name == (*it)->name()) return it->get();
  }
  return nullptr;
}

std::vector<const SolverBackend*> AllSolverBackends() {
  Registry& registry = GetRegistry();
  std::lock_guard<std::mutex> lock(registry.mu);
  std::vector<const SolverBackend*> out;
  out.reserve(registry.backends.size());
  for (const auto& backend : registry.backends) out.push_back(backend.get());
  return out;
}

void RegisterSolverBackend(std::unique_ptr<SolverBackend> backend) {
  Registry& registry = GetRegistry();
  std::lock_guard<std::mutex> lock(registry.mu);
  registry.backends.push_back(std::move(backend));
}

}  // namespace fdrepair
