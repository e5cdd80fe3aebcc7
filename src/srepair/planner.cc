#include "srepair/planner.h"

#include <algorithm>
#include <sstream>
#include <utility>

#include "graph/conflict_graph.h"
#include "srepair/opt_srepair.h"
#include "srepair/solver_backend.h"
#include "srepair/srepair_vc_approx.h"

namespace fdrepair {

std::string SRepairVerdict::ToString(const Schema& schema) const {
  std::ostringstream os;
  os << trace.ToString(schema);
  if (hard_class) {
    os << "\nhard side: " << hard_class->ToString(schema);
  }
  return os.str();
}

SRepairVerdict ClassifySRepair(const FdSet& fds) {
  SRepairVerdict verdict;
  verdict.trace = RunOsrSucceeds(fds);
  verdict.polynomial = verdict.trace.succeeds;
  if (!verdict.polynomial) {
    auto classification = ClassifyNonSimplifiable(verdict.trace.stuck_fds);
    // Stuck residuals always classify (Lemma A.22); a failure here would be
    // an internal bug, surfaced loudly by tests but tolerated in release.
    if (classification.ok()) {
      verdict.hard_class = *classification;
    }
  }
  return verdict;
}

const char* SRepairAlgorithmToString(SRepairAlgorithm algorithm) {
  switch (algorithm) {
    case SRepairAlgorithm::kOptSRepair:
      return "OptSRepair";
    case SRepairAlgorithm::kExactBranchAndBound:
      return "exact-branch-and-bound";
    case SRepairAlgorithm::kIlpBranchAndBound:
      return "ilp-branch-and-bound";
    case SRepairAlgorithm::kVertexCover2Approx:
      return "vertex-cover-2-approx";
    case SRepairAlgorithm::kLpRounding:
      return "lp-rounding";
  }
  return "unknown";
}

namespace {

constexpr double kEps = 1e-9;

/// kAuto's ILP fallback self-limits so oversized hard instances degrade to
/// the (factor-2) incumbent instead of searching without bound. Structured
/// near-clean instances prove optimality in tens of nodes thanks to the NT
/// kernelization; dense high-gap instances would burn any budget, so a
/// small one keeps kAuto's per-instance overhead in the tens of
/// milliseconds even when the proof is out of reach.
constexpr long kAutoIlpNodeBudget = 2000;

SRepairAlgorithm AlgorithmForBackend(const SolverBackend& backend) {
  const std::string name = backend.name();
  if (name == kSolverBnb) return SRepairAlgorithm::kExactBranchAndBound;
  if (name == kSolverIlp) return SRepairAlgorithm::kIlpBranchAndBound;
  if (name == kSolverLpRounding) return SRepairAlgorithm::kLpRounding;
  if (name == kSolverLocalRatio) {
    return SRepairAlgorithm::kVertexCover2Approx;
  }
  // External backends map to the closest provenance bucket.
  return backend.exact() ? SRepairAlgorithm::kIlpBranchAndBound
                         : SRepairAlgorithm::kVertexCover2Approx;
}

/// The outcome of a hard-side solve, in table terms.
struct HardSolve {
  std::vector<int> kept_rows;  // sorted dense row positions
  double lower_bound = 0;      // proved lower bound on the deletion weight
  bool optimal = false;
  double ratio_bound = 2.0;  // the backend's a-priori guarantee
};

/// The conflict graph restricted to its conflicted core (tuples with at
/// least one conflict) — the only part a cover solver explores; isolated
/// tuples are always kept.
struct ConflictedCore {
  std::vector<int> core;  // view indices with at least one conflict
  NodeWeightedGraph graph{0};

  ConflictedCore(const FdSet& fds, const TableView& view) {
    NodeWeightedGraph full = BuildConflictGraph(view, fds);
    std::vector<int> core_index(view.num_tuples(), -1);
    for (int i = 0; i < view.num_tuples(); ++i) {
      if (full.Degree(i) > 0) {
        core_index[i] = static_cast<int>(core.size());
        core.push_back(i);
      }
    }
    graph = NodeWeightedGraph(static_cast<int>(core.size()));
    for (size_t c = 0; c < core.size(); ++c) {
      graph.set_weight(static_cast<int>(c), view.weight(core[c]));
    }
    for (const auto& [u, v] : full.edges()) {
      graph.AddEdge(core_index[u], core_index[v]);
    }
  }
};

/// Runs a cover backend on the conflicted core and complements back to
/// kept rows. Non-optimal covers go through the greedy restore so no
/// deletable weight is stranded (restoring after a *minimum* cover is a
/// no-op by ⊆-maximality, so the optimal path skips it).
StatusOr<HardSolve> SolveHardRows(const SolverBackend& backend,
                                  const FdSet& fds, const TableView& view,
                                  const ConflictedCore& cc,
                                  const SolverExec& exec) {
  FDR_ASSIGN_OR_RETURN(SolverCover cover, backend.SolveCover(cc.graph, exec));
  std::vector<char> deleted(view.num_tuples(), 0);
  for (int c : cover.cover) deleted[cc.core[c]] = 1;
  std::vector<int> kept;
  for (int i = 0; i < view.num_tuples(); ++i) {
    if (!deleted[i]) kept.push_back(view.row(i));
  }
  HardSolve out;
  out.kept_rows = cover.optimal
                      ? std::move(kept)
                      : RestoreConsistentRows(fds, view, std::move(kept));
  std::sort(out.kept_rows.begin(), out.kept_rows.end());
  out.lower_bound = cover.lower_bound;
  out.optimal = cover.optimal;
  out.ratio_bound = cover.ratio_bound;
  return out;
}

}  // namespace

StatusOr<SRepairResult> ComputeSRepair(const FdSet& fds, const Table& table,
                                       const SRepairOptions& options) {
  if (options.exec.has_deadline() &&
      std::chrono::steady_clock::now() >= options.exec.deadline) {
    return Status::DeadlineExceeded(
        "S-repair deadline expired before planning started");
  }
  SRepairVerdict verdict = ClassifySRepair(fds);

  auto finish = [&](Table repair, bool optimal, double ratio,
                    SRepairAlgorithm algorithm, std::string backend_name,
                    double lower_bound) -> StatusOr<SRepairResult> {
    FDR_ASSIGN_OR_RETURN(double distance, DistSub(repair, table));
    const double proved = optimal ? distance : lower_bound;
    const double achieved =
        proved > kEps ? std::max(1.0, distance / proved) : 1.0;
    SRepairResult result{std::move(repair),
                         distance,
                         optimal,
                         optimal ? 1.0 : ratio,
                         algorithm,
                         std::move(backend_name),
                         proved,
                         achieved,
                         std::move(verdict)};
    if (options.max_ratio > 0) {
      // The certified per-instance ratio can beat the a-priori bound, so
      // the quality gate accepts whichever certificate is stronger.
      const double certified =
          std::min(result.ratio_bound, result.achieved_ratio);
      if (certified > options.max_ratio + kEps) {
        return Status::ResourceExhausted(
            "repair certified only within ratio " + std::to_string(certified) +
            ", above the requested max_ratio " +
            std::to_string(options.max_ratio));
      }
    }
    return result;
  };

  SolverExec solver_exec;
  solver_exec.deadline = options.exec.deadline;
  solver_exec.node_budget = options.node_budget;
  const TableView view(table);

  // An explicitly named backend overrides both the dichotomy route and the
  // strategy's solver choice (kExactOnly still demands a proved optimum).
  const SolverBackend* backend = nullptr;
  if (!options.backend.empty()) {
    backend = FindSolverBackend(options.backend);
    if (backend == nullptr) {
      return Status::InvalidArgument("unknown solver backend '" +
                                     options.backend + "'");
    }
  } else if (options.strategy == SRepairStrategy::kApproxOnly) {
    backend = FindSolverBackend(kSolverLocalRatio);
  }

  if (backend == nullptr && verdict.polynomial) {
    StatusOr<std::vector<int>> rows =
        OptSRepairRows(fds, view, options, options.capture);
    if (options.delta_base != nullptr && !rows.ok() &&
        rows.status().code() == StatusCode::kFailedPrecondition) {
      // Non-spliceable base plan or instance: exactly the cases where a
      // cold run is cheap. Re-plan in full (refreshing the capture).
      OptSRepairRowsOptions cold = options;
      cold.delta_base = nullptr;
      rows = OptSRepairRows(fds, view, cold, options.capture);
    }
    FDR_RETURN_IF_ERROR(rows.status());
    return finish(table.SubsetByRows(*rows), true, 1.0,
                  SRepairAlgorithm::kOptSRepair, "", 0);
  }

  if (backend != nullptr && backend->has_fused_rows()) {
    // The fused table-level route never materializes the Θ(n²) conflict
    // graph; it reports its local-ratio burn as the lower bound. Flags
    // match the historical approximate route: never claimed optimal,
    // a-priori factor 2.
    HardSolve solve;
    FDR_ASSIGN_OR_RETURN(
        solve.kept_rows,
        backend->SolveRowsFused(fds, view, solver_exec, &solve.lower_bound));
    return finish(table.SubsetByRows(solve.kept_rows), false, 2.0,
                  AlgorithmForBackend(*backend), backend->name(),
                  solve.lower_bound);
  }

  const ConflictedCore cc(fds, view);
  if (backend == nullptr) {
    // Strategy routing on the hard side: plain branch and bound while the
    // conflicted core fits under the guard (cheap, no LP machinery), the
    // LP-guided ILP beyond it.
    if (static_cast<int>(cc.core.size()) <= options.exact_guard) {
      backend = FindSolverBackend(kSolverBnb);
    } else {
      backend = FindSolverBackend(kSolverIlp);
      if (options.strategy == SRepairStrategy::kAuto &&
          options.node_budget < 0) {
        solver_exec.node_budget = kAutoIlpNodeBudget;
      }
    }
    FDR_CHECK(backend != nullptr);
  }

  FDR_ASSIGN_OR_RETURN(
      HardSolve solve, SolveHardRows(*backend, fds, view, cc, solver_exec));
  if (!solve.optimal && options.strategy == SRepairStrategy::kExactOnly) {
    if (solver_exec.expired()) {
      return Status::DeadlineExceeded(
          "S-repair deadline expired before optimality was proved");
    }
    return Status::ResourceExhausted(
        "solver node budget exhausted before optimality was proved");
  }
  return finish(table.SubsetByRows(solve.kept_rows), solve.optimal,
                solve.ratio_bound, AlgorithmForBackend(*backend),
                backend->name(), solve.lower_bound);
}

}  // namespace fdrepair
