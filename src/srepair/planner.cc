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

/// See RouteCoreBackend. Structured near-clean instances prove optimality
/// in tens of nodes thanks to the NT kernelization; dense high-gap
/// instances would burn any budget, so a small one keeps kAuto's
/// per-instance overhead in the tens of milliseconds even when the proof
/// is out of reach.
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

}  // namespace

StatusOr<const SolverBackend*> FindNamedBackend(const SRepairOptions& options) {
  if (options.backend.empty()) return nullptr;
  const SolverBackend* backend = FindSolverBackend(options.backend);
  if (backend == nullptr) {
    return Status::InvalidArgument("unknown solver backend '" +
                                   options.backend + "'");
  }
  return backend;
}

const SolverBackend* RouteCoreBackend(const SolverBackend* named,
                                      const SRepairOptions& options,
                                      SRepairStrategy strategy, int conflicted,
                                      SolverExec* exec) {
  if (named != nullptr) return named;
  // Plain branch and bound while the core fits under the guard (cheap, no
  // LP machinery), the LP-guided ILP beyond it.
  if (conflicted <= options.exact_guard) return FindSolverBackend(kSolverBnb);
  if (strategy == SRepairStrategy::kAuto && options.node_budget < 0) {
    exec->node_budget = kAutoIlpNodeBudget;
  }
  return FindSolverBackend(kSolverIlp);  // in-tree: always registered
}

StatusOr<RepairCertificate> CertifyRepair(const SRepairOptions& options,
                                          double objective, bool optimal,
                                          double ratio_bound,
                                          double lower_bound) {
  RepairCertificate out;
  out.ratio_bound = optimal ? 1.0 : ratio_bound;
  out.lower_bound = optimal ? objective : lower_bound;
  out.achieved_ratio = out.lower_bound > kEps
                           ? std::max(1.0, objective / out.lower_bound)
                           : 1.0;
  if (options.max_ratio > 0) {
    // The certified per-instance ratio can beat the a-priori bound, so
    // the quality gate accepts whichever certificate is stronger.
    const double certified = std::min(out.ratio_bound, out.achieved_ratio);
    if (certified > options.max_ratio + kEps) {
      return Status::ResourceExhausted(
          "repair certified only within ratio " + std::to_string(certified) +
          ", above the requested max_ratio " +
          std::to_string(options.max_ratio));
    }
  }
  return out;
}

StatusOr<SRepairResult> ComputeSRepair(const FdSet& fds, const Table& table,
                                       const SRepairOptions& options) {
  if (options.exec.has_deadline() &&
      std::chrono::steady_clock::now() >= options.exec.deadline) {
    return Status::DeadlineExceeded(
        "S-repair deadline expired before planning started");
  }
  SRepairVerdict verdict = ClassifySRepair(fds);

  auto finish = [&](std::vector<int> kept_rows, bool optimal, double ratio,
                    SRepairAlgorithm algorithm, std::string backend_name,
                    double lower_bound) -> StatusOr<SRepairResult> {
    Table repair = table.SubsetByRows(kept_rows);
    FDR_ASSIGN_OR_RETURN(double distance, DistSub(repair, table));
    FDR_ASSIGN_OR_RETURN(
        RepairCertificate certificate,
        CertifyRepair(options, distance, optimal, ratio, lower_bound));
    return SRepairResult{std::move(repair),
                         distance,
                         optimal,
                         certificate.ratio_bound,
                         algorithm,
                         std::move(backend_name),
                         certificate.lower_bound,
                         certificate.achieved_ratio,
                         std::move(verdict)};
  };

  SolverExec solver_exec{options.exec.deadline, options.node_budget};
  const TableView view(table);

  // An explicitly named backend overrides both the dichotomy route and the
  // strategy's solver choice (kExactOnly still demands a proved optimum).
  FDR_ASSIGN_OR_RETURN(const SolverBackend* backend, FindNamedBackend(options));
  if (backend == nullptr && options.strategy == SRepairStrategy::kApproxOnly) {
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
    return finish(std::move(*rows), true, 1.0, SRepairAlgorithm::kOptSRepair,
                  "", 0);
  }

  if (backend != nullptr && backend->has_fused_rows()) {
    // The fused table-level route never materializes the Θ(n²) conflict
    // graph; it reports its local-ratio burn as the lower bound. Flags
    // match the historical approximate route: never claimed optimal,
    // a-priori factor 2.
    double lower_bound = 0;
    FDR_ASSIGN_OR_RETURN(
        std::vector<int> kept,
        backend->SolveRowsFused(fds, view, solver_exec, &lower_bound));
    return finish(std::move(kept), false, 2.0, AlgorithmForBackend(*backend),
                  backend->name(), lower_bound);
  }

  // A cover backend on the conflicted core; isolated tuples are always
  // kept. Non-optimal covers go through the greedy restore so no
  // deletable weight is stranded (restoring after a *minimum* cover is a
  // no-op by ⊆-maximality, so the optimal path skips it).
  const ConflictedCore core = BuildConflictedCore(view, fds);
  backend = RouteCoreBackend(backend, options, options.strategy,
                             static_cast<int>(core.nodes.size()),
                             &solver_exec);
  FDR_ASSIGN_OR_RETURN(SolverCover cover,
                       backend->SolveCover(core.graph, solver_exec));
  if (!cover.optimal && options.strategy == SRepairStrategy::kExactOnly) {
    if (solver_exec.expired()) {
      return Status::DeadlineExceeded(
          "S-repair deadline expired before optimality was proved");
    }
    return Status::ResourceExhausted(
        "solver node budget exhausted before optimality was proved");
  }
  std::vector<int> kept = core.KeptRows(view, cover.cover);
  if (!cover.optimal) kept = RestoreConsistentRows(fds, view, std::move(kept));
  return finish(std::move(kept), cover.optimal, cover.ratio_bound,
                AlgorithmForBackend(*backend), backend->name(),
                cover.lower_bound);
}

}  // namespace fdrepair
