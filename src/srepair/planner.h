// SRepairPlanner: the user-facing facade for subset repairing.
//
// Like a query planner, it first classifies (Schema, ∆) — the dichotomy of
// Theorem 3.4, with the full simplification trace and, on the hard side, the
// Figure-2 class — then picks an execution route:
//   polynomial side -> OptSRepair (optimal);
//   hard side       -> a SolverBackend (srepair/solver_backend.h) working
//                      the Proposition-3.3 vertex-cover reduction.
//
// Hard-side backends are selected through the registry: explicitly via
// SRepairOptions::backend, or implicitly by the strategy — kAuto runs the
// exact branch and bound up to `exact_guard` conflicted tuples and the
// ILP-style branch and bound (budgeted, degrading to a 2-approximate
// incumbent) beyond; kExactOnly insists on a proved optimum; kApproxOnly
// always takes the fused local-ratio route. Every cover backend solves the
// conflicted core of graph/conflict_graph.h (BuildConflictedCore, the one
// violating-pair enumeration of the hard side), and its cover complements
// back to kept rows through the core. Every result carries solver
// provenance: the backend name, a proved lower bound on the optimal
// distance, and the achieved ratio certified by that bound.
//
// The soft planner (srepair/soft_repair.h) solves its cores through the
// same BuildConflictedCore, the same routing step (RouteCoreBackend) and
// the same certificate gate (CertifyRepair), declared at the end of this
// header.

#ifndef FDREPAIR_SREPAIR_PLANNER_H_
#define FDREPAIR_SREPAIR_PLANNER_H_

#include <optional>
#include <string>

#include "srepair/class_classifier.h"
#include "srepair/opt_srepair.h"
#include "srepair/osr_succeeds.h"
#include "srepair/solver_backend.h"
#include "storage/distance.h"
#include "storage/table.h"

namespace fdrepair {

/// The data-complexity verdict for computing an optimal S-repair under ∆.
struct SRepairVerdict {
  /// True: polynomial time (OptSRepair succeeds). False: APX-complete.
  bool polynomial = false;
  /// The Algorithm-2 run backing the verdict.
  OsrTrace trace;
  /// On the hard side: the Figure-2 class of the stuck residual set.
  std::optional<FdClassification> hard_class;

  std::string ToString(const Schema& schema) const;
};

/// Classifies ∆ (Theorem 3.4 + Figure 2). Pure function of the FD set.
SRepairVerdict ClassifySRepair(const FdSet& fds);

/// Execution strategy selection. Strategies are aliases over the solver
/// registry; SRepairOptions::backend overrides the hard-side choice.
enum class SRepairStrategy {
  /// OptSRepair when polynomial; on the hard side, exact branch and bound
  /// up to `exact_guard` conflicted tuples, then the budgeted ILP branch
  /// and bound (its incumbent — still within factor 2 — is returned when
  /// the budget or deadline expires before optimality is proved).
  kAuto,
  /// Insist on a proved optimum: fails with kResourceExhausted when the
  /// node budget runs out first, kDeadlineExceeded when the deadline does.
  kExactOnly,
  /// Always run the fused local-ratio 2-approximation (even on the
  /// polynomial side).
  kApproxOnly,
};

/// The one options struct of the subset layer: ComputeSRepair and
/// ComputeSoftRepair (srepair/soft_repair.h) both take it. The inherited
/// OptSRepairRowsOptions fields are the thread pool + deadline (`exec`,
/// for all routes) and the delta-splice inputs; this struct adds the route
/// knobs and the plan-capture sink.
///
/// `exec.deadline` is cooperative everywhere: OptSRepair checks it at
/// every recursion node, and the search backends check it during node
/// expansion, degrading to their incumbent (kAuto) or to kDeadlineExceeded
/// (kExactOnly) instead of overshooting.
///
/// Plan capture and delta splicing apply to the polynomial route only (see
/// opt_srepair.h). When `delta_base` is set and that route runs, the repair
/// is computed by dirty-block splicing against the captured base plan
/// (`delta_updated_ids` null means "no in-place edits"); non-spliceable
/// instances silently fall back to the cold recursion (still filling
/// `capture`). Results are bit-identical to a cold run either way. All
/// pointers are borrowed for the duration of the call and must not be
/// shared across concurrent calls. Solver backends and the approximate
/// routes ignore them — hard-side results carry no plan, so mutations
/// there always trigger a full re-solve.
///
/// ComputeSoftRepair's soft-core path (finite-weight violations present)
/// reads only `backend`, `exact_guard`, `node_budget`, `max_ratio` and
/// `exec.deadline`; its all-hard path passes the whole struct to
/// ComputeSRepair unchanged.
struct SRepairOptions : OptSRepairRowsOptions {
  SRepairStrategy strategy = SRepairStrategy::kAuto;
  /// kAuto upgrades from the plain exact branch and bound to the
  /// LP-guided ILP backend above this many conflicted tuples.
  int exact_guard = 40;
  /// Hard-side solver backend by registry name ("local-ratio", "bnb",
  /// "ilp", "lp-rounding", or an externally registered one). Empty: the
  /// strategy picks. Unknown names fail with kInvalidArgument.
  std::string backend;
  /// Branch-node budget for the search backends; < 0 lets the planner
  /// choose (unlimited, except for kAuto's ILP fallback which self-limits
  /// so oversized instances degrade to the incumbent instead of hanging).
  long node_budget = -1;
  /// When > 0: fail with kResourceExhausted unless the result's proved
  /// ratio_bound is at most this (e.g. 1.0 demands a certified optimum,
  /// 1.1 accepts a certified 10% gap). 0 disables the check.
  double max_ratio = 0;
  /// When set and the OptSRepair route runs, receives the run's top-level
  /// plan (capture->spliceable says whether it can seed a delta run).
  SRepairPlanCache* capture = nullptr;
};

/// Which algorithm actually produced a repair.
enum class SRepairAlgorithm {
  kOptSRepair,
  kExactBranchAndBound,
  kIlpBranchAndBound,
  kVertexCover2Approx,
  kLpRounding,
};

const char* SRepairAlgorithmToString(SRepairAlgorithm algorithm);

struct SRepairResult {
  Table repair;
  /// dist_sub(repair, T).
  double distance = 0;
  /// True iff `repair` is provably an *optimal* S-repair.
  bool optimal = false;
  /// A-priori upper bound on distance / optimal distance (1 when optimal).
  double ratio_bound = 1;
  SRepairAlgorithm algorithm = SRepairAlgorithm::kOptSRepair;
  /// Solver provenance: the registry name of the backend that produced the
  /// repair (empty on the polynomial OptSRepair route).
  std::string backend;
  /// Proved lower bound on the optimal distance (equals `distance` when
  /// optimal; the dual packing or LP value otherwise).
  double lower_bound = 0;
  /// distance / lower_bound — the per-instance certified ratio, usually
  /// far below ratio_bound (1 when optimal).
  double achieved_ratio = 1;
  SRepairVerdict verdict;
};

/// Plans and executes a subset repair of `table` under ∆.
StatusOr<SRepairResult> ComputeSRepair(const FdSet& fds, const Table& table,
                                       const SRepairOptions& options = {});

/// `options.backend` looked up in the solver registry: nullptr when the
/// name is empty, kInvalidArgument when it is unknown.
StatusOr<const SolverBackend*> FindNamedBackend(const SRepairOptions& options);

/// The backend for a conflicted core of `conflicted` tuples, shared by the
/// hard side of ComputeSRepair and the soft planner's cores (which route
/// as kAuto): `named` when set, else "bnb" up to `options.exact_guard`
/// conflicted tuples, else "ilp". Under kAuto with no explicit
/// `node_budget`, "ilp" self-limits to 2000 branch nodes through *exec, so
/// oversized instances degrade to the incumbent instead of searching
/// without bound.
const SolverBackend* RouteCoreBackend(const SolverBackend* named,
                                      const SRepairOptions& options,
                                      SRepairStrategy strategy, int conflicted,
                                      SolverExec* exec);

/// A result's quality certificate (see SRepairResult).
struct RepairCertificate {
  double ratio_bound = 1;
  double lower_bound = 0;
  double achieved_ratio = 1;
};

/// Certifies a result of value `objective` (a distance, or a soft cost)
/// from the solver's a-priori `ratio_bound` and proved `lower_bound`; an
/// optimal result certifies itself. The max_ratio gate shared by
/// ComputeSRepair and ComputeSoftRepair: fails with kResourceExhausted
/// when `options.max_ratio` > 0 and the stronger of the two ratios
/// exceeds it.
StatusOr<RepairCertificate> CertifyRepair(const SRepairOptions& options,
                                          double objective, bool optimal,
                                          double ratio_bound,
                                          double lower_bound);

}  // namespace fdrepair

#endif  // FDREPAIR_SREPAIR_PLANNER_H_
