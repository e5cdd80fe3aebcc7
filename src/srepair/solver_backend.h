// SolverBackend: the pluggable execution API for the APX-complete side of
// the Theorem 3.4 dichotomy.
//
// Proposition 3.3 reduces optimal S-repairing to minimum-weight vertex
// cover on the conflict graph (strictly, in both directions), so a hard-
// side solver is exactly a weighted vertex-cover solver. This header turns
// that observation into an interface: a backend takes a weighted conflict
// graph plus an execution context (deadline, node budget) and returns a
// cover with provenance — a proved lower bound on the optimum, whether
// optimality was proved, and the a-priori approximation guarantee. The
// planner (planner.h) selects backends through the registry below instead
// of a hard-coded strategy branch, mirroring how the RS-repair systems
// route hard instances through exact-ILP and LP-rounding solvers.
//
// In-tree backends (no external solver dependency):
//
//   "local-ratio"  Bar-Yehuda–Even 2-approximation. The only backend with
//                  a fused table-level route (no Θ(n²) conflict-graph
//                  materialization); reports the local-ratio burn as its
//                  lower bound, so the achieved ratio is usually ≪ 2.
//   "bnb"          The soft-cover keep/delete branch and bound
//                  (srepair/soft_cover.h) with every edge hard: a local-
//                  ratio seed, restored to maximality, and the residual
//                  burn bound at every search node. Exact when it
//                  completes; on deadline or node-budget expiry it returns
//                  the incumbent (factor 2) with the root burn as its
//                  lower bound.
//   "ilp"          ILP-style branch and bound over the edge-covering
//                  constraints: Nemhauser–Trotter kernelization via the
//                  exact half-integral LP (graph/vc_lp.h), degree-0/1 and
//                  neighborhood-weight reduction rules, dual-ascent LP
//                  lower bounds at every node, and a local-ratio incumbent
//                  seed. Proves optimality on larger cores than "bnb".
//   "lp-rounding"  Solves the LP exactly, keeps the x = 1 vertices, rounds
//                  the half-integral kernel up, then greedily drops
//                  redundant vertices. Factor 2 a priori; the reported LP
//                  bound gives the (much smaller) achieved ratio.
//
// All backends are stateless and safe to share across threads.

#ifndef FDREPAIR_SREPAIR_SOLVER_BACKEND_H_
#define FDREPAIR_SREPAIR_SOLVER_BACKEND_H_

#include <chrono>
#include <memory>
#include <string>
#include <vector>

#include "catalog/fdset.h"
#include "common/status.h"
#include "graph/graph.h"
#include "storage/table_view.h"

namespace fdrepair {

/// Registry names of the in-tree backends.
inline constexpr char kSolverLocalRatio[] = "local-ratio";
inline constexpr char kSolverBnb[] = "bnb";
inline constexpr char kSolverIlp[] = "ilp";
inline constexpr char kSolverLpRounding[] = "lp-rounding";

/// Execution context a backend must honor cooperatively.
struct SolverExec {
  /// Wall-clock cutoff, checked inside node expansion and LP iterations.
  /// Once passed, the backend stops and returns its incumbent (a valid
  /// cover, `optimal=false`) with the best lower bound proved so far.
  std::chrono::steady_clock::time_point deadline =
      std::chrono::steady_clock::time_point::max();
  /// Branch-node budget for the search backends; < 0 means unlimited.
  long node_budget = -1;

  bool has_deadline() const {
    return deadline != std::chrono::steady_clock::time_point::max();
  }
  bool expired() const {
    return has_deadline() && std::chrono::steady_clock::now() >= deadline;
  }
  /// The one limit check of the search backends, called with the number
  /// of branch nodes expanded so far (the current one included): true once
  /// that passes `node_budget`, or once `deadline` has passed — the clock
  /// is read only every 128th node.
  bool Exhausted(long nodes) const {
    if (node_budget >= 0 && nodes > node_budget) return true;
    return nodes % 128 == 0 && expired();
  }
};

/// A vertex cover with provenance.
struct SolverCover {
  /// Node ids forming a vertex cover of the input graph. For soft-cover
  /// instances (SolveSoftCover): the deleted nodes; edges they leave
  /// untouched are uncovered and pay their penalty.
  std::vector<int> cover;
  /// Σ weights of `cover`.
  double weight = 0;
  /// Soft-cover instances only: Σ penalties of the uncovered edges. The
  /// objective value is weight + penalty. Always 0 for plain SolveCover.
  double penalty = 0;
  /// Proved lower bound on the minimum cover weight — for soft instances,
  /// on the minimum of weight + penalty (dual packing or LP value; equals
  /// the objective when optimal).
  double lower_bound = 0;
  /// True iff `cover` is provably optimal.
  bool optimal = false;
  /// The backend's a-priori guarantee on the objective:
  /// objective <= ratio_bound · optimum.
  double ratio_bound = 2.0;
  /// Branch nodes expanded (search backends; 0 otherwise).
  long nodes = 0;
};

class SolverBackend {
 public:
  virtual ~SolverBackend() = default;

  /// Stable registry name (also the provenance string in results).
  virtual const char* name() const = 0;

  /// True when a completed (non-truncated) run proves optimality.
  virtual bool exact() const = 0;

  /// Solves minimum-weight vertex cover on `graph` under `exec`. Never
  /// fails on well-formed graphs: limit expiry degrades to the incumbent.
  virtual StatusOr<SolverCover> SolveCover(const NodeWeightedGraph& graph,
                                           const SolverExec& exec) const = 0;

  /// True when the backend can solve *soft*-cover instances — conflict
  /// graphs with finite per-edge penalties, produced by soft (weighted)
  /// FDs (srepair/soft_repair.h). Backends without soft support still
  /// serve all-hard instances through the default SolveSoftCover below.
  virtual bool soft_capable() const { return false; }

  /// Solves the generalized cover instance: delete nodes and/or leave
  /// soft edges uncovered, paying their penalty; hard edges (penalty =
  /// kHardFdWeight) must be covered. `penalties` aligns with
  /// graph.edges(). The default forwards all-hard instances to SolveCover
  /// and fails with kInvalidArgument when a finite penalty is present and
  /// the backend is not soft_capable().
  virtual StatusOr<SolverCover> SolveSoftCover(
      const NodeWeightedGraph& graph, const std::vector<double>& penalties,
      const SolverExec& exec) const;

  /// True when the backend can repair a table without materializing the
  /// conflict graph (the fused local-ratio route). Default: false.
  virtual bool has_fused_rows() const { return false; }

  /// Fused table-level route: kept dense row positions (sorted, already
  /// maximal) plus the proved lower bound on the optimal deletion weight.
  /// Only called when has_fused_rows(); the default aborts.
  virtual StatusOr<std::vector<int>> SolveRowsFused(
      const FdSet& fds, const TableView& view, const SolverExec& exec,
      double* lower_bound) const;
};

/// Looks a backend up by registry name; nullptr when unknown. The in-tree
/// backends are always present. Thread-safe.
const SolverBackend* FindSolverBackend(const std::string& name);

/// Every registered backend, in-tree ones first (registration order).
std::vector<const SolverBackend*> AllSolverBackends();

/// Registers an external backend under its name() (overriding an existing
/// registration of the same name). Thread-safe; the registry takes
/// ownership and keeps the backend alive for the process lifetime.
void RegisterSolverBackend(std::unique_ptr<SolverBackend> backend);

/// Factories for the in-tree ILP branch-and-bound and LP-rounding
/// backends (solver_ilp.cc); exposed so tests can instantiate them
/// directly with custom contexts.
std::unique_ptr<SolverBackend> MakeIlpBnbBackend();
std::unique_ptr<SolverBackend> MakeLpRoundingBackend();

}  // namespace fdrepair

#endif  // FDREPAIR_SREPAIR_SOLVER_BACKEND_H_
