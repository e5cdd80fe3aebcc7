// ComputeSoftRepair: optimal subset repairs under soft (weighted) FDs.
//
// With per-FD weights ω ∈ (0, ∞] (catalog/fd.h), a repair keeps a subset
// J of the tuples and pays
//
//   cost(J) = Σ_{t ∉ J} w(t)  +  Σ_{soft φ} ω(φ) · #violating pairs of φ in J
//
// subject to J satisfying every *hard* (ω = ∞) FD. Hard repairs are the
// ω ≡ ∞ special case (violations priced out entirely), which is why
// ComputeSoftRepair with an all-hard set delegates to ComputeSRepair
// outright and is bit-identical to it — property-tested across FD sets,
// thread counts and solver backends.
//
// Planner structure:
//   - all-hard ∆: delegate to the subset planner (span recursion,
//     dichotomy routing, solver backends — everything);
//   - an attribute A contained in the lhs of EVERY FD (hard and soft):
//     the weighted common-lhs simplification. Two tuples violating any FD
//     agree on its lhs ⊇ {A}, so σ_{A=a} blocks are fully independent for
//     the soft objective too; recurse per block under ∆ − A (weights
//     preserved by MinusAttrs). The other Algorithm-1 simplifications
//     (consensus, lhs marriage) do NOT survive finite weights — their
//     block merges assume cross-block pairs can never cost anything,
//     which soft penalties break;
//   - otherwise: the soft conflicted core, built by the same function as
//     the hard side's (BuildConflictedCore, graph/conflict_graph.h): one
//     violating-pair enumeration, per-pair penalties (a pair violating a
//     hard FD is a hard edge; penalties of multiple soft FDs add), nodes
//     numbered by ascending view index. The resulting soft-cover instance
//     (srepair/soft_cover.h) goes to SolverBackend::SolveSoftCover through
//     the subset planner's routing step (RouteCoreBackend, read as kAuto:
//     the requested backend, else "bnb" up to `exact_guard` conflicted
//     tuples, else the LP-bounded "ilp" under the shared 2000-node
//     budget), and the cover complements back to kept rows through the
//     core. The assembled repair passes the planner's certificate gate
//     (CertifyRepair) for `max_ratio`.
//
// The recursion is sequential (options.exec's pool only reaches the
// all-hard delegation path), so results are identical for every thread
// count by construction; the deadline is honored cooperatively at every
// recursion node and inside the solvers.

#ifndef FDREPAIR_SREPAIR_SOFT_REPAIR_H_
#define FDREPAIR_SREPAIR_SOFT_REPAIR_H_

#include <string>
#include <utility>

#include "catalog/fdset.h"
#include "common/status.h"
#include "srepair/planner.h"
#include "storage/table.h"
#include "storage/table_view.h"

namespace fdrepair {

struct SoftRepairResult {
  explicit SoftRepairResult(Table repair_in) : repair(std::move(repair_in)) {}

  /// The kept subset, over the input table's schema and pool.
  Table repair;
  /// deleted_weight + violation_cost — the soft objective.
  double cost = 0;
  /// Σ weights of the deleted tuples (= dist_sub(repair, table)).
  double deleted_weight = 0;
  /// Σ ω(φ) · #violating pairs of φ inside the repair, over soft FDs.
  double violation_cost = 0;
  /// True iff `cost` is provably minimal.
  bool optimal = false;
  /// A-priori guarantee: cost <= ratio_bound · optimum (1 when optimal;
  /// 3 from the soft local-ratio template otherwise, 2 on the all-hard
  /// delegation path's approximate routes).
  double ratio_bound = 1;
  /// Human-readable route: "soft[<subset route>]" on the all-hard
  /// delegation path, "soft[peels=<p>,cores=<c>]" otherwise.
  std::string route;
  /// Registry names of the solver backends that ran, "+"-joined when
  /// different cores routed differently (empty: no core needed solving).
  std::string backend;
  /// Proved lower bound on the optimal cost (equals `cost` when optimal).
  double lower_bound = 0;
  /// cost / lower_bound, the per-instance certified ratio (1 when
  /// optimal).
  double achieved_ratio = 1;
};

/// Plans and executes a soft repair of `table` under ∆. All-hard ∆
/// passes `options` to ComputeSRepair unchanged (bit-identical results).
/// Otherwise only `backend`, `exact_guard`, `node_budget`, `max_ratio` and
/// `exec.deadline` are read (see SRepairOptions): `backend` must then be
/// soft-capable when the instance has finite-weight violations
/// ("local-ratio", "bnb", "ilp", or a soft-capable external registration;
/// empty auto-routes "bnb" up to `exact_guard` conflicted tuples per core
/// and the LP-bounded "ilp" beyond, self-limiting its node budget exactly
/// as the hard planner's kAuto when `node_budget` < 0). Fails with
/// kInvalidArgument for unknown or non-soft-capable backends (when finite
/// violations exist), kDeadlineExceeded on expiry before a result, and
/// kResourceExhausted when max_ratio rejects the certificate (min of the
/// a-priori bound and cost / proved lower bound).
StatusOr<SoftRepairResult> ComputeSoftRepair(
    const FdSet& fds, const Table& table, const SRepairOptions& options = {});

/// Σ ω(φ) · #violating pairs of φ within `view`, over the finite-weight
/// FDs of ∆ (hard FDs contribute nothing — callers wanting hard
/// satisfaction use Satisfies). O(#FDs · n) via the per-FD lhs grouping
/// (LhsGroups, storage/consistency.h): C(g, 2) − Σ_value C(c_value, 2)
/// pairs per group, never enumerated.
double SoftViolationCost(const FdSet& fds, const TableView& view);

}  // namespace fdrepair

#endif  // FDREPAIR_SREPAIR_SOFT_REPAIR_H_
