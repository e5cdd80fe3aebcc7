// URepairPlanner: the user-facing facade for update repairing (§4).
//
// The plan mirrors the paper's reduction toolkit:
//   1. peel off consensus attributes cl∆(∅) and repair them by weighted
//      plurality — a strict, cost-separable reduction (Theorem 4.3,
//      Proposition B.2);
//   2. split the remaining ∆ into attribute-disjoint components and solve
//      each independently (Theorem 4.1);
//   3. per component, in order:
//        - common lhs + OSRSucceeds      -> exact via S-repair (Cor 4.6);
//        - key cycle {A→B, B→A}          -> exact (Proposition 4.9);
//        - tiny instance                 -> exact exhaustive search;
//        - otherwise                     -> best of the 2·mlc route
//          (Theorem 4.12) and the core-implicant route (Theorem 4.13
//          style), per the §4.4 closing recommendation.
//
// Unlike S-repairs, no full dichotomy is known for U-repairs (§5); the
// verdict therefore distinguishes "known polynomial", "known APX-hard" and
// "open", with the reasons recorded per component.

#ifndef FDREPAIR_UREPAIR_PLANNER_H_
#define FDREPAIR_UREPAIR_PLANNER_H_

#include <string>
#include <vector>

#include "catalog/fdset.h"
#include "common/status.h"
#include "storage/table.h"

namespace fdrepair {

/// How a component was (or would be) solved.
enum class URepairRoute {
  /// No nontrivial FDs left: nothing to do.
  kNoop,
  /// Weighted plurality on consensus attributes (Prop B.2 / Thm 4.3).
  kConsensusPlurality,
  /// Optimal S-repair + lhs-cover freshening, mlc = 1 (Cor 4.6).
  kCommonLhsExact,
  /// {A→B, B→A} alignment (Prop 4.9).
  kKeyCycleExact,
  /// Exhaustive search (tiny instances only).
  kExactSearch,
  /// Best of Theorem 4.12 and the Theorem-4.13-style baseline.
  kCombinedApprox,
};

const char* URepairRouteToString(URepairRoute route);

/// What is provable about the component's data complexity.
enum class URepairComplexity {
  /// A known polynomial-time exact algorithm applies.
  kPolynomial,
  /// Known APX-hard (e.g. common lhs whose S-problem is hard — Cor 4.6 —
  /// or a component matching a hardness family of §4).
  kApxHard,
  /// Not covered by the paper's conditions either way (§5 open problem).
  kOpen,
};

const char* URepairComplexityToString(URepairComplexity complexity);

/// Per-component plan entry.
struct URepairComponentPlan {
  FdSet fds;
  URepairRoute route = URepairRoute::kNoop;
  URepairComplexity complexity = URepairComplexity::kOpen;
  /// The guaranteed approximation factor of `route` on this component
  /// (1 for exact routes).
  double ratio_bound = 1;
  std::string reason;
};

struct URepairPlan {
  /// Consensus attributes handled by plurality (may be empty).
  AttrSet consensus_attrs;
  std::vector<URepairComponentPlan> components;
  /// Whole-problem complexity: polynomial iff every component is.
  URepairComplexity complexity = URepairComplexity::kPolynomial;
  /// max over components of ratio_bound (costs add across components).
  double ratio_bound = 1;

  std::string ToString(const Schema& schema) const;
};

struct URepairOptions {
  /// Use the exhaustive exact solver on hard/open components whose instance
  /// fits (rows <= exact_rows_guard and cells <= exact_cells_guard).
  bool allow_exact_search = true;
  int exact_rows_guard = 6;
  int exact_cells_guard = 24;
};

/// Classifies ∆ without touching data. Pure function of the FD set.
StatusOr<URepairPlan> PlanURepair(const FdSet& fds);

struct URepairResult {
  Table update;
  /// dist_upd(update, T).
  double distance = 0;
  /// True iff the update is provably an optimal U-repair.
  bool optimal = false;
  /// Upper bound on distance / optimal distance.
  double ratio_bound = 1;
  URepairPlan plan;
};

/// Plans and executes an update repair of `table` under ∆: a cold
/// OptURepairCells run (defined with it, in urepair/opt_urepair.cc),
/// returning the update that run materialized and audited.
StatusOr<URepairResult> ComputeURepair(const FdSet& fds, const Table& table,
                                       const URepairOptions& options = {});

}  // namespace fdrepair

#endif  // FDREPAIR_UREPAIR_PLANNER_H_
