#include "urepair/planner.h"

#include <algorithm>
#include <sstream>

#include "srepair/osr_succeeds.h"
#include "urepair/covers.h"
#include "urepair/urepair_key_cycle.h"

namespace fdrepair {

const char* URepairRouteToString(URepairRoute route) {
  switch (route) {
    case URepairRoute::kNoop:
      return "noop";
    case URepairRoute::kConsensusPlurality:
      return "consensus-plurality";
    case URepairRoute::kCommonLhsExact:
      return "common-lhs-exact";
    case URepairRoute::kKeyCycleExact:
      return "key-cycle-exact";
    case URepairRoute::kExactSearch:
      return "exact-search";
    case URepairRoute::kCombinedApprox:
      return "combined-approx";
  }
  return "unknown";
}

const char* URepairComplexityToString(URepairComplexity complexity) {
  switch (complexity) {
    case URepairComplexity::kPolynomial:
      return "polynomial";
    case URepairComplexity::kApxHard:
      return "APX-hard";
    case URepairComplexity::kOpen:
      return "open";
  }
  return "unknown";
}

namespace {

// {A → B, B → C} up to renaming: two unary FDs chained through distinct
// attributes — APX-hard for U-repairs (Kolahi & Lakshmanan; Example 4.2).
bool IsUnaryChainOfTwo(const FdSet& fds) {
  if (fds.size() != 2) return false;
  const Fd& f0 = fds.fds()[0];
  const Fd& f1 = fds.fds()[1];
  if (f0.lhs.size() != 1 || f1.lhs.size() != 1) return false;
  AttrId a0 = f0.lhs.First();
  AttrId a1 = f1.lhs.First();
  // One FD's rhs feeds the other's lhs, and the three attributes differ.
  if (f0.rhs == a1 && f1.rhs != a0 && f1.rhs != a1 && a0 != a1) return true;
  if (f1.rhs == a0 && f0.rhs != a1 && f0.rhs != a0 && a0 != a1) return true;
  return false;
}

// ∆A↔B→C up to renaming: {A → B, B → A, B → C} — APX-hard for U-repairs
// (Theorem 4.10) although polynomial for S-repairs.
bool IsKeyCyclePlusOut(const FdSet& fds) {
  if (fds.size() != 3) return false;
  for (const Fd& fd : fds.fds()) {
    if (fd.lhs.size() != 1) return false;
  }
  // Find the 2-cycle.
  for (int i = 0; i < 3; ++i) {
    for (int j = 0; j < 3; ++j) {
      if (i == j) continue;
      const Fd& f = fds.fds()[i];
      const Fd& g = fds.fds()[j];
      AttrId a = f.lhs.First();
      AttrId b = g.lhs.First();
      if (f.rhs != b || g.rhs != a || a == b) continue;
      const Fd& h = fds.fds()[3 - i - j];
      AttrId c = h.rhs;
      if (c == a || c == b) continue;
      if (h.lhs.First() == a || h.lhs.First() == b) return true;
    }
  }
  return false;
}

StatusOr<URepairComponentPlan> PlanComponent(const FdSet& component) {
  URepairComponentPlan plan;
  plan.fds = component;
  if (component.IsTrivial()) {
    plan.route = URepairRoute::kNoop;
    plan.complexity = URepairComplexity::kPolynomial;
    plan.reason = "no nontrivial FDs";
    return plan;
  }
  if (component.FindCommonLhsAttr().has_value()) {
    if (OsrSucceeds(component)) {
      plan.route = URepairRoute::kCommonLhsExact;
      plan.complexity = URepairComplexity::kPolynomial;
      plan.reason =
          "common lhs and OSRSucceeds: optimal S-repair converts at cost 1 "
          "per deleted tuple (Corollary 4.6)";
      return plan;
    }
    plan.route = URepairRoute::kCombinedApprox;
    plan.complexity = URepairComplexity::kApxHard;
    plan.ratio_bound = 2.0;  // mlc = 1 with a common lhs
    plan.reason =
        "common lhs but OSRSucceeds fails: APX-complete by the strict "
        "reduction of Corollary 4.6 and Theorem 3.4; 2-approximation";
    return plan;
  }
  if (DetectKeyCycle(component)) {
    plan.route = URepairRoute::kKeyCycleExact;
    plan.complexity = URepairComplexity::kPolynomial;
    plan.reason = "key cycle {A->B, B->A}: optima coincide with S-repairs "
                  "(Proposition 4.9)";
    return plan;
  }
  plan.route = URepairRoute::kCombinedApprox;
  FDR_ASSIGN_OR_RETURN(double mlc_bound, MlcApproxRatioBound(component));
  double bound = mlc_bound;
  auto kl_bound = KlApproxRatioBound(component);
  if (kl_bound.ok()) bound = std::min(bound, *kl_bound);
  plan.ratio_bound = bound;
  if (IsUnaryChainOfTwo(component)) {
    plan.complexity = URepairComplexity::kApxHard;
    plan.reason =
        "matches {A->B, B->C}: APX-hard (Kolahi & Lakshmanan, Example 4.2)";
  } else if (IsKeyCyclePlusOut(component)) {
    plan.complexity = URepairComplexity::kApxHard;
    plan.reason = "matches {A->B, B->A, B->C}: APX-complete (Theorem 4.10)";
  } else {
    plan.complexity = URepairComplexity::kOpen;
    plan.reason =
        "no exact condition of Section 4 applies; U-repair dichotomy is open "
        "(Section 5)";
  }
  return plan;
}

}  // namespace

std::string URepairPlan::ToString(const Schema& schema) const {
  std::ostringstream os;
  if (!consensus_attrs.empty()) {
    os << "consensus attributes " << schema.NamesOf(consensus_attrs)
       << ": weighted plurality (Prop B.2 / Thm 4.3)\n";
  }
  for (size_t c = 0; c < components.size(); ++c) {
    const URepairComponentPlan& component = components[c];
    os << "component " << (c + 1) << " {" << component.fds.ToString(schema)
       << "}: route=" << URepairRouteToString(component.route)
       << ", complexity=" << URepairComplexityToString(component.complexity)
       << ", ratio<=" << component.ratio_bound << " — " << component.reason
       << "\n";
  }
  os << "overall: " << URepairComplexityToString(complexity)
     << ", ratio<=" << ratio_bound;
  return os.str();
}

StatusOr<URepairPlan> PlanURepair(const FdSet& fds) {
  URepairPlan plan;
  FdSet delta = fds.WithoutTrivial();
  plan.consensus_attrs = delta.ConsensusAttrs();
  FdSet core = delta.MinusAttrs(plan.consensus_attrs).WithoutTrivial();
  for (const FdSet& component : core.AttributeDisjointComponents()) {
    FDR_ASSIGN_OR_RETURN(URepairComponentPlan component_plan,
                         PlanComponent(component));
    plan.components.push_back(std::move(component_plan));
  }
  plan.complexity = URepairComplexity::kPolynomial;
  for (const URepairComponentPlan& component : plan.components) {
    plan.ratio_bound = std::max(plan.ratio_bound, component.ratio_bound);
    if (component.complexity == URepairComplexity::kApxHard) {
      plan.complexity = URepairComplexity::kApxHard;
    } else if (component.complexity == URepairComplexity::kOpen &&
               plan.complexity == URepairComplexity::kPolynomial) {
      plan.complexity = URepairComplexity::kOpen;
    }
  }
  return plan;
}

}  // namespace fdrepair
