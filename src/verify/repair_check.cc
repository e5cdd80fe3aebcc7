#include "verify/repair_check.h"

#include <algorithm>
#include <vector>

#include "srepair/opt_srepair.h"
#include "srepair/osr_succeeds.h"
#include "srepair/srepair_exact.h"
#include "storage/consistency.h"
#include "storage/distance.h"
#include "urepair/planner.h"
#include "urepair/update.h"
#include "urepair/urepair_exact.h"

namespace fdrepair {

const char* SubsetRepairClassToString(SubsetRepairClass repair_class) {
  switch (repair_class) {
    case SubsetRepairClass::kNotAConsistentSubset:
      return "not-a-consistent-subset";
    case SubsetRepairClass::kConsistentSubset:
      return "consistent-subset";
    case SubsetRepairClass::kSubsetRepair:
      return "subset-repair";
    case SubsetRepairClass::kOptimalSubsetRepair:
      return "optimal-subset-repair";
  }
  return "unknown";
}

const char* UpdateRepairClassToString(UpdateRepairClass repair_class) {
  switch (repair_class) {
    case UpdateRepairClass::kNotAConsistentUpdate:
      return "not-a-consistent-update";
    case UpdateRepairClass::kConsistentUpdate:
      return "consistent-update";
    case UpdateRepairClass::kUpdateRepair:
      return "update-repair";
    case UpdateRepairClass::kOptimalUpdateRepair:
      return "optimal-update-repair";
  }
  return "unknown";
}

StatusOr<SubsetCheckResult> CheckSubsetRepair(const FdSet& fds,
                                              const Table& table,
                                              const Table& subset) {
  SubsetCheckResult result;
  // Malformed candidates (not a subset at all) are API errors.
  FDR_ASSIGN_OR_RETURN(result.distance, DistSub(subset, table));
  if (!Satisfies(subset, fds)) {
    result.repair_class = SubsetRepairClass::kNotAConsistentSubset;
    result.optimality_known = false;
    return result;
  }
  // ⊆-maximality (§2.3): no deleted tuple can be restored consistently.
  // DistSub checked that every subset row equals its parent row, so the
  // candidate S ∪ {t} is read as parent rows of `table`.
  result.repair_class = SubsetRepairClass::kSubsetRepair;
  std::vector<char> kept(table.num_tuples(), 0);
  std::vector<int> candidate;
  candidate.reserve(subset.num_tuples() + 1);
  for (int row = 0; row < subset.num_tuples(); ++row) {
    FDR_ASSIGN_OR_RETURN(int parent_row, table.RowOf(subset.id(row)));
    kept[parent_row] = 1;
    candidate.push_back(parent_row);
  }
  for (int row = 0; row < table.num_tuples(); ++row) {
    if (kept[row]) continue;
    candidate.push_back(row);
    const bool restorable = Satisfies(TableView(table, candidate), fds);
    candidate.pop_back();
    if (restorable) {
      result.repair_class = SubsetRepairClass::kConsistentSubset;
      break;
    }
  }

  // Optimality tier — computed for every consistent candidate so callers
  // can bound approximation ratios even for non-maximal subsets.  A
  // non-maximal subset can never itself be optimal: restoring a tuple
  // yields a consistent subset of strictly smaller distance.
  if (OsrSucceeds(fds)) {
    FDR_ASSIGN_OR_RETURN(std::vector<int> rows,
                         OptSRepairRows(fds, TableView(table)));
    result.optimal_distance =
        DistSubOrDie(table.SubsetByRows(rows), table);
  } else {
    auto exact = OptSRepairExact(fds, table);
    if (!exact.ok()) {
      if (exact.status().code() == StatusCode::kResourceExhausted) {
        result.optimality_known = false;
        return result;
      }
      return exact.status();
    }
    result.optimal_distance = DistSubOrDie(*exact, table);
  }
  if (result.repair_class == SubsetRepairClass::kSubsetRepair &&
      result.distance <= result.optimal_distance + 1e-9) {
    result.repair_class = SubsetRepairClass::kOptimalSubsetRepair;
  }
  return result;
}

StatusOr<UpdateCheckResult> CheckUpdateRepair(const FdSet& fds,
                                              const Table& table,
                                              const Table& update,
                                              int max_changed_cells) {
  UpdateCheckResult result;
  FDR_RETURN_IF_ERROR(ValidateUpdate(update, table));
  FDR_ASSIGN_OR_RETURN(result.distance, DistUpd(update, table));
  if (!Satisfies(update, fds)) {
    result.repair_class = UpdateRepairClass::kNotAConsistentUpdate;
    result.optimality_known = false;
    return result;
  }

  // Changed cells, aligned by tuple identifier.
  struct Cell {
    int update_row;
    AttrId attr;
    ValueId original;
  };
  // The subset enumeration below indexes cells by bit position, so the
  // count must stay below the width of the mask.
  max_changed_cells = std::min(max_changed_cells, 63);
  std::vector<Cell> changed;
  for (int row = 0; row < update.num_tuples(); ++row) {
    FDR_ASSIGN_OR_RETURN(int parent_row, table.RowOf(update.id(row)));
    for (AttrId attr = 0; attr < table.schema().arity(); ++attr) {
      if (update.value(row, attr) != table.value(parent_row, attr)) {
        changed.push_back(Cell{row, attr, table.value(parent_row, attr)});
      }
    }
  }
  if (static_cast<int>(changed.size()) > max_changed_cells) {
    return Status::ResourceExhausted(
        "U-repair minimality check limited to " +
        std::to_string(max_changed_cells) + " changed cells, candidate has " +
        std::to_string(changed.size()));
  }
  // §2.3: a U-repair becomes inconsistent if *any* non-empty set of updated
  // values is restored. Enumerate all subsets.
  result.repair_class = UpdateRepairClass::kUpdateRepair;
  for (uint64_t mask = 1; mask < (uint64_t{1} << changed.size()) &&
                          result.repair_class == UpdateRepairClass::kUpdateRepair;
       ++mask) {
    Table reverted = update.Clone();
    for (size_t c = 0; c < changed.size(); ++c) {
      if ((mask >> c) & 1) {
        reverted.SetValue(changed[c].update_row, changed[c].attr,
                          changed[c].original);
      }
    }
    if (Satisfies(reverted, fds)) {
      result.repair_class = UpdateRepairClass::kConsistentUpdate;
    }
  }

  // Optimality tier: a provably optimal plan, else the exhaustive solver.
  // Computed for every consistent candidate (mirroring CheckSubsetRepair)
  // so approximation ratios stay checkable; a revertible update can never
  // itself be optimal because reverting cells strictly lowers dist_upd.
  URepairOptions planner_options;
  auto planned = ComputeURepair(fds, table, planner_options);
  if (planned.ok() && planned->optimal) {
    result.optimal_distance = planned->distance;
  } else {
    auto exact = OptURepairExact(fds.WithoutTrivial(), table);
    if (!exact.ok()) {
      if (exact.status().code() == StatusCode::kResourceExhausted) {
        result.optimality_known = false;
        return result;
      }
      return exact.status();
    }
    result.optimal_distance = DistUpdOrDie(*exact, table);
  }
  if (result.repair_class == UpdateRepairClass::kUpdateRepair &&
      result.distance <= result.optimal_distance + 1e-9) {
    result.repair_class = UpdateRepairClass::kOptimalUpdateRepair;
  }
  return result;
}

}  // namespace fdrepair
