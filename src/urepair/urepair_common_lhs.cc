#include "urepair/urepair_common_lhs.h"

#include "srepair/opt_srepair.h"
#include "urepair/covers.h"
#include "urepair/fresh.h"

namespace fdrepair {

StatusOr<Table> SubsetToUpdate(const FdSet& fds, const Table& table,
                               const std::vector<int>& kept_rows) {
  if (!fds.IsConsensusFree()) {
    return Status::FailedPrecondition(
        "SubsetToUpdate requires a consensus-free FD set (Theorem 4.3 "
        "removes consensus attributes first)");
  }
  FDR_ASSIGN_OR_RETURN(AttrSet cover, MinimumLhsCover(fds));
  std::vector<char> kept(table.num_tuples(), 0);
  for (int row : kept_rows) {
    FDR_CHECK(row >= 0 && row < table.num_tuples());
    kept[row] = 1;
  }
  Table update = table.Clone();
  for (int row = 0; row < table.num_tuples(); ++row) {
    if (kept[row]) continue;
    // A fresh constant per cell: the deleted tuple can no longer agree with
    // anything on any lhs (the cover hits every lhs), so it is inert. The
    // constant's name is derived from (TupleId, attr) — see urepair/fresh.h
    // — so the same deleted cell freshens to the same symbol in every run,
    // which is what lets cell-edit recipes replay across re-plans.
    ForEachAttr(cover, [&](AttrId attr) {
      update.SetValue(row, attr, FreshCellValue(update, update.id(row), attr));
    });
  }
  return update;
}

StatusOr<Table> CommonLhsOptimalURepair(const FdSet& fds, const Table& table) {
  FdSet delta = fds.WithoutTrivial();
  if (!delta.FindCommonLhsAttr().has_value()) {
    return Status::FailedPrecondition(
        "CommonLhsOptimalURepair requires an FD set with a common lhs");
  }
  if (!delta.IsConsensusFree()) {
    return Status::FailedPrecondition(
        "CommonLhsOptimalURepair requires a consensus-free FD set");
  }
  // Optimal S-repair (fails exactly when the problem is APX-complete), then
  // the cost-preserving conversion: mlc = 1 because of the common lhs.
  FDR_ASSIGN_OR_RETURN(std::vector<int> kept_rows,
                       OptSRepairRows(delta, TableView(table)));
  return SubsetToUpdate(delta, table, kept_rows);
}

}  // namespace fdrepair
