#include "urepair/urepair_common_lhs.h"

#include "srepair/opt_srepair.h"
#include "urepair/covers.h"

namespace fdrepair {

StatusOr<Table> SubsetToUpdate(const FdSet& fds, const Table& table,
                               const std::vector<int>& kept_rows) {
  if (!fds.IsConsensusFree()) {
    return Status::FailedPrecondition(
        "SubsetToUpdate requires a consensus-free FD set (Theorem 4.3 "
        "removes consensus attributes first)");
  }
  FDR_ASSIGN_OR_RETURN(AttrSet cover, MinimumLhsCover(fds));
  Table update = table.Clone();
  FDR_RETURN_IF_ERROR(FreshenDeletedRows(
      table, kept_rows, cover, [&](int row, AttrId attr, ValueId value) {
        update.SetValue(row, attr, value);
      }));
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
