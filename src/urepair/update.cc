#include "urepair/update.h"

namespace fdrepair {

Status ValidateUpdate(const Table& update, const Table& table) {
  if (!(update.schema() == table.schema())) {
    return Status::InvalidArgument("update schema differs from table schema");
  }
  if (update.num_tuples() != table.num_tuples()) {
    return Status::InvalidArgument(
        "update has " + std::to_string(update.num_tuples()) +
        " tuples, table has " + std::to_string(table.num_tuples()));
  }
  for (int row = 0; row < update.num_tuples(); ++row) {
    FDR_ASSIGN_OR_RETURN(int parent_row, table.RowOf(update.id(row)));
    if (update.weight(row) != table.weight(parent_row)) {
      return Status::InvalidArgument(
          "update changed the weight of tuple id " +
          std::to_string(update.id(row)));
    }
  }
  return Status::OK();
}

StatusOr<std::vector<int>> UpdateToConsistentSubsetRows(const Table& table,
                                                        const Table& update) {
  FDR_RETURN_IF_ERROR(ValidateUpdate(update, table));
  std::vector<int> rows;
  for (int row = 0; row < update.num_tuples(); ++row) {
    FDR_ASSIGN_OR_RETURN(int parent_row, table.RowOf(update.id(row)));
    if (RowHammingDistance(update, row, table, parent_row) == 0) {
      rows.push_back(parent_row);
    }
  }
  return rows;
}

}  // namespace fdrepair
