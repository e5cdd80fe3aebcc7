#include "storage/distance.h"

namespace fdrepair {

StatusOr<double> DistSub(const Table& subset, const Table& table) {
  if (!(subset.schema() == table.schema())) {
    return Status::InvalidArgument("schema mismatch in DistSub");
  }
  if (subset.pool() != table.pool()) {
    return Status::InvalidArgument(
        "DistSub requires tables sharing a value pool");
  }
  double kept = 0;
  for (int row = 0; row < subset.num_tuples(); ++row) {
    auto parent_row = table.RowOf(subset.id(row));
    if (!parent_row.ok()) {
      return Status::InvalidArgument(
          "subset tuple id " + std::to_string(subset.id(row)) +
          " not present in the original table");
    }
    if (RowHammingDistance(subset, row, table, *parent_row) != 0) {
      return Status::InvalidArgument(
          "subset changed the values of tuple id " +
          std::to_string(subset.id(row)));
    }
    if (subset.weight(row) != table.weight(*parent_row)) {
      return Status::InvalidArgument(
          "subset changed the weight of tuple id " +
          std::to_string(subset.id(row)));
    }
    kept += table.weight(*parent_row);
  }
  return table.TotalWeight() - kept;
}

StatusOr<double> DistUpd(const Table& update, const Table& table) {
  if (!(update.schema() == table.schema())) {
    return Status::InvalidArgument("schema mismatch in DistUpd");
  }
  if (update.num_tuples() != table.num_tuples()) {
    return Status::InvalidArgument("update must keep every tuple identifier");
  }
  double distance = 0;
  for (int row = 0; row < update.num_tuples(); ++row) {
    auto parent_row = table.RowOf(update.id(row));
    if (!parent_row.ok()) {
      return Status::InvalidArgument(
          "update tuple id " + std::to_string(update.id(row)) +
          " not present in the original table");
    }
    if (update.weight(row) != table.weight(*parent_row)) {
      return Status::InvalidArgument("update changed a tuple weight");
    }
    distance += table.weight(*parent_row) *
                RowHammingDistance(update, row, table, *parent_row);
  }
  return distance;
}

double DistSubOrDie(const Table& subset, const Table& table) {
  auto result = DistSub(subset, table);
  FDR_CHECK_MSG(result.ok(), result.status().ToString());
  return *result;
}

double DistUpdOrDie(const Table& update, const Table& table) {
  auto result = DistUpd(update, table);
  FDR_CHECK_MSG(result.ok(), result.status().ToString());
  return *result;
}

}  // namespace fdrepair
