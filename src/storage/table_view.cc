#include "storage/table_view.h"

#include <numeric>
#include <unordered_map>

namespace fdrepair {

TableView::TableView(const Table& table) : table_(&table) {
  rows_.resize(table.num_tuples());
  std::iota(rows_.begin(), rows_.end(), 0);
}

TableView::TableView(const Table& table, std::vector<int> rows)
    : table_(&table), rows_(std::move(rows)) {
  // Debug-only: this constructor runs once per block per recursion level on
  // the OptSRepair hot path, so release builds skip the O(rows) validation.
#ifndef NDEBUG
  for (int row : rows_) {
    FDR_DCHECK_MSG(row >= 0 && row < table.num_tuples(), "row=" << row);
  }
#endif
}

double TableView::TotalWeight() const {
  double total = 0;
  for (int i = 0; i < num_tuples(); ++i) total += weight(i);
  return total;
}

ProjectionKey ProjectTuple(const Tuple& tuple, AttrSet attrs) {
  ProjectionKey key;
  key.values.reserve(attrs.size());
  ForEachAttr(attrs, [&](AttrId attr) { key.values.push_back(tuple[attr]); });
  return key;
}

ProjectionKey ProjectRow(const Table& table, int row, AttrSet attrs) {
  ProjectionKey key;
  key.values.reserve(attrs.size());
  ForEachAttr(attrs, [&](AttrId attr) {
    key.values.push_back(table.value(row, attr));
  });
  return key;
}

GroupedRows TableView::GroupRows(AttrSet attrs) const {
  GroupedRows out;
  std::unordered_map<ProjectionKey, int, ProjectionKeyHash> group_of;
  for (int i = 0; i < num_tuples(); ++i) {
    ProjectionKey key = ProjectRow(*table_, rows_[i], attrs);
    auto [it, inserted] =
        group_of.emplace(std::move(key), static_cast<int>(out.rows.size()));
    if (inserted) {
      // Copy from the stable map node: one copy per distinct group, not
      // one per row.
      out.keys.push_back(it->first);
      out.rows.emplace_back();
    }
    out.rows[it->second].push_back(rows_[i]);
  }
  return out;
}

std::vector<TableView> TableView::GroupBy(AttrSet attrs) const {
  GroupedRows groups = GroupRows(attrs);
  std::vector<TableView> out;
  out.reserve(groups.rows.size());
  for (auto& group : groups.rows) out.emplace_back(*table_, std::move(group));
  return out;
}

Table TableView::ToTable() const { return table_->SubsetByRows(rows_); }

}  // namespace fdrepair
