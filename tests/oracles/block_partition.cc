#include "oracles/block_partition.h"

#include <unordered_map>
#include <utility>

namespace fdrepair {

BlockPartition PartitionByAttrs(const TableView& view, AttrSet attrs) {
  // One shared grouping implementation (TableView::GroupRows): its
  // first-appearance order is the order the span partitions reproduce.
  GroupedRows groups = view.GroupRows(attrs);
  BlockPartition out;
  out.blocks.reserve(groups.rows.size());
  for (size_t g = 0; g < groups.rows.size(); ++g) {
    out.blocks.push_back(RepairBlock{
        TableView(view.table(), std::move(groups.rows[g])),
        std::move(groups.keys[g]), -1, -1});
  }
  return out;
}

BlockPartition PartitionForMarriage(const TableView& view, AttrSet x1,
                                    AttrSet x2) {
  BlockPartition out = PartitionByAttrs(view, x1.Union(x2));
  std::unordered_map<ProjectionKey, int, ProjectionKeyHash> left_index;
  std::unordered_map<ProjectionKey, int, ProjectionKeyHash> right_index;
  for (RepairBlock& block : out.blocks) {
    const int witness = block.view.row(0);
    auto [it1, inserted1] =
        left_index.emplace(ProjectRow(view.table(), witness, x1),
                           static_cast<int>(left_index.size()));
    auto [it2, inserted2] =
        right_index.emplace(ProjectRow(view.table(), witness, x2),
                            static_cast<int>(right_index.size()));
    block.left = it1->second;
    block.right = it2->second;
  }
  out.num_left = static_cast<int>(left_index.size());
  out.num_right = static_cast<int>(right_index.size());
  return out;
}

}  // namespace fdrepair
