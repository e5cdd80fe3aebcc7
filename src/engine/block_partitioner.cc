#include "engine/block_partitioner.h"

#include <algorithm>
#include <unordered_map>
#include <utility>

namespace fdrepair {

BlockPartition PartitionByAttrs(const TableView& view, AttrSet attrs) {
  // One shared grouping implementation (TableView::GroupRows): the
  // first-appearance order it produces is what the bit-identical ordered
  // reduction in opt_srepair.cc relies on.
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

void PartitionSpanByAttrs(RowSpan span, AttrSet attrs, GroupScratch* scratch,
                          std::vector<int>* group_ends) {
  scratch->GroupInPlace(span, attrs, group_ends);
}

void BaseBlockIndex::Add(const std::vector<TupleId>& ids) {
  const int block = num_blocks();
  blocks_.push_back(&ids);
  if (!ids.empty()) block_of_first_id_.emplace(ids.front(), block);
}

int BaseBlockIndex::Match(const TupleId* ids, int n) const {
  if (n == 0) return -1;
  auto it = block_of_first_id_.find(ids[0]);
  if (it == block_of_first_id_.end()) return -1;
  const std::vector<TupleId>& base = *blocks_[it->second];
  if (static_cast<int>(base.size()) != n) return -1;
  if (!std::equal(base.begin(), base.end(), ids)) return -1;
  return it->second;
}

void PartitionSpanForMarriage(RowSpan span, AttrSet x1, AttrSet x2,
                              GroupScratch* scratch,
                              std::vector<int>* group_ends,
                              std::vector<int>* left, std::vector<int>* right,
                              int* num_left, int* num_right) {
  scratch->GroupInPlace(span, x1.Union(x2), group_ends);
  *num_left = scratch->AssignDistinctIndices(span, *group_ends, x1, left);
  *num_right = scratch->AssignDistinctIndices(span, *group_ends, x2, right);
}

}  // namespace fdrepair
