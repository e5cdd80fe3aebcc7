#include "engine/block_partitioner.h"

#include <algorithm>

namespace fdrepair {

void PartitionSpanByAttrs(RowSpan span, AttrSet attrs, GroupScratch* scratch,
                          std::vector<int>* group_ends) {
  scratch->GroupInPlace(span, attrs, group_ends);
}

void BaseBlockIndex::Add(const TupleId* ids, int n) {
  const int block = num_blocks();
  blocks_.emplace_back(ids, n);
  if (n > 0) block_of_first_id_.emplace(ids[0], block);
}

int BaseBlockIndex::Match(const TupleId* ids, int n) const {
  if (n == 0) return -1;
  auto it = block_of_first_id_.find(ids[0]);
  if (it == block_of_first_id_.end()) return -1;
  const std::span<const TupleId> base = blocks_[it->second];
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
