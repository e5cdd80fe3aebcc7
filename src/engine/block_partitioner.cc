#include "engine/block_partitioner.h"

namespace fdrepair {

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
