// Materializing block partitions — test/bench oracle only.
//
// The σ-selection block structure behind Algorithm 1, computed as one
// TableView per block (its own row-index vector) in first-appearance
// order: σ_{A=a}T groups for common-lhs/consensus steps and
// σ_{X1=a1,X2=a2}T blocks, tagged with their bipartite endpoints, for an
// lhs marriage. The production recursion partitions in place instead
// (PartitionSpanByAttrs / PartitionSpanForMarriage in
// engine/block_partitioner.h); these materializing forms are the oracle
// the span forms and the span recursion are pinned against, and the
// denominator bench/bench_hotpath.cc times them by.

#ifndef FDREPAIR_TESTS_ORACLES_BLOCK_PARTITION_H_
#define FDREPAIR_TESTS_ORACLES_BLOCK_PARTITION_H_

#include <vector>

#include "catalog/attrset.h"
#include "storage/row_span.h"
#include "storage/table_view.h"

namespace fdrepair {

/// One independent sub-instance of a simplification step.
struct RepairBlock {
  /// The block's rows, as a view into the parent table.
  TableView view;
  /// The witness projection onto the partition attributes (the block's
  /// "a" in σ_{A=a}T, resp. "(a1, a2)" in σ_{X1=a1,X2=a2}T).
  ProjectionKey key;
  /// Marriage only: dense index of the block's π_X1 (left) and π_X2
  /// (right) value among the distinct projections; -1 otherwise.
  int left = -1;
  int right = -1;
};

struct BlockPartition {
  /// Non-empty blocks in first-appearance order of their key.
  std::vector<RepairBlock> blocks;
  /// Marriage only: number of distinct π_X1 / π_X2 values (the two sides
  /// of the matching); 0 otherwise.
  int num_left = 0;
  int num_right = 0;
};

/// Partitions `view` into the σ_{attrs=·} groups (Subroutines 1 and 2).
BlockPartition PartitionByAttrs(const TableView& view, AttrSet attrs);

/// Partitions `view` into the σ_{X1=a1,X2=a2} marriage blocks (Subroutine
/// 3), assigning each block its left/right matching endpoints.
BlockPartition PartitionForMarriage(const TableView& view, AttrSet x1,
                                    AttrSet x2);

}  // namespace fdrepair

#endif  // FDREPAIR_TESTS_ORACLES_BLOCK_PARTITION_H_
