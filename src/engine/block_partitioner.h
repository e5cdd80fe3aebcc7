// BlockPartitioner: the σ-selection block structure behind Algorithm 1.
//
// Every simplification step solves independent sub-instances: σ_{A=a}T
// groups for common-lhs/consensus steps and σ_{X1=a1,X2=a2}T blocks for an
// lhs marriage. This module partitions a step's rows in place — each block
// a contiguous window of one shared row-index buffer, in first-appearance
// order, tagged (for marriages) with its bipartite endpoints — so the
// recursion can hand the blocks to a ThreadPool without re-deriving group
// membership, and it matches a mutated table's top-level blocks against a
// captured plan's (BaseBlockIndex, the delta path).
//
// Blocks only *read* the parent table (see storage/table.h for the
// concurrent-reader contract), so no copies are made. The materializing
// one-view-per-block partition these are pinned against lives with the
// test oracles (tests/oracles/block_partition.h).

#ifndef FDREPAIR_ENGINE_BLOCK_PARTITIONER_H_
#define FDREPAIR_ENGINE_BLOCK_PARTITIONER_H_

#include <span>
#include <unordered_map>
#include <vector>

#include "catalog/attrset.h"
#include "storage/row_span.h"

namespace fdrepair {

// Span-based in-place partitioning — the OptSRepair hot path. Instead of
// materializing per-block index vectors, these permute the caller's shared
// row-index buffer so each block becomes a contiguous sub-window, and only
// report block boundaries. Block order (first-appearance of the
// projection) and within-block row order are identical to
// TableView::GroupRows; `scratch` supplies the reusable grouping buffers
// (one per concurrent caller — see storage/row_span.h).

/// Permutes `span` in place into the σ_{attrs=·} groups; clears and fills
/// *group_ends with each group's end offset (group g occupies
/// [g == 0 ? 0 : ends[g-1], ends[g])).
void PartitionSpanByAttrs(RowSpan span, AttrSet attrs, GroupScratch* scratch,
                          std::vector<int>* group_ends);

/// Permutes `span` in place into the σ_{X1=a1,X2=a2} marriage blocks
/// (grouping by X1 ∪ X2) and assigns every block its dense left (π_X1) and
/// right (π_X2) matching endpoint. Clears and fills *group_ends, *left and
/// *right (one entry per block); *num_left / *num_right receive the two
/// side sizes of the bipartite matching.
void PartitionSpanForMarriage(RowSpan span, AttrSet x1, AttrSet x2,
                              GroupScratch* scratch,
                              std::vector<int>* group_ends,
                              std::vector<int>* left, std::vector<int>* right,
                              int* num_left, int* num_right);

/// Structural block matching for the delta path (incremental re-repair
/// under mutation). Built from the top-level block structure of a *base*
/// partition — each block named by its TupleId membership sequence, in
/// block row order — it answers, for a block of the *mutated* table's
/// partition, which base block (if any) has the identical id sequence.
/// Whether a matched block is actually *clean* (no member content-updated
/// in place) is the caller's check: updated ids keep their sequence
/// position, so the index cannot see them, and the caller can test
/// membership far cheaper than a per-id set probe inside the match.
///
/// Matching is by identifier sequence, not by projection key: ValueIds are
/// pool-dependent, and the mutation that dirtied a block may have moved its
/// rows to a *different* key (an lhs-cell update) — the sequence is the
/// only pool- and mutation-independent name a block has. An inserted row
/// carries a never-before-seen id, and a deletion changes the survivor
/// sequence, so both automatically fail the match.
///
/// The index borrows the registered sequences — they must outlive it (it is
/// built per delta request over spans of the cached plan's ids). Not
/// thread-safe.
class BaseBlockIndex {
 public:
  /// Registers the next base block's membership sequence [ids, ids + n)
  /// (blocks are registered in base block order; sequences across blocks
  /// are disjoint).
  void Add(const TupleId* ids, int n);

  int num_blocks() const { return static_cast<int>(blocks_.size()); }

  /// The index of the base block whose id sequence is exactly
  /// [ids, ids + n), or -1 (re-repair needed). O(n) verify after an O(1)
  /// first-id lookup — block membership is disjoint, so the first id pins
  /// the only possible candidate.
  int Match(const TupleId* ids, int n) const;

 private:
  std::vector<std::span<const TupleId>> blocks_;
  std::unordered_map<TupleId, int> block_of_first_id_;
};

}  // namespace fdrepair

#endif  // FDREPAIR_ENGINE_BLOCK_PARTITIONER_H_
