// RowSpan + GroupScratch: the zero-allocation grouping core behind the
// OptSRepair recursion.
//
// Algorithm 1 spends essentially all of its time partitioning tuples into
// σ-blocks and recursing on them. The TableView-based recursion materialized
// a fresh std::vector<int> per block per level and heap-allocated a
// ProjectionKey per row; on deep simplification chains that is O(n · depth)
// allocations. The span core removes them:
//
//   - one row-index buffer is owned by the top-level call; RowSpan hands
//     (pointer, size) windows of it to child recursions;
//   - GroupInPlace *permutes* a span's window so each π_attrs group becomes
//     contiguous — groups in first-appearance order, rows within a group in
//     original order (a stable counting scatter, not a comparison sort) —
//     and only reports the group boundaries;
//   - group identity is resolved over interned ValueIds: a dense
//     epoch-stamped slot table for single attributes (the common-lhs /
//     consensus fast path), an exact packed 64-bit key for two attributes
//     (the 2-set marriage case), and hash-plus-witness verification beyond
//     that — never a heap-allocated projection key;
//   - every path reads the Table's contiguous per-attribute columns
//     (storage/table.h) in one fused pass per window: each row's key is
//     read off its column and deduplicated in the same step, with no
//     staging buffer in between.
//
// Distinct spans cover disjoint buffer ranges, so concurrent recursions may
// permute their own spans without synchronization (each worker additionally
// uses its own GroupScratch; the scratch itself is not thread-safe).
//
// First-appearance group order is load-bearing: the parallel engine's
// bit-identical guarantee reduces block results in exactly this order (see
// srepair/opt_srepair.h).

#ifndef FDREPAIR_STORAGE_ROW_SPAN_H_
#define FDREPAIR_STORAGE_ROW_SPAN_H_

#include <cstdint>
#include <limits>
#include <unordered_map>
#include <vector>

#include "catalog/attrset.h"
#include "storage/table.h"

namespace fdrepair {

/// A non-owning window over a contiguous range of a shared row-index
/// buffer. The Table and the buffer must outlive the span. Reads go through
/// the table (const, thread-safe); the window's indices themselves may be
/// permuted in place by GroupScratch::GroupInPlace.
class RowSpan {
 public:
  RowSpan() = default;
  RowSpan(const Table& table, int* data, int size)
      : table_(&table), data_(data), size_(size) {
    FDR_DCHECK(size >= 0);
  }

  const Table& table() const { return *table_; }
  int num_tuples() const { return size_; }
  bool empty() const { return size_ == 0; }

  /// The underlying dense row position of the i-th span row.
  int row(int i) const { return data_[i]; }
  /// Mutable access to the window (GroupScratch permutes through this).
  int* data() const { return data_; }

  TupleId id(int i) const { return table_->id(data_[i]); }
  double weight(int i) const { return table_->weight(data_[i]); }
  ValueId value(int i, AttrId attr) const {
    return table_->value(data_[i], attr);
  }

  /// The sub-window [offset, offset + count) over the same buffer.
  RowSpan Subspan(int offset, int count) const {
    FDR_DCHECK_MSG(offset >= 0 && count >= 0 && offset + count <= size_,
                   "offset=" << offset << " count=" << count
                             << " size=" << size_);
    return RowSpan(*table_, data_ + offset, count);
  }

 private:
  const Table* table_ = nullptr;
  int* data_ = nullptr;
  int size_ = 0;
};

/// FNV-1a over row `row`'s projection onto `attrs`, read through the
/// table's columns without materializing it. Matches ProjectionKeyHash on
/// the equivalent ProjectionKey.
inline uint64_t ProjectionHash(const Table& table, int row, AttrSet attrs) {
  uint64_t h = 1469598103934665603ULL;
  ForEachAttr(attrs, [&](AttrId attr) {
    h ^= static_cast<uint64_t>(static_cast<uint32_t>(table.value(row, attr)));
    h *= 1099511628211ULL;
  });
  return h;
}

/// True iff rows `a` and `b` of `table` agree on every attribute of `attrs`.
inline bool ProjectionEquals(const Table& table, int a, int b, AttrSet attrs) {
  uint64_t bits = attrs.bits();
  while (bits != 0) {
    AttrId attr = __builtin_ctzll(bits);
    if (table.value(a, attr) != table.value(b, attr)) return false;
    bits &= bits - 1;
  }
  return true;
}

/// A dense first-appearance index over row projections of one table:
/// entry i is the i-th distinct π_attrs projection encountered, witnessed
/// by the first table row that produced it. Keyed by ProjectionHash;
/// same-hash entries form a chain resolved by comparing against each
/// entry's witness row, so no projection is ever materialized, and callers
/// keep their payloads (rhs values, member lists) in plain parallel
/// vectors. One shared implementation for every hash-plus-witness grouping
/// in the tree (GroupScratch's generic paths, Satisfies, the vc-approx
/// route). Every call between two Clear()s must pass the same table and
/// attrs.
class ProjectionIndex {
 public:
  void Clear() {
    first_of_hash_.clear();  // keeps bucket capacity
    next_same_hash_.clear();
    witness_.clear();
  }

  int size() const { return static_cast<int>(witness_.size()); }

  /// The entry whose projection equals row `row`'s, or -1.
  int Find(const Table& table, int row, AttrSet attrs) const {
    auto it = first_of_hash_.find(ProjectionHash(table, row, attrs));
    if (it == first_of_hash_.end()) return -1;
    for (int e = it->second; e != -1; e = next_same_hash_[e]) {
      if (ProjectionEquals(table, row, witness_[e], attrs)) return e;
    }
    return -1;
  }

  /// Find, creating a new entry witnessed by `row` (dense, in
  /// first-appearance order) when absent; *created reports which.
  int FindOrCreate(const Table& table, int row, AttrSet attrs, bool* created) {
    const uint64_t h = ProjectionHash(table, row, attrs);
    auto it = first_of_hash_.find(h);
    if (it != first_of_hash_.end()) {
      for (int e = it->second; e != -1; e = next_same_hash_[e]) {
        if (ProjectionEquals(table, row, witness_[e], attrs)) {
          *created = false;
          return e;
        }
      }
    }
    const int e = size();
    // New same-hash entries are prepended to the chain; entry ids (and so
    // first-appearance order) never depend on the chain order.
    next_same_hash_.push_back(it != first_of_hash_.end() ? it->second : -1);
    witness_.push_back(row);
    if (it != first_of_hash_.end()) {
      it->second = e;
    } else {
      first_of_hash_.emplace(h, e);
    }
    *created = true;
    return e;
  }

 private:
  std::unordered_map<uint64_t, int> first_of_hash_;
  std::vector<int> next_same_hash_;
  /// Entry -> the table row witnessing its projection.
  std::vector<int> witness_;
};

/// An epoch-stamped dense map from ValueId to a small dense id assigned in
/// first-appearance order: the single-attribute counterpart of
/// ProjectionIndex, shared by GroupScratch's 1-attribute path, marriage
/// endpoint assignment, Satisfies' single-attribute-lhs fast path and the
/// vc-approx route. Clear() is O(1) (an epoch bump); slot storage grows to
/// the largest ValueId seen and is retained across Clear()s, so a reused
/// index allocates only on new high-water marks. Not thread-safe.
class DenseValueIndex {
 public:
  void Clear() {
    if (epoch_ == std::numeric_limits<uint32_t>::max()) {
      slots_.assign(slots_.size(), Slot{});
      epoch_ = 0;
    }
    ++epoch_;
    count_ = 0;
  }

  /// Pre-grows slot storage so FindOrCreate never resizes mid-loop.
  /// Negative maxima (e.g. an empty pool's size - 1) are no-ops.
  void Reserve(ValueId max_value) {
    if (max_value >= 0 && static_cast<size_t>(max_value) >= slots_.size()) {
      slots_.resize(static_cast<size_t>(max_value) + 1);
    }
  }

  /// The dense id of `value`, assigning the next one on first sight.
  /// Requires value >= 0; grows storage on demand (use Reserve to hoist
  /// the growth check out of hot loops).
  int FindOrCreate(ValueId value, bool* created) {
    FDR_DCHECK_MSG(value >= 0, "value id " << value);
    if (static_cast<size_t>(value) >= slots_.size()) {
      slots_.resize(static_cast<size_t>(value) + 1);
    }
    Slot& slot = slots_[value];
    *created = slot.epoch != epoch_;
    if (*created) {
      slot.epoch = epoch_;
      slot.id = count_++;
    }
    return slot.id;
  }

  /// The dense id of `value`, or -1 if it was never seen this epoch.
  int Find(ValueId value) const {
    if (value < 0 || static_cast<size_t>(value) >= slots_.size()) return -1;
    const Slot& slot = slots_[value];
    return slot.epoch == epoch_ ? slot.id : -1;
  }

  int size() const { return count_; }

 private:
  struct Slot {
    uint32_t epoch = 0;
    int id = -1;
  };
  std::vector<Slot> slots_;
  /// Starts at 1 so default-epoch (0) slots are never mistaken as current.
  uint32_t epoch_ = 1;
  int count_ = 0;
};

/// Reusable buffers for in-place span grouping plus a small arena of int
/// vectors for recursion-local data (group boundaries, kept-row buffers).
///
/// One scratch serves any number of sequential GroupInPlace calls; no state
/// is live across calls, so a recursion may reuse a single (e.g.
/// thread_local) instance at every level. NOT thread-safe: concurrent
/// recursions need one scratch each.
class GroupScratch {
 public:
  GroupScratch() = default;
  GroupScratch(const GroupScratch&) = delete;
  GroupScratch& operator=(const GroupScratch&) = delete;

  /// Permutes `span`'s window in place so that rows with equal π_attrs
  /// projections become contiguous: groups in first-appearance order, rows
  /// within a group in their original span order. Clears *group_ends and
  /// fills it with each group's end offset — group g occupies
  /// [g == 0 ? 0 : (*group_ends)[g - 1], (*group_ends)[g]).
  /// An empty span produces no groups; empty `attrs` produces one group.
  void GroupInPlace(RowSpan span, AttrSet attrs, std::vector<int>* group_ends);

  /// Given the grouping of `span` described by `group_ends`, assigns each
  /// group the dense first-appearance index of its π_attrs projection
  /// (witnessed by the group's first row) among all groups. Clears and
  /// fills *index_of_group (one entry per group); returns the number of
  /// distinct projections. This is how marriage blocks get their bipartite
  /// endpoints: distinct π_X1 (resp. π_X2) values index the two sides.
  int AssignDistinctIndices(RowSpan span, const std::vector<int>& group_ends,
                            AttrSet attrs, std::vector<int>* index_of_group);

  /// Int-vector arena: Acquire returns an empty vector that keeps whatever
  /// capacity it accumulated in earlier rounds; Release returns it to the
  /// freelist. Releasing into a different scratch than the one that acquired
  /// is harmless (the buffer simply changes homes).
  std::vector<int> AcquireIntBuffer();
  void ReleaseIntBuffer(std::vector<int> buffer);

 private:
  /// Phase 1 helpers: fill group_of_row_[0..n) with dense group ids in
  /// first-appearance order and return the group count.
  int AssignGroupsSingleAttr(RowSpan span, AttrId attr);
  int AssignGroupsPackedPair(RowSpan span, AttrId a1, AttrId a2);
  int AssignGroupsGeneric(RowSpan span, AttrSet attrs);

  /// Phase 2: stable counting scatter of span rows by group_of_row_.
  void ScatterByGroup(RowSpan span, int num_groups,
                      std::vector<int>* group_ends);

  std::vector<int> group_of_row_;
  std::vector<int> group_start_;
  std::vector<int> scatter_;
  /// Single-attribute fast path: ValueId -> dense group id (epoch-stamped,
  /// O(1) clear); also resolves marriage endpoints for 1-attribute sides.
  DenseValueIndex value_index_;
  /// Two-attribute fast path: exact packed (v1, v2) key.
  std::unordered_map<uint64_t, int> packed_group_;
  /// Generic path: hash-plus-witness projection index.
  ProjectionIndex projection_index_;
  std::vector<std::vector<int>> free_buffers_;
};

}  // namespace fdrepair

#endif  // FDREPAIR_STORAGE_ROW_SPAN_H_
