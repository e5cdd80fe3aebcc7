// RowSpan + GroupIndex + GroupScratch: the zero-allocation grouping core
// behind the OptSRepair recursion and every other lhs grouping.
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
//   - group identity is resolved over interned ValueIds by one GroupIndex,
//     the only place that picks a key by width: a dense epoch-stamped slot
//     table for one attribute (the common-lhs / consensus fast path), and
//     one flat open-addressing table otherwise — exact packed 64-bit keys
//     for two attributes (the 2-set marriage case), hash plus witness row
//     beyond that — never a heap-allocated projection key;
//   - every grouping reads the Table's contiguous per-attribute columns
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

/// An epoch-stamped dense map from ValueId to a small dense id assigned in
/// first-appearance order: GroupIndex's one-attribute path, also used
/// directly wherever a route counts or deduplicates the values of one
/// column. Clear() is O(1) (an epoch bump); slot storage grows to the
/// largest ValueId seen and is retained across Clear()s, so a reused index
/// allocates only on new high-water marks. Not thread-safe.
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

/// Dense group ids for the π_attrs projections of one table's rows, in
/// first-appearance order: the i-th distinct projection met gets id i. The
/// one grouping index of the tree — GroupScratch, LhsGroups and Satisfies
/// (storage/consistency.h) and the vc-approx restore pass all resolve
/// their groups through it, so the choice between the lookups below lives
/// here only:
///   - one attribute: a DenseValueIndex over the column's ValueIds;
///   - two attributes: a flat open-addressing table of exact packed
///     (v1, v2) keys;
///   - any other width: the same table keyed by a hash of the projection,
///     each slot resolved against the row that first produced it (an
///     empty `attrs` hashes every row alike: one group).
/// The flat table is laid out like Table's id index: linear probing from a
/// Fibonacci-hashed home slot over a power-of-two prefix of a retained
/// slot buffer, each slot epoch-stamped, so Reset costs O(expected_rows)
/// whatever size an earlier grouping left the buffer at. It doubles when
/// half full, so rows may also be added one at a time. Not thread-safe.
class GroupIndex {
 public:
  /// Starts a new grouping of `table`'s rows by `attrs`, sized for
  /// `expected_rows` distinct projections (more grow the table). The table
  /// must outlive every later call until the next Reset.
  void Reset(const Table& table, AttrSet attrs, int expected_rows);

  /// The group of row `row`'s projection, assigning the next id when it is
  /// new; *created says which.
  int FindOrCreate(int row, bool* created) {
    if (column_ != nullptr) return values_.FindOrCreate(column_[row], created);
    const uint64_t key = KeyOf(row);
    const Slot& slot = slots_[ProbeSlot(row, key)];
    *created = slot.epoch != epoch_;
    return *created ? Insert(row, key) : slot.group;
  }

  /// FindOrCreate for each of rows[0, n), writing row rows[i]'s group to
  /// groups[i]: the whole-window form, with the choice of key made once.
  void FindOrCreateAll(const int* rows, int n, int* groups);

  /// The group of row `row`'s projection, or -1 if no row had it yet.
  int Find(int row) const;

  int size() const {
    return column_ != nullptr ? values_.size()
                              : static_cast<int>(witness_.size());
  }

 private:
  struct Slot {
    uint64_t key = 0;
    int32_t group = -1;
    uint32_t epoch = 0;
  };

  /// The exact packed pair for two attributes; otherwise FNV-1a over the
  /// row's projection, read through the table's columns.
  uint64_t KeyOf(int row) const {
    if (second_ != nullptr) {
      return (static_cast<uint64_t>(static_cast<uint32_t>(first_[row])) << 32) |
             static_cast<uint32_t>(second_[row]);
    }
    uint64_t h = 1469598103934665603ULL;
    ForEachAttr(attrs_, [&](AttrId attr) {
      h ^= static_cast<uint64_t>(
          static_cast<uint32_t>(table_->value(row, attr)));
      h *= 1099511628211ULL;
    });
    return h;
  }

  /// True iff rows `a` and `b` agree on every attribute of attrs_.
  bool SameProjection(int a, int b) const {
    for (uint64_t bits = attrs_.bits(); bits != 0; bits &= bits - 1) {
      const AttrId attr = __builtin_ctzll(bits);
      if (table_->value(a, attr) != table_->value(b, attr)) return false;
    }
    return true;
  }

  /// The slot holding row `row`'s projection (key `key`), or the empty
  /// slot where it belongs.
  size_t ProbeSlot(int row, uint64_t key) const {
    for (size_t slot = (key * 0x9e3779b97f4a7c15ULL) >> shift_;;
         slot = (slot + 1) & mask_) {
      const Slot& s = slots_[slot];
      if (s.epoch != epoch_) return slot;
      if (s.key == key &&
          (second_ != nullptr || SameProjection(row, witness_[s.group]))) {
        return slot;
      }
    }
  }

  /// Adds row `row`'s projection (absent, key `key`) as the next group.
  int Insert(int row, uint64_t key);
  /// Empties the table at `capacity` slots (a power of two), then
  /// re-inserts every group from its witness row.
  void Rehash(size_t capacity);

  const Table* table_ = nullptr;
  AttrSet attrs_;
  /// One attribute: its column, and the index over its values.
  const ValueId* column_ = nullptr;
  DenseValueIndex values_;
  /// Two attributes: their columns, lower attribute first.
  const ValueId* first_ = nullptr;
  const ValueId* second_ = nullptr;
  /// The flat table: slots_[0, mask_ + 1) is live; an empty slot is one
  /// whose epoch is not epoch_.
  std::vector<Slot> slots_;
  size_t mask_ = 0;
  int shift_ = 64;
  uint32_t epoch_ = 0;
  /// Group -> the first row that produced its projection.
  std::vector<int> witness_;
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
  /// Stable counting scatter of span rows by group_of_row_.
  void ScatterByGroup(RowSpan span, int num_groups,
                      std::vector<int>* group_ends);

  std::vector<int> group_of_row_;
  std::vector<int> group_start_;
  std::vector<int> scatter_;
  GroupIndex index_;
  std::vector<std::vector<int>> free_buffers_;
};

}  // namespace fdrepair

#endif  // FDREPAIR_STORAGE_ROW_SPAN_H_
