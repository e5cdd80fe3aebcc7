// Table: the paper's data model (§2.1) — a single relation whose tuples
// carry stable identifiers and positive weights. Duplicate tuples (equal
// values, distinct identifiers) are explicitly supported, as are weighted
// tuples; the dichotomy's hard side holds even without either.

#ifndef FDREPAIR_STORAGE_TABLE_H_
#define FDREPAIR_STORAGE_TABLE_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "catalog/schema.h"
#include "common/status.h"
#include "storage/value_pool.h"

namespace fdrepair {

/// Stable tuple identifier (the paper's ids(T)); survives subsetting.
using TupleId = int64_t;

/// A tuple as a dense row of interned values, one per schema attribute.
using Tuple = std::vector<ValueId>;

/// A contiguous, read-only window over one attribute's ValueIds, indexed by
/// dense row position. Borrowed from a Table: any Table mutation may grow
/// or rewrite the underlying column, so a ColumnView must not be held
/// across mutators — re-fetch it instead (Table::Column is O(1)).
class ColumnView {
 public:
  ColumnView() = default;
  ColumnView(const ValueId* data, int size) : data_(data), size_(size) {}

  const ValueId* data() const { return data_; }
  int size() const { return size_; }
  ValueId operator[](int row) const { return data_[row]; }

 private:
  const ValueId* data_ = nullptr;
  int size_ = 0;
};

/// The column-major half of the hybrid layout: one ValueId vector per
/// schema attribute, each indexed by dense row position.
using ColumnSet = std::vector<std::vector<ValueId>>;

/// A copyable memo of one 64-bit value derived from its owner's content
/// (Table keeps its content hash in one). A reader that computes the value
/// publishes it with release and later readers observe it with acquire;
/// racing first readers compute and store the same value, so whichever
/// store lands is correct. Copies carry the value; a moved-from memo is
/// cleared along with its owner's content.
class HashMemo {
 public:
  HashMemo() = default;
  HashMemo(const HashMemo& other) { CopyFrom(other); }
  HashMemo(HashMemo&& other) noexcept {
    CopyFrom(other);
    other.Clear();
  }
  HashMemo& operator=(const HashMemo& other) {
    CopyFrom(other);
    return *this;
  }
  HashMemo& operator=(HashMemo&& other) noexcept {
    CopyFrom(other);
    other.Clear();
    return *this;
  }

  /// The published value, if any since the last Clear().
  std::optional<uint64_t> Get() const {
    if (!valid_.load(std::memory_order_acquire)) return std::nullopt;
    return value_.load(std::memory_order_relaxed);
  }
  /// Publishes `value`. Const: filling the memo does not change content.
  void Set(uint64_t value) const {
    value_.store(value, std::memory_order_relaxed);
    valid_.store(true, std::memory_order_release);
  }
  /// Forgets the value. Called by the owner's mutators, which never run
  /// concurrently with its readers, so no ordering is needed.
  void Clear() { valid_.store(false, std::memory_order_relaxed); }

 private:
  void CopyFrom(const HashMemo& other) {
    if (std::optional<uint64_t> value = other.Get()) {
      Set(*value);
    } else {
      Clear();
    }
  }

  mutable std::atomic<uint64_t> value_{0};
  mutable std::atomic<bool> valid_{false};
};

/// A weighted, identified relation instance over one Schema.
///
/// Tuples are stored in a hybrid layout: row-major (`Tuple` rows, the
/// witness-comparison and whole-tuple interface every consumer already
/// uses) plus a column-major mirror (one contiguous ValueId vector per
/// attribute) that turns single-attribute scans — the grouping hot path —
/// into contiguous sweeps and feeds the SIMD gather kernels
/// (common/simd.h). Both representations are updated together inside every
/// mutator, after all argument validation, so no caller can ever observe a
/// column that disagrees with its row (tests/table_test.cc audits this per
/// mutator). The ValuePool is shared via shared_ptr so repairs (subsets,
/// updates) of the same table can intern new values — in particular fresh
/// constants — without copying the dictionary.
///
/// Thread safety (audited for the parallel repair engine): every const
/// member function is a pure read of immutable-after-append state, so any
/// number of threads may read one Table concurrently — this is what lets
/// OptSRepair's blocks share the parent table without copies. The one
/// exception is the content-hash memo, which is atomic (see HashMemo).
/// Mutators (AddTuple*, SetValue, EraseRow, Intern, FreshValue) are NOT
/// synchronized and must not run concurrently with reads of the same
/// Table. The shared ValuePool
/// *is* internally synchronized (see value_pool.h), so derived tables may
/// intern on a pool that other threads are reading through.
class Table {
 public:
  /// An empty table over `schema` with a private value pool.
  explicit Table(Schema schema);
  /// An empty table sharing an existing pool (for derived tables).
  Table(Schema schema, std::shared_ptr<ValuePool> pool);

  const Schema& schema() const { return schema_; }
  const std::shared_ptr<ValuePool>& pool() const { return pool_; }

  int num_tuples() const { return static_cast<int>(tuples_.size()); }
  bool empty() const { return tuples_.empty(); }

  /// Appends a tuple with an auto-assigned identifier (max id + 1) and
  /// weight 1. Returns its identifier.
  TupleId AddTuple(const std::vector<std::string>& values);
  /// Appends a weighted tuple; weight must be positive.
  TupleId AddTuple(const std::vector<std::string>& values, double weight);
  /// Appends with an explicit identifier; fails if it already exists, if the
  /// arity mismatches, or if weight <= 0.
  Status AddTupleWithId(TupleId id, const std::vector<std::string>& values,
                        double weight);
  /// Low-level append of pre-interned values.
  Status AddInternedTupleWithId(TupleId id, Tuple values, double weight);

  /// Row access by dense position (0..num_tuples-1).
  const Tuple& tuple(int row) const { return tuples_[row]; }
  TupleId id(int row) const { return ids_[row]; }
  double weight(int row) const { return weights_[row]; }
  ValueId value(int row, AttrId attr) const { return tuples_[row][attr]; }

  /// Column-major access: attribute `attr`'s values for all rows, as one
  /// contiguous array indexed by dense row position. Invariant:
  /// Column(a)[r] == value(r, a) for every valid (r, a); see the class
  /// comment for how mutators maintain it. The view/pointer is invalidated
  /// by any mutation of this table.
  ColumnView Column(AttrId attr) const {
    return ColumnView(columns_[attr].data(), num_tuples());
  }
  const ValueId* ColumnData(AttrId attr) const {
    return columns_[attr].data();
  }

  /// Audit helper (tests, debug checks): true iff the column store mirrors
  /// the row store exactly. O(rows × arity).
  bool ColumnStoreConsistent() const;

  /// The row position of identifier `id`, or kNotFound.
  StatusOr<int> RowOf(TupleId id) const;

  /// Value text of a cell (through the pool).
  const std::string& ValueText(int row, AttrId attr) const;

  /// The memo TableContentHash (storage/table_hash.h) fills on first use.
  /// AddInternedTupleWithId, SetValue and EraseRow clear it; every other
  /// content mutator goes through one of those three, and a pool never
  /// changes the text behind an id, so a published value is never stale.
  const HashMemo& content_hash_memo() const { return content_hash_; }

  /// Sum of all tuple weights (w_T(T)).
  double TotalWeight() const;

  /// §2.1 predicates: all weights equal / all value-rows distinct.
  bool IsUnweighted() const;
  bool IsDuplicateFree() const;

  /// The subset of this table keeping exactly the rows in `rows`
  /// (dense positions); identifiers and weights are preserved (§2.3).
  Table SubsetByRows(const std::vector<int>& rows) const;

  /// A deep copy sharing the value pool; starting point for updates.
  Table Clone() const;

  /// Overwrites one cell; the basis of update repairs. `attr` must be valid.
  void SetValue(int row, AttrId attr, ValueId value);

  /// Removes the row at dense position `row`; later rows shift down one
  /// position (relative order of the survivors is preserved — the delta
  /// path's clean-block soundness depends on this). O(num_tuples) for the
  /// shift and the id-index fixup. The identifier is NOT recycled:
  /// re-adding after an erase never aliases an old id.
  void EraseRow(int row);
  /// EraseRow addressed by tuple identifier; kNotFound if absent.
  Status EraseTuple(TupleId id);

  /// Interns through the shared pool.
  ValueId Intern(const std::string& text) { return pool_->Intern(text); }
  ValueId FreshValue() { return pool_->FreshValue(); }
  ValueId FreshValueNamed(const std::string& name) {
    return pool_->FreshValueNamed(name);
  }

  /// Pretty-prints in the style of Figure 1: id | values... | weight.
  std::string ToString() const;

 private:
  Schema schema_;
  std::shared_ptr<ValuePool> pool_;
  std::vector<TupleId> ids_;
  std::vector<double> weights_;
  std::vector<Tuple> tuples_;
  /// Column-major mirror of tuples_: columns_[a][r] == tuples_[r][a].
  ColumnSet columns_;
  std::unordered_map<TupleId, int> id_index_;
  TupleId next_id_ = 1;
  HashMemo content_hash_;
};

}  // namespace fdrepair

#endif  // FDREPAIR_STORAGE_TABLE_H_
