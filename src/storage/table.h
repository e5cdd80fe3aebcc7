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

/// A table's storage: one ValueId vector per schema attribute, each
/// indexed by dense row position.
using ColumnSet = std::vector<std::vector<ValueId>>;

/// A copyable memo of one 64-bit value derived from its owner's content
/// (Table keeps its content hash in one). A reader that computes the value
/// publishes it with release and later readers observe it with acquire;
/// racing first readers compute and store the same value, so whichever
/// store lands is correct. The owner's mutators replace a published value
/// with the updated one. Copies carry the value; a moved-from memo is
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
  /// The owner's mutators also call it, never concurrently with readers.
  void Set(uint64_t value) const {
    value_.store(value, std::memory_order_relaxed);
    valid_.store(true, std::memory_order_release);
  }
  /// Forgets the value. Called on a moved-from owner, which no reader
  /// shares, so no ordering is needed.
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
/// Tuples are stored column-major: one contiguous ValueId vector per
/// attribute, plus the parallel id and weight vectors, all indexed by dense
/// row position. Single-attribute scans — the grouping hot path — are
/// contiguous sweeps over one column (storage/row_span.h), and a row is
/// read cell by cell through value(). The ValuePool is shared via
/// shared_ptr so repairs (subsets, updates) of the same table can intern
/// new values — in particular fresh constants — without copying the
/// dictionary.
///
/// Tuple identifiers are indexed by one flat open-addressing array of row
/// positions: linear probing from a multiplicative (Fibonacci) hash of the
/// id, -1 for an empty slot, capacity a power of two >= 2 * num_tuples, and
/// each probe compares ids_[row] itself, so no id is stored twice. RowOf is
/// O(1) expected and allocates nothing; Clone copies the index as one
/// vector; EraseRow rebuilds it. Ids may be any int64, negative ones
/// included, except INT64_MAX: it is reserved, so an auto-assigned id
/// (max id + 1) never overflows.
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

  int num_tuples() const { return static_cast<int>(ids_.size()); }
  bool empty() const { return ids_.empty(); }
  /// The identifier AddTuple assigns next: the largest id the table has
  /// held + 1, and INT64_MAX (reserved) once the id space is used up.
  TupleId next_id() const { return next_id_; }

  /// Appends a tuple with an auto-assigned identifier (max id + 1) and
  /// weight 1. Returns its identifier. Aborts if no id is left, i.e. the
  /// max id is INT64_MAX - 1 (INT64_MAX is reserved).
  TupleId AddTuple(const std::vector<std::string>& values);
  /// Appends a weighted tuple; weight must be positive.
  TupleId AddTuple(const std::vector<std::string>& values, double weight);
  /// Appends with an explicit identifier; fails if it already exists, if it
  /// is the reserved INT64_MAX, if the arity mismatches, or if weight <= 0.
  Status AddTupleWithId(TupleId id, const std::vector<std::string>& values,
                        double weight);
  /// Low-level append of pre-interned values. Also fails, leaving the
  /// table unchanged, if a value is not an id this table's pool issued.
  Status AddInternedTupleWithId(TupleId id, const Tuple& values,
                                double weight);

  /// Row access by dense position (0..num_tuples-1).
  TupleId id(int row) const { return ids_[row]; }
  double weight(int row) const { return weights_[row]; }
  ValueId value(int row, AttrId attr) const { return columns_[attr][row]; }
  /// Gathers row `row`'s values into a new Tuple (one allocation per call),
  /// for callers off the hot paths; hot code reads value() or Column().
  Tuple tuple(int row) const;

  /// Attribute `attr`'s values for all rows, as one contiguous array
  /// indexed by dense row position: Column(a)[r] == value(r, a). The
  /// view/pointer is invalidated by any mutation of this table.
  ColumnView Column(AttrId attr) const {
    return ColumnView(columns_[attr].data(), num_tuples());
  }
  const ValueId* ColumnData(AttrId attr) const {
    return columns_[attr].data();
  }

  /// The row position of identifier `id`, or kNotFound. One probe sequence
  /// of the id index.
  StatusOr<int> RowOf(TupleId id) const;

  /// Value text of a cell (through the pool).
  const std::string& ValueText(int row, AttrId attr) const;

  /// The memo TableContentHash (storage/table_hash.h) fills on first use.
  /// Once filled, the row append behind AddTuple*, SetValue and EraseRow
  /// keep it current in O(arity) each (they read cell digests under the
  /// pool's shared lock), and an empty memo stays empty. Every other
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

  /// A deep copy sharing the value pool; starting point for updates. Copies
  /// the columns, ids, weights and id index as whole vectors. The clone's
  /// content-hash memo starts empty, so the SetValue calls that turn it
  /// into an update repair do no hash upkeep; a copy (Table(const
  /// Table&)) carries the memo instead.
  Table Clone() const;

  /// Overwrites one cell; the basis of update repairs. `attr` must be
  /// valid, and so must `value` while the content-hash memo is filled.
  void SetValue(int row, AttrId attr, ValueId value);

  /// Removes the row at dense position `row`; later rows shift down one
  /// position (relative order of the survivors is preserved — the delta
  /// path's clean-block soundness depends on this). O(num_tuples) for the
  /// shift and the id-index rebuild. The identifier is NOT recycled:
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
  /// The append behind both public AddTupleWithId variants, for values of
  /// the schema's arity: validates weight and identifier, but not the
  /// ValueIds themselves (AddTupleWithId's come from Intern).
  Status AppendRow(TupleId id, const Tuple& values, double weight);

  /// The id index's slot holding `id`, or the empty slot its probe ends
  /// at. Requires a non-empty index.
  size_t ProbeSlot(TupleId id) const;
  /// Re-sizes the index for num_tuples() rows and re-inserts every row.
  void RebuildIndex();

  Schema schema_;
  std::shared_ptr<ValuePool> pool_;
  std::vector<TupleId> ids_;
  std::vector<double> weights_;
  /// columns_[a][r] is row r's value of attribute a.
  ColumnSet columns_;
  /// The id index: row positions by ProbeSlot, -1 for an empty slot.
  std::vector<int32_t> row_slots_;
  TupleId next_id_ = 1;
  HashMemo content_hash_;
};

/// The number of attributes on which row `row_a` of `a` and row `row_b` of
/// `b` hold different values: the Hamming distance H of §2.3, and 0 iff the
/// rows are equal. The tables must have the same arity; ValueIds compare
/// meaningfully only between tables sharing a pool.
int RowHammingDistance(const Table& a, int row_a, const Table& b, int row_b);

}  // namespace fdrepair

#endif  // FDREPAIR_STORAGE_TABLE_H_
