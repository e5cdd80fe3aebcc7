// TableView: a zero-copy view over a subset of a Table's rows.
//
// The OptSRepair recursion repeatedly partitions the input by attribute
// values (σ_{A=a}T in Subroutines 1–3). Views keep those partitions as index
// vectors into the root table, so the recursion's total work follows the
// paper's recurrences (3)–(5) instead of copying tuples at every level.
//
// GroupRows/GroupBy/ProjectTuple below materialize one key and one index
// vector per group. No production code groups through them: every lhs
// grouping goes through GroupIndex (storage/row_span.h). They are the
// oracle the grouping core is tested against — GroupRows keys a plain hash
// map by materialized projections, and tests/row_span_test.cc and
// tests/table_test.cc pin GroupScratch and LhsGroups to it — and the
// served benchmark's layer trace calls them. They belong with the test
// oracles (tests/oracles/) once that trace no longer does.

#ifndef FDREPAIR_STORAGE_TABLE_VIEW_H_
#define FDREPAIR_STORAGE_TABLE_VIEW_H_

#include <vector>

#include "catalog/attrset.h"
#include "storage/table.h"

namespace fdrepair {

/// A key for hashing a tuple's projection onto an AttrSet.
struct ProjectionKey {
  std::vector<ValueId> values;
  bool operator==(const ProjectionKey& other) const = default;
};

struct ProjectionKeyHash {
  size_t operator()(const ProjectionKey& key) const {
    uint64_t h = 1469598103934665603ULL;
    for (ValueId v : key.values) {
      h ^= static_cast<uint64_t>(static_cast<uint32_t>(v));
      h *= 1099511628211ULL;
    }
    return static_cast<size_t>(h);
  }
};

/// Projects `tuple` onto `attrs` (in increasing attribute order).
ProjectionKey ProjectTuple(const Tuple& tuple, AttrSet attrs);
/// Projects row `row` of `table` onto `attrs`, read through its columns.
ProjectionKey ProjectRow(const Table& table, int row, AttrSet attrs);

/// A π_attrs grouping of view rows: keys[g] is group g's projection and
/// rows[g] its dense row positions, in first-appearance order.
struct GroupedRows {
  std::vector<ProjectionKey> keys;
  std::vector<std::vector<int>> rows;
};

/// A lightweight (pointer + indices) view; the Table must outlive it.
/// Views only read the table, so distinct views over one table may be used
/// from different threads concurrently (see the Table thread-safety note).
class TableView {
 public:
  /// A view of every row of `table`.
  explicit TableView(const Table& table);
  /// A view of the given dense row positions of `table`.
  TableView(const Table& table, std::vector<int> rows);

  const Table& table() const { return *table_; }
  int num_tuples() const { return static_cast<int>(rows_.size()); }
  bool empty() const { return rows_.empty(); }

  /// The underlying dense row position of the i-th view row.
  int row(int i) const { return rows_[i]; }
  const std::vector<int>& rows() const { return rows_; }

  /// Gathers the i-th view row into a new Tuple (see Table::tuple).
  Tuple tuple(int i) const { return table_->tuple(rows_[i]); }
  TupleId id(int i) const { return table_->id(rows_[i]); }
  double weight(int i) const { return table_->weight(rows_[i]); }
  ValueId value(int i, AttrId attr) const {
    return table_->value(rows_[i], attr);
  }

  /// Sum of view-row weights.
  double TotalWeight() const;

  /// Groups the view rows by their projection onto `attrs` (π_attrs),
  /// in first-appearance order, keeping each group's projection key.
  /// This ordering is load-bearing: the parallel engine's bit-identical
  /// guarantee reduces block results in exactly this order.
  GroupedRows GroupRows(AttrSet attrs) const;

  /// GroupRows, with each group wrapped as a view (keys dropped).
  /// Groups come back in first-appearance order; each group is non-empty.
  std::vector<TableView> GroupBy(AttrSet attrs) const;

  /// Materializes the view as a Table (preserving ids and weights).
  Table ToTable() const;

 private:
  const Table* table_;
  std::vector<int> rows_;
};

}  // namespace fdrepair

#endif  // FDREPAIR_STORAGE_TABLE_VIEW_H_
