// TableDelta: the mutation description behind incremental repair serving.
//
// Production repair traffic is not one-shot — a table takes row inserts,
// cell updates and row deletions between requests. A TableDelta names the
// pre- and post-mutation states by their TableContentHash
// (storage/table_hash.h), the one identity a table state has, plus the
// tuple ids rewritten in place:
//
//   {base_hash, updated, result_hash}
//
// The service keys a delta request like any other, by the mutated table's
// content hash, so a state reached by a delta and the same state arriving
// cold share one cache entry. base_hash finds the pre-mutation state's
// entry, whose captured plan the splice re-uses for every block the
// mutation left clean. Inserted and erased rows need no list: the splice
// detects them from each block's id sequence, and `updated` marks the
// blocks whose ids stayed but whose content changed. Both answers come
// from one flat id-indexed table (srepair/opt_srepair.h's SpliceIdTable),
// read once per row of the mutated table. Deltas compose: delta2.base_hash ==
// delta1.result_hash. A table that keeps its content-hash memo filled
// (DeltaBuilder's does) names each state in O(|delta| × arity).
// See docs/ARCHITECTURE.md, "Caching & invalidation semantics".

#ifndef FDREPAIR_STORAGE_TABLE_DELTA_H_
#define FDREPAIR_STORAGE_TABLE_DELTA_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"
#include "storage/table.h"

namespace fdrepair {

/// One mutation step between two table states.
struct TableDelta {
  /// TableContentHash of the pre-mutation table.
  uint64_t base_hash = 0;
  /// The ids present in both states whose row (a cell or the weight) was
  /// rewritten in place, sorted ascending without duplicates. Rows
  /// inserted or erased by the step are not listed.
  std::vector<TupleId> updated;
  /// TableContentHash of the mutated table (ValidateDelta enforces this).
  uint64_t result_hash = 0;
};

/// Validates a delta against the mutated table it claims to describe:
/// `updated` is sorted and duplicate-free, every listed id is present in
/// `mutated`, and result_hash == TableContentHash(mutated), which is O(1)
/// when the table's memo is filled. The hash check catches any edit to the
/// table after the delta was built, listed row or not. kInvalidArgument on
/// any failure; never aborts. The service runs this before it trusts a
/// base plan for a splice.
Status ValidateDelta(const TableDelta& delta, const Table& mutated);

/// Records mutations against a working copy of a table and emits
/// TableDeltas whose hashes compose. Convenience for tests, benches and the
/// replay example — a real client may assemble TableDeltas itself.
///
/// The working copy's content-hash memo is filled once, at construction,
/// and its mutators keep it current, so Finish() costs O(|delta|). An id
/// that an edit since the last Finish() inserted, or that is erased by the
/// time of Finish(), is not listed as updated. Not thread-safe.
class DeltaBuilder {
 public:
  /// Starts a chain at `base`; base_hash = TableContentHash(base), the key
  /// a cold request for the base table is cached under.
  explicit DeltaBuilder(const Table& base);

  /// The current (mutated) state.
  const Table& table() const { return table_; }

  /// Appends a fresh tuple (auto-assigned id, weight 1 unless given) and
  /// returns its id. kInvalidArgument on a wrong arity or a weight that is
  /// not positive, kResourceExhausted once no id is left; the table is
  /// then unchanged.
  StatusOr<TupleId> Insert(const std::vector<std::string>& values,
                           double weight = 1.0);
  /// Rewrites one cell of the tuple with identifier `id`.
  Status Update(TupleId id, AttrId attr, const std::string& text);
  /// Removes the tuple with identifier `id` (later rows shift down).
  Status Erase(TupleId id);

  /// The delta for every edit since construction or the last Finish().
  /// Resets the recording: the next Finish() chains off this one's
  /// result_hash.
  TableDelta Finish();

 private:
  Table table_;
  uint64_t base_hash_ = 0;
  /// Ids Update rewrote since the last Finish(), repeats included.
  std::vector<TupleId> updated_;
  /// The first id Insert assigned since the last Finish(). Auto ids exceed
  /// every id the table has held, so the ids from here up are all new.
  static constexpr TupleId kNoInsert = INT64_MAX;
  TupleId first_inserted_ = kNoInsert;
};

}  // namespace fdrepair

#endif  // FDREPAIR_STORAGE_TABLE_DELTA_H_
