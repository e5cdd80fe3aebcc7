#include "storage/table_delta.h"

#include <algorithm>
#include <utility>

#include "storage/table_hash.h"

namespace fdrepair {
namespace {

void SortUnique(std::vector<TupleId>* ids) {
  std::sort(ids->begin(), ids->end());
  ids->erase(std::unique(ids->begin(), ids->end()), ids->end());
}

bool IsSortedUnique(const std::vector<TupleId>& ids) {
  for (size_t i = 1; i < ids.size(); ++i) {
    if (ids[i - 1] >= ids[i]) return false;
  }
  return true;
}

bool Disjoint(const std::vector<TupleId>& a, const std::vector<TupleId>& b) {
  // Both sorted: one merge pass.
  size_t i = 0, j = 0;
  while (i < a.size() && j < b.size()) {
    if (a[i] < b[j]) {
      ++i;
    } else if (b[j] < a[i]) {
      ++j;
    } else {
      return false;
    }
  }
  return true;
}

/// Mixes one mutated row's full content: identifier, weight, and each
/// cell's value digest in schema order — the same per-cell primitive
/// TableContentHash absorbs.
Status MixRowContent(StableHasher* hasher, const Table& mutated,
                     const ValuePool::DigestView& digests, TupleId id,
                     const char* role) {
  StatusOr<int> row = mutated.RowOf(id);
  if (!row.ok()) {
    return Status::InvalidArgument(std::string(role) + " id " +
                                   std::to_string(id) +
                                   " not present in the mutated table");
  }
  hasher->MixInt64(id);
  hasher->MixDouble(mutated.weight(*row));
  for (AttrId a = 0; a < mutated.schema().arity(); ++a) {
    hasher->MixUint64(digests[mutated.value(*row, a)]);
  }
  return Status::OK();
}

}  // namespace

void TableDelta::Canonicalize() {
  SortUnique(&inserted);
  SortUnique(&updated);
  SortUnique(&deleted);
}

StatusOr<uint64_t> DeltaChainHash(const TableDelta& delta,
                                  const Table& mutated) {
  if (!IsSortedUnique(delta.inserted) || !IsSortedUnique(delta.updated) ||
      !IsSortedUnique(delta.deleted)) {
    return Status::InvalidArgument(
        "delta id lists must be sorted and duplicate-free (call "
        "TableDelta::Canonicalize)");
  }
  const ValuePool::DigestView digests = mutated.pool()->digests();
  StableHasher hasher;
  hasher.MixUint64(delta.base_hash);
  // Section markers disambiguate the three framed lists (an id moving from
  // `updated` to `inserted` must change the hash even though the raw byte
  // streams of the two rows are identical).
  hasher.MixUint64(delta.inserted.size());
  for (TupleId id : delta.inserted) {
    FDR_RETURN_IF_ERROR(
        MixRowContent(&hasher, mutated, digests, id, "inserted"));
  }
  hasher.MixUint64(delta.updated.size());
  for (TupleId id : delta.updated) {
    FDR_RETURN_IF_ERROR(
        MixRowContent(&hasher, mutated, digests, id, "updated"));
  }
  hasher.MixUint64(delta.deleted.size());
  for (TupleId id : delta.deleted) hasher.MixInt64(id);
  return hasher.digest();
}

Status ValidateDelta(const TableDelta& delta, const Table& mutated) {
  if (!Disjoint(delta.inserted, delta.updated) ||
      !Disjoint(delta.inserted, delta.deleted) ||
      !Disjoint(delta.updated, delta.deleted)) {
    return Status::InvalidArgument(
        "delta id lists must be pairwise disjoint");
  }
  for (TupleId id : delta.deleted) {
    if (mutated.RowOf(id).ok()) {
      return Status::InvalidArgument("deleted id " + std::to_string(id) +
                                     " is still present in the mutated "
                                     "table");
    }
  }
  // DeltaChainHash checks canonical form and inserted/updated presence.
  FDR_ASSIGN_OR_RETURN(uint64_t expected, DeltaChainHash(delta, mutated));
  if (expected != delta.result_hash) {
    return Status::InvalidArgument(
        "delta result_hash does not match the chain hash of the mutated "
        "table (stale or corrupted delta)");
  }
  return Status::OK();
}

DeltaBuilder::DeltaBuilder(const Table& base)
    : table_(base.Clone()), chain_hash_(TableContentHash(base)) {}

TupleId DeltaBuilder::Insert(const std::vector<std::string>& values,
                             double weight) {
  TupleId id = table_.AddTuple(values, weight);
  auto it = edits_.find(id);
  if (it != edits_.end() && it->second == Edit::kDeleted) {
    // Erase + re-insert under the same id nets out to new content.
    it->second = Edit::kUpdated;
  } else {
    edits_[id] = Edit::kInserted;
  }
  return id;
}

Status DeltaBuilder::Update(TupleId id, AttrId attr, const std::string& text) {
  FDR_ASSIGN_OR_RETURN(int row, table_.RowOf(id));
  if (attr < 0 || attr >= table_.schema().arity()) {
    return Status::InvalidArgument("attribute " + std::to_string(attr) +
                                   " out of range");
  }
  table_.SetValue(row, attr, table_.Intern(text));
  // An update of a freshly inserted id stays an insert.
  edits_.emplace(id, Edit::kUpdated);
  return Status::OK();
}

Status DeltaBuilder::Erase(TupleId id) {
  FDR_ASSIGN_OR_RETURN(int row, table_.RowOf(id));
  table_.EraseRow(row);
  auto it = edits_.find(id);
  if (it != edits_.end() && it->second == Edit::kInserted) {
    // Inserted and erased within one delta: invisible to the base state.
    edits_.erase(it);
  } else {
    edits_[id] = Edit::kDeleted;
  }
  return Status::OK();
}

TableDelta DeltaBuilder::Finish() {
  TableDelta delta;
  delta.base_hash = chain_hash_;
  for (const auto& [id, edit] : edits_) {
    switch (edit) {
      case Edit::kInserted:
        delta.inserted.push_back(id);
        break;
      case Edit::kUpdated:
        delta.updated.push_back(id);
        break;
      case Edit::kDeleted:
        delta.deleted.push_back(id);
        break;
    }
  }
  edits_.clear();
  delta.Canonicalize();
  StatusOr<uint64_t> result = DeltaChainHash(delta, table_);
  FDR_CHECK_MSG(result.ok(), result.status().ToString());
  delta.result_hash = *result;
  chain_hash_ = *result;
  return delta;
}

}  // namespace fdrepair
