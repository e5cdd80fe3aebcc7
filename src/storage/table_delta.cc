#include "storage/table_delta.h"

#include <algorithm>
#include <limits>
#include <utility>

#include "storage/table_hash.h"

namespace fdrepair {

Status ValidateDelta(const TableDelta& delta, const Table& mutated) {
  for (size_t i = 0; i < delta.updated.size(); ++i) {
    const TupleId id = delta.updated[i];
    if (i > 0 && delta.updated[i - 1] >= id) {
      return Status::InvalidArgument(
          "delta updated ids must be sorted and duplicate-free");
    }
    if (!mutated.RowOf(id).ok()) {
      return Status::InvalidArgument("updated id " + std::to_string(id) +
                                     " not present in the mutated table");
    }
  }
  if (delta.result_hash != TableContentHash(mutated)) {
    return Status::InvalidArgument(
        "delta result_hash does not match the mutated table's content hash "
        "(stale or corrupted delta)");
  }
  return Status::OK();
}

// A copy, unlike Clone, keeps the base's memo if it is filled.
DeltaBuilder::DeltaBuilder(const Table& base)
    : table_(base), base_hash_(TableContentHash(table_)) {}

StatusOr<TupleId> DeltaBuilder::Insert(const std::vector<std::string>& values,
                                       double weight) {
  const TupleId id = table_.next_id();
  if (id == std::numeric_limits<TupleId>::max()) {
    return Status::ResourceExhausted("no tuple identifier left to assign");
  }
  FDR_RETURN_IF_ERROR(table_.AddTupleWithId(id, values, weight));
  first_inserted_ = std::min(first_inserted_, id);
  return id;
}

Status DeltaBuilder::Update(TupleId id, AttrId attr, const std::string& text) {
  FDR_ASSIGN_OR_RETURN(int row, table_.RowOf(id));
  if (attr < 0 || attr >= table_.schema().arity()) {
    return Status::InvalidArgument("attribute " + std::to_string(attr) +
                                   " out of range");
  }
  table_.SetValue(row, attr, table_.Intern(text));
  if (id < first_inserted_) updated_.push_back(id);
  return Status::OK();
}

Status DeltaBuilder::Erase(TupleId id) {
  FDR_ASSIGN_OR_RETURN(int row, table_.RowOf(id));
  table_.EraseRow(row);
  return Status::OK();
}

TableDelta DeltaBuilder::Finish() {
  std::sort(updated_.begin(), updated_.end());
  updated_.erase(std::unique(updated_.begin(), updated_.end()),
                 updated_.end());
  std::erase_if(updated_, [&](TupleId id) { return !table_.RowOf(id).ok(); });
  TableDelta delta{base_hash_, std::move(updated_), TableContentHash(table_)};
  updated_.clear();
  first_inserted_ = kNoInsert;
  base_hash_ = delta.result_hash;
  return delta;
}

}  // namespace fdrepair
