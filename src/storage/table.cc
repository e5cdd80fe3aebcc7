#include "storage/table.h"

#include <algorithm>
#include <iomanip>
#include <sstream>

#include "common/strings.h"

namespace fdrepair {

Table::Table(Schema schema)
    : Table(std::move(schema), std::make_shared<ValuePool>()) {}

Table::Table(Schema schema, std::shared_ptr<ValuePool> pool)
    : schema_(std::move(schema)), pool_(std::move(pool)) {
  FDR_CHECK(pool_ != nullptr);
  columns_.resize(schema_.arity());
}

TupleId Table::AddTuple(const std::vector<std::string>& values) {
  return AddTuple(values, 1.0);
}

TupleId Table::AddTuple(const std::vector<std::string>& values, double weight) {
  TupleId id = next_id_;
  Status status = AddTupleWithId(id, values, weight);
  FDR_CHECK_MSG(status.ok(), status.ToString());
  return id;
}

Status Table::AddTupleWithId(TupleId id, const std::vector<std::string>& values,
                             double weight) {
  if (static_cast<int>(values.size()) != schema_.arity()) {
    return Status::InvalidArgument(
        "tuple arity " + std::to_string(values.size()) + " != schema arity " +
        std::to_string(schema_.arity()));
  }
  Tuple tuple;
  tuple.reserve(values.size());
  for (const std::string& value : values) tuple.push_back(pool_->Intern(value));
  return AppendRow(id, tuple, weight);
}

Status Table::AddInternedTupleWithId(TupleId id, const Tuple& values,
                                     double weight) {
  if (static_cast<int>(values.size()) != schema_.arity()) {
    return Status::InvalidArgument("tuple arity mismatch");
  }
  const int64_t pool_size = pool_->size();
  for (ValueId value : values) {
    if (value < 0 || value >= pool_size) {
      return Status::InvalidArgument("value id " + std::to_string(value) +
                                     " was not issued by the table's pool");
    }
  }
  return AppendRow(id, values, weight);
}

Status Table::AppendRow(TupleId id, const Tuple& values, double weight) {
  if (!(weight > 0)) {
    return Status::InvalidArgument("tuple weight must be positive, got " +
                                   FormatDouble(weight));
  }
  if (id_index_.find(id) != id_index_.end()) {
    return Status::InvalidArgument("duplicate tuple identifier " +
                                   std::to_string(id));
  }
  // All validation passed: no failure path leaves a partial row behind.
  content_hash_.Clear();
  id_index_.emplace(id, num_tuples());
  ids_.push_back(id);
  weights_.push_back(weight);
  for (int a = 0; a < schema_.arity(); ++a) columns_[a].push_back(values[a]);
  next_id_ = std::max(next_id_, id + 1);
  return Status::OK();
}

Tuple Table::tuple(int row) const {
  Tuple out;
  out.reserve(columns_.size());
  for (const std::vector<ValueId>& column : columns_) {
    out.push_back(column[row]);
  }
  return out;
}

StatusOr<int> Table::RowOf(TupleId id) const {
  auto it = id_index_.find(id);
  if (it == id_index_.end()) {
    return Status::NotFound("no tuple with identifier " + std::to_string(id));
  }
  return it->second;
}

const std::string& Table::ValueText(int row, AttrId attr) const {
  return pool_->Text(value(row, attr));
}

double Table::TotalWeight() const {
  double total = 0;
  for (double w : weights_) total += w;
  return total;
}

bool Table::IsUnweighted() const {
  for (double w : weights_) {
    if (w != weights_.front()) return false;
  }
  return true;
}

bool Table::IsDuplicateFree() const {
  // Hash rows; compare only within buckets.
  std::unordered_map<uint64_t, std::vector<int>> buckets;
  for (int i = 0; i < num_tuples(); ++i) {
    uint64_t h = 1469598103934665603ULL;  // FNV-1a over the value ids
    for (const std::vector<ValueId>& column : columns_) {
      h ^= static_cast<uint64_t>(static_cast<uint32_t>(column[i]));
      h *= 1099511628211ULL;
    }
    for (int j : buckets[h]) {
      if (RowHammingDistance(*this, i, *this, j) == 0) return false;
    }
    buckets[h].push_back(i);
  }
  return true;
}

Table Table::SubsetByRows(const std::vector<int>& rows) const {
  Table out(schema_, pool_);
  // Reserve everything up front — in particular id_index_, whose
  // per-append rehash churn dominated large subsets — and append directly:
  // the source rows already satisfy the append invariants (positive
  // weights, matching arity, pool-issued values), leaving only the
  // duplicate-row check.
  out.ids_.reserve(rows.size());
  out.weights_.reserve(rows.size());
  out.id_index_.reserve(rows.size());
  for (int row : rows) {
    FDR_CHECK_MSG(row >= 0 && row < num_tuples(), "row=" << row);
    auto [it, inserted] = out.id_index_.emplace(ids_[row], out.num_tuples());
    FDR_CHECK_MSG(inserted, "duplicate row " << row << " (tuple identifier "
                                             << ids_[row] << ")");
    out.ids_.push_back(ids_[row]);
    out.weights_.push_back(weights_[row]);
    out.next_id_ = std::max(out.next_id_, ids_[row] + 1);
  }
  // Columns are filled per attribute (contiguous source sweeps):
  // out.columns_[a] is a gather of columns_[a].
  for (int a = 0; a < schema_.arity(); ++a) {
    const ValueId* source = columns_[a].data();
    std::vector<ValueId>& column = out.columns_[a];
    column.reserve(rows.size());
    for (int row : rows) column.push_back(source[row]);
  }
  return out;
}

Table Table::Clone() const {
  // Whole-container copies: id_index_ is copied as one map (bucket array
  // sized once), never rebuilt entry by entry.
  Table out(schema_, pool_);
  out.ids_ = ids_;
  out.weights_ = weights_;
  out.columns_ = columns_;
  out.id_index_ = id_index_;
  out.next_id_ = next_id_;
  out.content_hash_ = content_hash_;  // same content, same hash
  return out;
}

void Table::SetValue(int row, AttrId attr, ValueId value) {
  FDR_CHECK_MSG(row >= 0 && row < num_tuples(), "row=" << row);
  FDR_CHECK_MSG(attr >= 0 && attr < schema_.arity(), "attr=" << attr);
  content_hash_.Clear();
  columns_[attr][row] = value;
}

void Table::EraseRow(int row) {
  FDR_CHECK_MSG(row >= 0 && row < num_tuples(), "row=" << row);
  content_hash_.Clear();
  id_index_.erase(ids_[row]);
  ids_.erase(ids_.begin() + row);
  weights_.erase(weights_.begin() + row);
  for (auto& column : columns_) column.erase(column.begin() + row);
  // Every surviving row after the gap moved down one position.
  for (int r = row; r < num_tuples(); ++r) id_index_[ids_[r]] = r;
}

Status Table::EraseTuple(TupleId id) {
  FDR_ASSIGN_OR_RETURN(int row, RowOf(id));
  EraseRow(row);
  return Status::OK();
}

std::string Table::ToString() const {
  // Column widths: id, attributes, weight.
  std::vector<size_t> widths(schema_.arity() + 2, 2);
  widths[0] = std::max<size_t>(2, std::string("id").size());
  for (int a = 0; a < schema_.arity(); ++a) {
    widths[a + 1] = schema_.AttributeName(a).size();
  }
  std::vector<std::vector<std::string>> cells;
  for (int row = 0; row < num_tuples(); ++row) {
    std::vector<std::string> line;
    line.push_back(std::to_string(ids_[row]));
    for (int a = 0; a < schema_.arity(); ++a) line.push_back(ValueText(row, a));
    line.push_back(FormatDouble(weights_[row]));
    for (size_t c = 0; c < line.size(); ++c) {
      widths[c] = std::max(widths[c], line[c].size());
    }
    cells.push_back(std::move(line));
  }
  std::ostringstream os;
  os << std::left << std::setw(static_cast<int>(widths[0])) << "id" << "  ";
  for (int a = 0; a < schema_.arity(); ++a) {
    os << std::setw(static_cast<int>(widths[a + 1])) << schema_.AttributeName(a)
       << "  ";
  }
  os << "w\n";
  for (const auto& line : cells) {
    for (size_t c = 0; c < line.size(); ++c) {
      os << std::setw(static_cast<int>(widths[c])) << line[c]
         << (c + 1 < line.size() ? "  " : "");
    }
    os << "\n";
  }
  return os.str();
}

int RowHammingDistance(const Table& a, int row_a, const Table& b, int row_b) {
  FDR_CHECK(a.schema().arity() == b.schema().arity());
  int distance = 0;
  for (AttrId attr = 0; attr < a.schema().arity(); ++attr) {
    if (a.value(row_a, attr) != b.value(row_b, attr)) ++distance;
  }
  return distance;
}

}  // namespace fdrepair
