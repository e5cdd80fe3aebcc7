#include "storage/table.h"

#include <algorithm>
#include <bit>
#include <iomanip>
#include <limits>
#include <sstream>

#include "common/strings.h"
#include "storage/table_hash.h"

namespace fdrepair {
namespace {

/// The id index's size for `rows` rows: a power of two >= 2 * rows (so a
/// probe always meets an empty slot), or 0 for an empty table.
size_t IndexCapacity(size_t rows) {
  return rows == 0 ? 0 : std::bit_ceil(2 * rows);
}

}  // namespace

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
  if (id == std::numeric_limits<TupleId>::max()) {
    return Status::InvalidArgument("tuple identifier " + std::to_string(id) +
                                   " is reserved");
  }
  if (!row_slots_.empty() && row_slots_[ProbeSlot(id)] >= 0) {
    return Status::InvalidArgument("duplicate tuple identifier " +
                                   std::to_string(id));
  }
  // All validation passed: no failure path leaves a partial row behind.
  ids_.push_back(id);
  weights_.push_back(weight);
  for (int a = 0; a < schema_.arity(); ++a) columns_[a].push_back(values[a]);
  if (row_slots_.size() < IndexCapacity(ids_.size())) {
    RebuildIndex();
  } else {
    row_slots_[ProbeSlot(id)] = num_tuples() - 1;
  }
  next_id_ = std::max(next_id_, id + 1);
  if (std::optional<uint64_t> hash = content_hash_.Get()) {
    content_hash_.Set(*hash +
                      ContentHashRows(*this, num_tuples() - 1, num_tuples()));
  }
  return Status::OK();
}

size_t Table::ProbeSlot(TupleId id) const {
  // Fibonacci hashing: the top log2(capacity) bits of id * 2^64/phi. It
  // spreads runs and arithmetic progressions of ids — what tables hold in
  // practice — over distinct slots, so most probes end at their first slot.
  const size_t mask = row_slots_.size() - 1;
  const int shift = 64 - std::countr_zero(row_slots_.size());
  size_t slot = (static_cast<uint64_t>(id) * 0x9e3779b97f4a7c15ULL) >> shift;
  for (;; slot = (slot + 1) & mask) {
    const int32_t row = row_slots_[slot];
    if (row < 0 || ids_[row] == id) return slot;
  }
}

void Table::RebuildIndex() {
  row_slots_.assign(IndexCapacity(ids_.size()), -1);
  for (int row = 0; row < num_tuples(); ++row) {
    row_slots_[ProbeSlot(ids_[row])] = row;
  }
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
  const int32_t row = row_slots_.empty() ? -1 : row_slots_[ProbeSlot(id)];
  if (row < 0) {
    return Status::NotFound("no tuple with identifier " + std::to_string(id));
  }
  return row;
}

const std::string& Table::ValueText(int row, AttrId attr) const {
  return pool_->Text(value(row, attr));
}

double Table::TotalWeight() const {
  double total = 0;
  for (double w : weights_) total += w;
  return total;
}

Table Table::SubsetByRows(const std::vector<int>& rows) const {
  Table out(schema_, pool_);
  // Size everything up front — the id index included, so no append grows
  // it — and append directly: the source rows already satisfy the append
  // invariants (positive weights, matching arity, pool-issued values, no
  // reserved id), leaving only the duplicate-row check.
  out.ids_.reserve(rows.size());
  out.weights_.reserve(rows.size());
  out.row_slots_.assign(IndexCapacity(rows.size()), -1);
  for (int row : rows) {
    FDR_CHECK_MSG(row >= 0 && row < num_tuples(), "row=" << row);
    int32_t& slot = out.row_slots_[out.ProbeSlot(ids_[row])];
    FDR_CHECK_MSG(slot < 0, "duplicate row " << row << " (tuple identifier "
                                             << ids_[row] << ")");
    slot = out.num_tuples();
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
  // Whole-container copies, the id index included.
  Table out(schema_, pool_);
  out.ids_ = ids_;
  out.weights_ = weights_;
  out.columns_ = columns_;
  out.row_slots_ = row_slots_;
  out.next_id_ = next_id_;
  return out;
}

void Table::SetValue(int row, AttrId attr, ValueId value) {
  FDR_CHECK_MSG(row >= 0 && row < num_tuples(), "row=" << row);
  FDR_CHECK_MSG(attr >= 0 && attr < schema_.arity(), "attr=" << attr);
  std::optional<uint64_t> hash = content_hash_.Get();
  if (hash) *hash -= ContentHashRows(*this, row, row + 1);
  columns_[attr][row] = value;
  if (hash) content_hash_.Set(*hash + ContentHashRows(*this, row, row + 1));
}

void Table::EraseRow(int row) {
  FDR_CHECK_MSG(row >= 0 && row < num_tuples(), "row=" << row);
  // The erased row's summand goes, and its successor's is re-linked to the
  // row before the gap.
  std::optional<uint64_t> hash = content_hash_.Get();
  if (hash) {
    *hash -= ContentHashRows(*this, row, std::min(row + 2, num_tuples()));
  }
  ids_.erase(ids_.begin() + row);
  weights_.erase(weights_.begin() + row);
  for (auto& column : columns_) column.erase(column.begin() + row);
  // Every surviving row after the gap moved down one position.
  RebuildIndex();
  if (hash) {
    content_hash_.Set(
        *hash + ContentHashRows(*this, row, std::min(row + 1, num_tuples())));
  }
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
