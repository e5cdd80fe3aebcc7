#include "urepair/urepair_key_cycle.h"

#include "srepair/opt_srepair.h"
#include "storage/row_span.h"

namespace fdrepair {

std::optional<std::pair<AttrId, AttrId>> DetectKeyCycle(const FdSet& fds) {
  FdSet delta = fds.WithoutTrivial();
  if (delta.size() != 2) return std::nullopt;
  const Fd& first = delta.fds()[0];
  const Fd& second = delta.fds()[1];
  if (first.lhs.size() != 1 || second.lhs.size() != 1) return std::nullopt;
  AttrId a = first.lhs.First();
  AttrId b = second.lhs.First();
  if (first.rhs == b && second.rhs == a && a != b) {
    return std::make_pair(a, b);
  }
  return std::nullopt;
}

Table KeyCycleAlignRows(AttrId a, AttrId b, const Table& table,
                        const std::vector<int>& kept_rows) {
  std::vector<char> kept(table.num_tuples(), 0);
  for (int row : kept_rows) kept[row] = 1;

  // Kept tuples define a partial bijection between A values and B values.
  // Stored as two DenseValueIndex-backed parallel vectors instead of the
  // historical unordered_maps: first-appearance assignment reproduces
  // emplace's first-binding-wins semantics exactly, and both the build and
  // the lookup sweep the contiguous column store.
  const ValueId reserve = static_cast<ValueId>(table.pool()->size()) - 1;
  DenseValueIndex index_a;
  DenseValueIndex index_b;
  index_a.Reserve(reserve);
  index_b.Reserve(reserve);
  std::vector<ValueId> b_of_a;
  std::vector<ValueId> a_of_b;
  const ColumnView col_a = table.Column(a);
  const ColumnView col_b = table.Column(b);
  auto bind = [&](ValueId value_a, ValueId value_b) {
    bool created = false;
    index_a.FindOrCreate(value_a, &created);
    if (created) b_of_a.push_back(value_b);
    index_b.FindOrCreate(value_b, &created);
    if (created) a_of_b.push_back(value_a);
  };
  for (int row : kept_rows) bind(col_a[row], col_b[row]);

  Table update = table.Clone();
  for (int row = 0; row < table.num_tuples(); ++row) {
    if (kept[row]) continue;
    ValueId value_a = col_a[row];
    ValueId value_b = col_b[row];
    int via_a = index_a.Find(value_a);
    if (via_a >= 0) {
      // Align the deleted tuple with the kept tuple sharing its A value.
      update.SetValue(row, b, b_of_a[via_a]);
      continue;
    }
    int via_b = index_b.Find(value_b);
    if (via_b >= 0) {
      update.SetValue(row, a, a_of_b[via_b]);
      continue;
    }
    // Unreachable for a true optimum (the tuple could have been kept);
    // leaving the tuple unchanged keeps the update consistent regardless,
    // since its A and B values match no kept tuple. New (A, B) pair joins
    // the bijection to stay safe against later deleted tuples.
    bind(value_a, value_b);
  }
  return update;
}

StatusOr<Table> KeyCycleOptimalURepair(const FdSet& fds, const Table& table) {
  auto cycle = DetectKeyCycle(fds);
  if (!cycle) {
    return Status::FailedPrecondition(
        "KeyCycleOptimalURepair requires ∆ = {A -> B, B -> A}");
  }
  const auto [a, b] = *cycle;
  // {A → B, B → A} passes OSRSucceeds via lhs marriage, so this cannot fail.
  FDR_ASSIGN_OR_RETURN(
      std::vector<int> kept_rows,
      OptSRepairRows(fds.WithoutTrivial(), TableView(table)));
  return KeyCycleAlignRows(a, b, table, kept_rows);
}

}  // namespace fdrepair
