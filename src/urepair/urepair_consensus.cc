#include "urepair/urepair_consensus.h"

#include <vector>

#include "storage/row_span.h"

namespace fdrepair {
namespace {

// The weighted-plurality value of a column (first-seen wins ties).
//
// Grouping runs on the shared columnar core: one contiguous Column(attr)
// sweep resolving each ValueId to a dense first-appearance id through
// DenseValueIndex (O(1) epoch-stamped clear), with the per-value weights in
// a plain dense vector. Bit-identical to the historical unordered_map body
// (ReferencePluralityValue): accumulation visits rows in the same order,
// and the argmax scans candidates in the same first-appearance order with
// the same strict `>`, so ties break to the same value.
ValueId PluralityValue(const Table& table, AttrId attr, DenseValueIndex& index,
                       std::vector<double>& weight_of,
                       std::vector<ValueId>& order) {
  FDR_CHECK(table.num_tuples() > 0);
  index.Clear();
  index.Reserve(static_cast<ValueId>(table.pool()->size()) - 1);
  weight_of.clear();
  order.clear();
  const ColumnView column = table.Column(attr);
  for (int row = 0; row < column.size(); ++row) {
    bool created = false;
    const int dense = index.FindOrCreate(column[row], &created);
    if (created) {
      order.push_back(column[row]);
      weight_of.push_back(0.0);
    }
    weight_of[dense] += table.weight(row);
  }
  int best = 0;
  for (int dense = 1; dense < static_cast<int>(order.size()); ++dense) {
    if (weight_of[dense] > weight_of[best]) best = dense;
  }
  return order[best];
}

}  // namespace

std::vector<std::pair<AttrId, ValueId>> ConsensusPluralityValues(
    const Table& table, AttrSet attrs) {
  std::vector<std::pair<AttrId, ValueId>> result;
  if (table.num_tuples() == 0) return result;
  DenseValueIndex index;
  std::vector<double> weight_of;
  std::vector<ValueId> order;
  ForEachAttr(attrs, [&](AttrId attr) {
    result.emplace_back(attr,
                        PluralityValue(table, attr, index, weight_of, order));
  });
  return result;
}

double ConsensusPluralityCost(const Table& table, AttrSet attrs) {
  if (table.num_tuples() == 0) return 0;
  double cost = 0;
  DenseValueIndex index;
  std::vector<double> weight_of;
  std::vector<ValueId> order;
  ForEachAttr(attrs, [&](AttrId attr) {
    ValueId plurality = PluralityValue(table, attr, index, weight_of, order);
    const ColumnView column = table.Column(attr);
    for (int row = 0; row < column.size(); ++row) {
      if (column[row] != plurality) cost += table.weight(row);
    }
  });
  return cost;
}

}  // namespace fdrepair
