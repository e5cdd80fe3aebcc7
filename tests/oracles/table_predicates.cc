#include "oracles/table_predicates.h"

#include <set>

namespace fdrepair {

bool IsUnweighted(const Table& table) {
  for (int row = 0; row < table.num_tuples(); ++row) {
    if (table.weight(row) != table.weight(0)) return false;
  }
  return true;
}

bool IsDuplicateFree(const Table& table) {
  std::set<Tuple> seen;
  for (int row = 0; row < table.num_tuples(); ++row) {
    if (!seen.insert(table.tuple(row)).second) return false;
  }
  return true;
}

}  // namespace fdrepair
