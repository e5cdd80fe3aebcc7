#include "storage/consistency.h"

namespace fdrepair {

bool Satisfies(const TableView& view, const FdSet& fds) {
  const int n = view.num_tuples();
  const int* rows = view.rows().data();
  GroupIndex lhs_index;
  std::vector<ValueId> rhs;  // group -> the rhs value the group must share
  for (const Fd& fd : fds.fds()) {
    if (fd.IsTrivial()) continue;
    // rhs values are read straight off their column: staging them would
    // cost a full pass before the first violation check.
    const ValueId* rhs_column = view.table().ColumnData(fd.rhs);
    lhs_index.Reset(view.table(), fd.lhs, n);
    rhs.clear();
    for (int i = 0; i < n; ++i) {
      bool created = false;
      const int g = lhs_index.FindOrCreate(rows[i], &created);
      const ValueId r = rhs_column[rows[i]];
      if (created) {
        rhs.push_back(r);
      } else if (rhs[g] != r) {
        return false;
      }
    }
  }
  return true;
}

bool Satisfies(const Table& table, const FdSet& fds) {
  return Satisfies(TableView(table), fds);
}

int64_t LhsGroups::ViolatingPairs(const TableView& view, int g, AttrId rhs) {
  rhs_values_.Clear();
  rhs_counts_.clear();
  for (const int* m = begin(g); m != end(g); ++m) {
    bool created = false;
    const int v = rhs_values_.FindOrCreate(view.value(*m, rhs), &created);
    if (created) rhs_counts_.push_back(0);
    ++rhs_counts_[v];
  }
  const int64_t size = group_size(g);
  int64_t pairs = size * (size - 1) / 2;
  for (int64_t c : rhs_counts_) pairs -= c * (c - 1) / 2;
  return pairs;
}

bool PairConsistent(const Tuple& t, const Tuple& s, const FdSet& fds) {
  for (const Fd& fd : fds.fds()) {
    bool lhs_agree = true;
    ForEachAttr(fd.lhs, [&](AttrId attr) {
      if (t[attr] != s[attr]) lhs_agree = false;
    });
    if (lhs_agree && t[fd.rhs] != s[fd.rhs]) return false;
  }
  return true;
}

}  // namespace fdrepair
