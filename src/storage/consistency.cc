#include "storage/consistency.h"

namespace fdrepair {

bool Satisfies(const TableView& view, const FdSet& fds) {
  // Hash-plus-witness lhs grouping (ProjectionIndex, storage/row_span.h):
  // no per-row ProjectionKey is ever materialized. Satisfies sits on the
  // verify and serving paths, where it runs once per candidate repair.
  // Single-attribute lhs (the common FD shape) takes a fast path: one SIMD
  // gather per column and an epoch-stamped DenseValueIndex sweep instead
  // of projection hashing.
  const int n = view.num_tuples();
  const int* rows = view.rows().data();
  DenseValueIndex lhs_values;
  std::vector<ValueId> lhs_staged;  // gathered lhs values, dense by view row
  ProjectionIndex lhs_index;
  std::vector<ValueId> rhs;  // entry -> the rhs value the group must share
  for (const Fd& fd : fds.fds()) {
    if (fd.IsTrivial()) continue;
    const ValueId* rhs_column = view.table().ColumnData(fd.rhs);
    // One row-by-row sweep with an early exit at the first violation,
    // instantiated once per way of finding a row's lhs group. rhs values
    // are read straight from their column — staging them would cost a
    // full pass before the first violation check.
    auto sweep = [&](auto group_of) {
      rhs.clear();
      for (int i = 0; i < n; ++i) {
        bool created = false;
        const int g = group_of(i, &created);
        const ValueId r = rhs_column[rows[i]];
        if (created) {
          rhs.push_back(r);
        } else if (rhs[g] != r) {
          return false;
        }
      }
      return true;
    };
    bool ok = true;
    if (fd.lhs.size() != 1) {
      lhs_index.Clear();
      ok = sweep([&](int i, bool* created) {
        return lhs_index.FindOrCreate(view.table(), rows[i], fd.lhs, created);
      });
    } else if (n >= kSimdStagingMinRows &&
               simd::ActiveSimdMode() == simd::SimdMode::kAvx2) {
      // Same size dispatch as the grouping core: large views stage the
      // lhs column through the SIMD gather first; small views read it
      // straight off the column.
      const ValueId* lhs_column = view.table().ColumnData(fd.lhs.First());
      lhs_staged.resize(n);
      lhs_values.Clear();
      lhs_values.Reserve(
          simd::GatherWithMax(lhs_column, rows, n, lhs_staged.data()));
      ok = sweep([&](int i, bool* created) {
        return lhs_values.FindOrCreate(lhs_staged[i], created);
      });
    } else {
      const ValueId* lhs_column = view.table().ColumnData(fd.lhs.First());
      lhs_values.Clear();
      ok = sweep([&](int i, bool* created) {
        return lhs_values.FindOrCreate(lhs_column[rows[i]], created);
      });
    }
    if (!ok) return false;
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
