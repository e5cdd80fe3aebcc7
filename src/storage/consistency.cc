#include "storage/consistency.h"

#include <unordered_map>

#include "storage/row_span.h"

namespace fdrepair {

bool Satisfies(const TableView& view, const FdSet& fds) {
  // Hash-plus-witness lhs grouping (ProjectionIndex, storage/row_span.h):
  // no per-row ProjectionKey is ever materialized. Satisfies sits on the
  // verify and serving paths, where it runs once per candidate repair.
  // Single-attribute lhs (the common FD shape) takes a fast path: one SIMD
  // gather per column and an epoch-stamped DenseValueIndex sweep instead
  // of projection hashing.
  const int n = view.num_tuples();
  DenseValueIndex lhs_values;
  std::vector<ValueId> lhs_staged;  // gathered lhs values, dense by view row
  ProjectionIndex lhs_index;
  std::vector<ValueId> rhs;  // entry -> the rhs value the group must share
  for (const Fd& fd : fds.fds()) {
    if (fd.IsTrivial()) continue;
    if (fd.lhs.size() == 1) {
      // Same size dispatch as the grouping core: small views run a fused
      // single pass straight off the two columns (keeping the row-by-row
      // early exit at the first violation); large views stage the lhs
      // column through the SIMD gather first. rhs values are read straight
      // from their column in both shapes — staging them would cost a full
      // pass before the first violation check.
      const ValueId* lhs_column = view.table().ColumnData(fd.lhs.First());
      const ValueId* rhs_column = view.table().ColumnData(fd.rhs);
      const int* rows = view.rows().data();
      lhs_values.Clear();
      rhs.clear();
      if (n >= kSimdStagingMinRows &&
          simd::ActiveSimdMode() == simd::SimdMode::kAvx2) {
        lhs_staged.resize(n);
        const ValueId max_lhs =
            simd::GatherWithMax(lhs_column, rows, n, lhs_staged.data());
        lhs_values.Reserve(max_lhs);
        for (int i = 0; i < n; ++i) {
          bool created = false;
          const int g = lhs_values.FindOrCreate(lhs_staged[i], &created);
          const ValueId r = rhs_column[rows[i]];
          if (created) {
            rhs.push_back(r);
          } else if (rhs[g] != r) {
            return false;
          }
        }
      } else {
        for (int i = 0; i < n; ++i) {
          bool created = false;
          const int g = lhs_values.FindOrCreate(lhs_column[rows[i]], &created);
          const ValueId r = rhs_column[rows[i]];
          if (created) {
            rhs.push_back(r);
          } else if (rhs[g] != r) {
            return false;
          }
        }
      }
      continue;
    }
    lhs_index.Clear();
    rhs.clear();
    const ValueId* rhs_column = view.table().ColumnData(fd.rhs);
    for (int i = 0; i < n; ++i) {
      const int row = view.row(i);
      bool created = false;
      const int g =
          lhs_index.FindOrCreate(view.table(), row, fd.lhs, &created);
      if (created) {
        rhs.push_back(rhs_column[row]);
      } else if (rhs[g] != rhs_column[row]) {
        return false;
      }
    }
  }
  return true;
}

bool Satisfies(const Table& table, const FdSet& fds) {
  return Satisfies(TableView(table), fds);
}

std::vector<Violation> FindViolations(const TableView& view, const FdSet& fds) {
  std::vector<Violation> out;
  for (const Fd& fd : fds.fds()) {
    if (fd.IsTrivial()) continue;
    // Group rows by lhs projection; within a group, tuples with different
    // rhs values pairwise violate the FD.
    std::unordered_map<ProjectionKey, std::vector<int>, ProjectionKeyHash>
        groups;
    for (int i = 0; i < view.num_tuples(); ++i) {
      groups[ProjectRow(view.table(), view.row(i), fd.lhs)].push_back(i);
    }
    for (const auto& [key, members] : groups) {
      for (size_t a = 0; a < members.size(); ++a) {
        for (size_t b = a + 1; b < members.size(); ++b) {
          int i = members[a];
          int j = members[b];
          if (view.value(i, fd.rhs) != view.value(j, fd.rhs)) {
            out.push_back(Violation{view.row(i), view.row(j), fd});
          }
        }
      }
    }
  }
  return out;
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
