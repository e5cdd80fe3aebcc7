#include "srepair/srepair_vc_approx.h"

#include <algorithm>

#include "graph/conflict_graph.h"
#include "graph/vertex_cover.h"
#include "storage/consistency.h"
#include "storage/row_span.h"

namespace fdrepair {
namespace {
constexpr double kEps = 1e-12;

/// Incremental lhs-projection -> rhs-value index for one FD, over one
/// GroupIndex (storage/row_span.h) that grows as the restore loop admits
/// tuples one at a time; entries are only ever added.
class FdRhsIndex {
 public:
  FdRhsIndex(const Table& table, AttrSet lhs) { index_.Reset(table, lhs, 0); }

  /// The rhs value recorded for row `row`'s lhs projection, or kNoValue.
  static constexpr ValueId kNoValue = -1;
  ValueId Find(int row) const {
    const int g = index_.Find(row);
    return g == -1 ? kNoValue : rhs_[g];
  }

  /// Records `rhs` for row `row`'s lhs projection (first writer wins).
  void Insert(int row, ValueId rhs) {
    bool created = false;
    index_.FindOrCreate(row, &created);
    if (created) rhs_.push_back(rhs);
  }

 private:
  GroupIndex index_;
  std::vector<ValueId> rhs_;
};

}  // namespace

std::vector<int> RestoreConsistentRows(const FdSet& fds, const TableView& view,
                                       std::vector<int> kept_rows) {
  // Per-FD index: lhs projection -> the unique rhs value of the kept set.
  const Table& table = view.table();
  std::vector<FdRhsIndex> rhs_of;
  rhs_of.reserve(fds.size());
  for (const Fd& fd : fds.fds()) rhs_of.emplace_back(table, fd.lhs);
  std::vector<char> kept(table.num_tuples(), 0);
  for (int row : kept_rows) kept[row] = 1;

  auto admits = [&](int row) {
    for (int f = 0; f < fds.size(); ++f) {
      const Fd& fd = fds.fds()[f];
      if (fd.IsTrivial()) continue;
      ValueId recorded = rhs_of[f].Find(row);
      if (recorded != FdRhsIndex::kNoValue &&
          recorded != table.value(row, fd.rhs)) {
        return false;
      }
    }
    return true;
  };
  auto admit = [&](int row) {
    for (int f = 0; f < fds.size(); ++f) {
      const Fd& fd = fds.fds()[f];
      if (fd.IsTrivial()) continue;
      rhs_of[f].Insert(row, table.value(row, fd.rhs));
    }
  };

  for (int i = 0; i < view.num_tuples(); ++i) {
    if (kept[view.row(i)]) admit(view.row(i));
  }
  // Candidates to restore, heaviest first (ties by view order for
  // determinism).
  std::vector<int> candidates;
  for (int i = 0; i < view.num_tuples(); ++i) {
    if (!kept[view.row(i)]) candidates.push_back(i);
  }
  std::stable_sort(candidates.begin(), candidates.end(),
                   [&](int a, int b) { return view.weight(a) > view.weight(b); });
  for (int i : candidates) {
    if (admits(view.row(i))) {
      admit(view.row(i));
      kept[view.row(i)] = 1;
    }
  }
  std::vector<int> out;
  for (int i = 0; i < view.num_tuples(); ++i) {
    if (kept[view.row(i)]) out.push_back(view.row(i));
  }
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

std::vector<int> SRepairVcApproxRows(const FdSet& fds, const TableView& view,
                                     double* dual_lower_bound) {
  double packed = 0;  // total local-ratio burn: a feasible edge packing
  // residual[i] tracks the local-ratio budget of view row i.
  std::vector<double> residual(view.num_tuples());
  for (int i = 0; i < view.num_tuples(); ++i) residual[i] = view.weight(i);
  auto alive = [&](int i) { return residual[i] > kEps; };

  // Reused per FD: the alive rows' lhs groups (LhsGroups, in
  // first-appearance order, members ascending). First-appearance order
  // makes the local-ratio pairing deterministic — the pre-span
  // implementation iterated unordered_map order, which was only
  // deterministic per standard-library implementation.
  LhsGroups groups;
  // Per-group rhs partition scratch (counting scatter into runs).
  DenseValueIndex rhs_index;
  std::vector<int> sub_of;
  std::vector<int> run_start;
  std::vector<int> run_end;
  std::vector<int> scattered;
  std::vector<size_t> cursor;

  for (const Fd& fd : fds.fds()) {
    if (fd.IsTrivial()) continue;
    groups.Build(view, fd.lhs, alive);
    for (int g = 0; g < groups.size(); ++g) {
      const int* group_members = groups.begin(g);
      const int group_size = groups.group_size(g);
      // Partition the group's members into rhs-value runs (stable, runs in
      // first-appearance order of the rhs value).
      rhs_index.Clear();
      sub_of.clear();
      for (int m = 0; m < group_size; ++m) {
        bool created = false;
        sub_of.push_back(rhs_index.FindOrCreate(
            view.value(group_members[m], fd.rhs), &created));
      }
      const int num_sub = rhs_index.size();
      if (num_sub < 2) continue;
      run_start.assign(num_sub, 0);
      for (int s : sub_of) ++run_start[s];
      int total = 0;
      run_end.assign(num_sub, 0);
      for (int s = 0; s < num_sub; ++s) {
        const int size = run_start[s];
        run_start[s] = total;
        total += size;
        run_end[s] = total;
      }
      scattered.resize(group_size);
      cursor.assign(run_start.begin(), run_start.end());
      for (int m = 0; m < group_size; ++m) {
        scattered[cursor[sub_of[m]]++] = group_members[m];
      }
      // Local-ratio: repeatedly take alive tuples from two distinct rhs
      // runs (a complete-multipartite conflict) and burn the smaller
      // residual; each step kills at least one tuple, so total work is
      // linear in the group size.
      for (int s = 0; s < num_sub; ++s) cursor[s] = run_start[s];
      auto advance = [&](int s) {
        while (cursor[s] < static_cast<size_t>(run_end[s]) &&
               !alive(scattered[cursor[s]])) {
          ++cursor[s];
        }
        return cursor[s] < static_cast<size_t>(run_end[s]);
      };
      while (true) {
        int first = -1, second = -1;
        for (int s = 0; s < num_sub; ++s) {
          if (!advance(s)) continue;
          if (first < 0) {
            first = s;
          } else {
            second = s;
            break;
          }
        }
        if (second < 0) break;  // conflicts within this group all covered
        const int u = scattered[cursor[first]];
        const int v = scattered[cursor[second]];
        const double delta = std::min(residual[u], residual[v]);
        residual[u] -= delta;
        residual[v] -= delta;
        packed += delta;
      }
    }
  }
  if (dual_lower_bound != nullptr) *dual_lower_bound = packed;
  std::vector<int> kept;
  for (int i = 0; i < view.num_tuples(); ++i) {
    if (alive(i)) kept.push_back(view.row(i));
  }
  return RestoreConsistentRows(fds, view, std::move(kept));
}

std::vector<int> SRepairVcApproxRowsViaGraph(
    const FdSet& fds, const TableView& view,
    const std::vector<int>& edge_order) {
  // The core's edge list is the conflict graph's, in the same order.
  const ConflictedCore core = BuildConflictedCore(view, fds);
  return RestoreConsistentRows(
      fds, view,
      core.KeptRows(view, VertexCoverLocalRatio(core.graph, edge_order)));
}

Table SRepairVcApprox(const FdSet& fds, const Table& table) {
  return table.SubsetByRows(SRepairVcApproxRows(fds, TableView(table)));
}

}  // namespace fdrepair
