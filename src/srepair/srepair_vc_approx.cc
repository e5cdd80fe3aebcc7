#include "srepair/srepair_vc_approx.h"

#include <algorithm>
#include <unordered_map>

#include "graph/conflict_graph.h"
#include "graph/vertex_cover.h"
#include "storage/consistency.h"
#include "storage/row_span.h"

namespace fdrepair {
namespace {
constexpr double kEps = 1e-12;

/// Incremental lhs-projection -> rhs-value index for one FD, built on the
/// shared hash-plus-witness ProjectionIndex (storage/row_span.h) — no
/// per-row ProjectionKey allocation. Entries are only ever added (the
/// restore loop admits tuples one at a time).
class FdRhsIndex {
 public:
  /// The rhs value recorded for row `row`'s lhs projection, or kNoValue.
  static constexpr ValueId kNoValue = -1;
  ValueId Find(const Table& table, int row, AttrSet lhs) const {
    const int g = index_.Find(table, row, lhs);
    return g == -1 ? kNoValue : rhs_[g];
  }

  /// Records `rhs` for row `row`'s lhs projection (first writer wins,
  /// matching the emplace semantics of the map-based implementation).
  void Insert(const Table& table, int row, AttrSet lhs, ValueId rhs) {
    bool created = false;
    index_.FindOrCreate(table, row, lhs, &created);
    if (created) rhs_.push_back(rhs);
  }

 private:
  ProjectionIndex index_;
  std::vector<ValueId> rhs_;
};

}  // namespace

std::vector<int> RestoreConsistentRows(const FdSet& fds, const TableView& view,
                                       std::vector<int> kept_rows) {
  // Per-FD index: lhs projection -> the unique rhs value of the kept set.
  const Table& table = view.table();
  std::vector<FdRhsIndex> rhs_of(fds.size());
  std::vector<char> kept(table.num_tuples(), 0);
  for (int row : kept_rows) kept[row] = 1;

  auto admits = [&](int row) {
    for (int f = 0; f < fds.size(); ++f) {
      const Fd& fd = fds.fds()[f];
      if (fd.IsTrivial()) continue;
      ValueId recorded = rhs_of[f].Find(table, row, fd.lhs);
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
      rhs_of[f].Insert(table, row, fd.lhs, table.value(row, fd.rhs));
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

std::vector<int> SRepairVcApproxRows(const FdSet& fds, const TableView& view) {
  return SRepairVcApproxRows(fds, view, nullptr);
}

std::vector<int> SRepairVcApproxRows(const FdSet& fds, const TableView& view,
                                     double* dual_lower_bound) {
  double packed = 0;  // total local-ratio burn: a feasible edge packing
  // residual[i] tracks the local-ratio budget of view row i.
  std::vector<double> residual(view.num_tuples());
  for (int i = 0; i < view.num_tuples(); ++i) residual[i] = view.weight(i);
  auto alive = [&](int i) { return residual[i] > kEps; };

  // Reused per FD: lhs groups in first-appearance order, resolved by the
  // shared hash-plus-witness ProjectionIndex (no per-row key allocation).
  // First-appearance order also makes the local-ratio pairing
  // deterministic — the pre-span implementation iterated unordered_map
  // order, which was only deterministic per standard-library
  // implementation.
  ProjectionIndex lhs_index;
  /// Single-attribute lhs: columnar DenseValueIndex sweep (same dense
  /// first-appearance group ids, no projection hashing).
  DenseValueIndex lhs_values;
  std::vector<std::vector<int>> members;  // group -> member view indices
  // Per-group rhs partition scratch (counting scatter into runs).
  std::unordered_map<ValueId, int> rhs_index;
  std::vector<int> sub_of;
  std::vector<int> run_start;
  std::vector<int> run_end;
  std::vector<int> scattered;
  std::vector<size_t> cursor;

  for (const Fd& fd : fds.fds()) {
    if (fd.IsTrivial()) continue;
    const bool single_lhs = fd.lhs.size() == 1;
    const ValueId* lhs_column =
        single_lhs ? view.table().ColumnData(fd.lhs.First()) : nullptr;
    lhs_values.Clear();
    lhs_index.Clear();
    members.clear();
    for (int i = 0; i < view.num_tuples(); ++i) {
      if (!alive(i)) continue;
      bool created = false;
      const int g =
          single_lhs
              ? lhs_values.FindOrCreate(lhs_column[view.row(i)], &created)
              : lhs_index.FindOrCreate(view.table(), view.row(i), fd.lhs,
                                       &created);
      if (created) members.emplace_back();
      members[g].push_back(i);
    }
    for (std::vector<int>& group_members : members) {
      // Partition the group's members into rhs-value runs (stable, runs in
      // first-appearance order of the rhs value).
      rhs_index.clear();
      sub_of.clear();
      int num_sub = 0;
      for (int m : group_members) {
        auto [it, inserted] = rhs_index.emplace(view.value(m, fd.rhs), num_sub);
        if (inserted) ++num_sub;
        sub_of.push_back(it->second);
      }
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
      scattered.resize(group_members.size());
      cursor.assign(run_start.begin(), run_start.end());
      for (size_t m = 0; m < group_members.size(); ++m) {
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
  NodeWeightedGraph graph = BuildConflictGraph(view, fds);
  std::vector<int> cover = VertexCoverLocalRatio(graph, edge_order);
  std::vector<char> deleted(view.num_tuples(), 0);
  for (int node : cover) deleted[node] = 1;
  std::vector<int> kept;
  for (int i = 0; i < view.num_tuples(); ++i) {
    if (!deleted[i]) kept.push_back(view.row(i));
  }
  return RestoreConsistentRows(fds, view, std::move(kept));
}

Table SRepairVcApprox(const FdSet& fds, const Table& table) {
  return table.SubsetByRows(SRepairVcApproxRows(fds, TableView(table)));
}

}  // namespace fdrepair
