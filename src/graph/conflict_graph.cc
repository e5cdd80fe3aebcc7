#include "graph/conflict_graph.h"

#include <algorithm>
#include <numeric>
#include <utility>

#include "storage/consistency.h"

namespace fdrepair {
namespace {

/// A pair of view indices i < j violating one FD of weight `weight`.
struct ConflictHit {
  int i;
  int j;
  double weight;
};

/// Every (pair, FD) violation within `view`, ordered by (i, j) and, for
/// one pair, by the FD's position in ∆.
std::vector<ConflictHit> ViolationHits(const TableView& view,
                                       const FdSet& fds) {
  std::vector<ConflictHit> hits;
  LhsGroups groups;
  for (const Fd& fd : fds.fds()) {
    if (fd.IsTrivial()) continue;
    groups.Build(view, fd.lhs);
    for (int g = 0; g < groups.size(); ++g) {
      for (const int* a = groups.begin(g); a != groups.end(g); ++a) {
        const ValueId rhs = view.value(*a, fd.rhs);
        for (const int* b = a + 1; b != groups.end(g); ++b) {
          if (view.value(*b, fd.rhs) != rhs) {
            hits.push_back({*a, *b, fd.weight});
          }
        }
      }
    }
  }
  // Two stable counting passes, by j and then by i, order the hits by
  // (i, j) in O(hits + n) and keep one pair's hits in ∆'s order.
  std::vector<ConflictHit> sorted(hits.size());
  for (int ConflictHit::*key : {&ConflictHit::j, &ConflictHit::i}) {
    std::vector<int> start(view.num_tuples() + 1, 0);
    for (const ConflictHit& hit : hits) ++start[hit.*key + 1];
    std::partial_sum(start.begin(), start.end(), start.begin());
    for (const ConflictHit& hit : hits) sorted[start[hit.*key]++] = hit;
    hits.swap(sorted);
  }
  return hits;
}

/// The conflict graph over the conflicted tuples of `view`, or over all
/// of them when `keep_isolated`.
ConflictedCore BuildCore(const TableView& view, const FdSet& fds,
                         bool keep_isolated) {
  const std::vector<ConflictHit> hits = ViolationHits(view, fds);
  std::vector<int> core_index(view.num_tuples(), keep_isolated ? 0 : -1);
  for (const ConflictHit& hit : hits) {
    core_index[hit.i] = core_index[hit.j] = 0;
  }
  ConflictedCore core;
  for (int i = 0; i < view.num_tuples(); ++i) {
    if (core_index[i] < 0) continue;  // isolated
    core_index[i] = static_cast<int>(core.nodes.size());
    core.nodes.push_back(i);
  }
  core.graph = NodeWeightedGraph(static_cast<int>(core.nodes.size()));
  for (size_t c = 0; c < core.nodes.size(); ++c) {
    core.graph.set_weight(static_cast<int>(c), view.weight(core.nodes[c]));
  }
  // One pair's hits are adjacent: the first adds the edge, the rest (which
  // AddEdge ignores) add their weights to its penalty, in ∆'s order.
  // kHardFdWeight = ∞ absorbs, so any hard FD makes the edge hard.
  for (const ConflictHit& hit : hits) {
    const int edges = core.graph.num_edges();
    core.graph.AddEdge(core_index[hit.i], core_index[hit.j]);
    if (core.graph.num_edges() > edges) {
      core.penalties.push_back(hit.weight);
    } else {
      core.penalties.back() += hit.weight;
    }
  }
  return core;
}

}  // namespace

std::vector<int> ConflictedCore::KeptRows(const TableView& view,
                                          const std::vector<int>& cover) const {
  std::vector<char> deleted(view.num_tuples(), 0);
  for (int c : cover) deleted[nodes[c]] = 1;
  std::vector<int> kept;
  for (int i = 0; i < view.num_tuples(); ++i) {
    if (!deleted[i]) kept.push_back(view.row(i));
  }
  std::sort(kept.begin(), kept.end());
  return kept;
}

ConflictedCore BuildConflictedCore(const TableView& view, const FdSet& fds) {
  return BuildCore(view, fds, /*keep_isolated=*/false);
}

NodeWeightedGraph BuildConflictGraph(const TableView& view, const FdSet& fds) {
  return std::move(BuildCore(view, fds, /*keep_isolated=*/true).graph);
}

}  // namespace fdrepair
