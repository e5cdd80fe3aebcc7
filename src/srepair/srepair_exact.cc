#include "srepair/srepair_exact.h"

#include "graph/conflict_graph.h"
#include "graph/vertex_cover.h"

namespace fdrepair {

StatusOr<std::vector<int>> OptSRepairExactRows(const FdSet& fds,
                                               const TableView& view,
                                               int max_conflict_nodes) {
  // Isolated tuples are always kept; branch only over the conflicted core.
  const ConflictedCore core = BuildConflictedCore(view, fds);
  if (static_cast<int>(core.nodes.size()) > max_conflict_nodes) {
    return Status::ResourceExhausted(
        "exact S-repair limited to " + std::to_string(max_conflict_nodes) +
        " conflicted tuples, instance has " +
        std::to_string(core.nodes.size()));
  }
  FDR_ASSIGN_OR_RETURN(
      std::vector<int> cover,
      MinWeightVertexCoverExact(core.graph, max_conflict_nodes));
  return core.KeptRows(view, cover);
}

StatusOr<Table> OptSRepairExact(const FdSet& fds, const Table& table,
                                int max_conflict_nodes) {
  FDR_ASSIGN_OR_RETURN(
      std::vector<int> rows,
      OptSRepairExactRows(fds, TableView(table), max_conflict_nodes));
  return table.SubsetByRows(rows);
}

}  // namespace fdrepair
