#include "srepair/soft_repair.h"

#include <algorithm>
#include <chrono>
#include <string>
#include <utility>
#include <vector>

#include "graph/conflict_graph.h"
#include "srepair/solver_backend.h"
#include "storage/consistency.h"
#include "storage/distance.h"

namespace fdrepair {
namespace {

/// Accumulated provenance across the peel recursion.
struct SoftAggregate {
  double lower_bound = 0;
  bool optimal = true;
  double ratio_bound = 1.0;
  int peels = 0;
  int cores = 0;
  std::vector<std::string> backends;  // unique, in first-use order

  void NoteBackend(const std::string& name) {
    if (std::find(backends.begin(), backends.end(), name) == backends.end()) {
      backends.push_back(name);
    }
  }
};

/// The soft conflicted core: solve the pair instance with the routed
/// backend and append the complement's kept rows to *kept.
Status SolveSoftCore(const FdSet& fds, const TableView& view,
                     const SRepairOptions& options, SoftAggregate* agg,
                     std::vector<int>* kept) {
  const ConflictedCore core = BuildConflictedCore(view, fds);
  SolverCover cover;
  if (!core.nodes.empty()) {
    ++agg->cores;
    SolverExec exec{options.exec.deadline, options.node_budget};
    FDR_ASSIGN_OR_RETURN(const SolverBackend* named,
                         FindNamedBackend(options));
    // Soft cores route as kAuto whatever the strategy (SRepairOptions).
    const SolverBackend* backend =
        RouteCoreBackend(named, options, SRepairStrategy::kAuto,
                         static_cast<int>(core.nodes.size()), &exec);
    FDR_ASSIGN_OR_RETURN(
        cover, backend->SolveSoftCover(core.graph, core.penalties, exec));
    agg->NoteBackend(backend->name());
    agg->lower_bound += cover.lower_bound;
    agg->optimal = agg->optimal && cover.optimal;
    agg->ratio_bound = std::max(agg->ratio_bound, cover.ratio_bound);
  }
  const std::vector<int> core_kept = core.KeptRows(view, cover.cover);
  kept->insert(kept->end(), core_kept.begin(), core_kept.end());
  return Status::OK();
}

/// Appends the kept rows of `view`'s soft repair to *kept (unordered).
Status SolveSoftView(const FdSet& fds, const TableView& view,
                     const SRepairOptions& options, SoftAggregate* agg,
                     std::vector<int>* kept) {
  if (options.exec.has_deadline() &&
      std::chrono::steady_clock::now() >= options.exec.deadline) {
    return Status::DeadlineExceeded("soft-repair deadline expired");
  }
  const FdSet active = fds.WithoutTrivial();
  if (active.empty() || view.num_tuples() <= 1) {
    kept->insert(kept->end(), view.rows().begin(), view.rows().end());
    return Status::OK();
  }
  // The weighted common-lhs simplification: an attribute in EVERY lhs
  // (hard and soft alike) makes σ_{A=a} blocks independent even for the
  // soft objective — any violating pair agrees on the block attribute.
  if (std::optional<AttrId> attr = active.FindCommonLhsAttr()) {
    ++agg->peels;
    const FdSet reduced = active.MinusAttrs(AttrSet().With(*attr));
    LhsGroups blocks;
    blocks.Build(view, AttrSet().With(*attr));
    for (int b = 0; b < blocks.size(); ++b) {
      std::vector<int> rows;
      rows.reserve(blocks.group_size(b));
      for (const int* m = blocks.begin(b); m != blocks.end(b); ++m) {
        rows.push_back(view.row(*m));
      }
      FDR_RETURN_IF_ERROR(SolveSoftView(
          reduced, TableView(view.table(), std::move(rows)), options, agg,
          kept));
    }
    return Status::OK();
  }
  return SolveSoftCore(active, view, options, agg, kept);
}

}  // namespace

double SoftViolationCost(const FdSet& fds, const TableView& view) {
  double cost = 0;
  LhsGroups groups;
  for (const Fd& fd : fds.fds()) {
    if (!fd.IsSoft() || fd.IsTrivial()) continue;
    groups.Build(view, fd.lhs);
    for (int g = 0; g < groups.size(); ++g) {
      cost += fd.weight *
              static_cast<double>(groups.ViolatingPairs(view, g, fd.rhs));
    }
  }
  return cost;
}

StatusOr<SoftRepairResult> ComputeSoftRepair(const FdSet& fds,
                                             const Table& table,
                                             const SRepairOptions& options) {
  if (!fds.HasSoftFds()) {
    // ω ≡ ∞: soft repairing IS subset repairing. Delegating wholesale —
    // same routing, same span recursion, same backends, same thread
    // fan-out — is what makes the pin bit-identical by construction.
    FDR_ASSIGN_OR_RETURN(SRepairResult result,
                         ComputeSRepair(fds, table, options));
    SoftRepairResult out{std::move(result.repair)};
    out.cost = result.distance;
    out.deleted_weight = result.distance;
    out.violation_cost = 0;
    out.optimal = result.optimal;
    out.ratio_bound = result.ratio_bound;
    out.route =
        std::string("soft[") + SRepairAlgorithmToString(result.algorithm) +
        "]";
    out.backend = result.backend;
    out.lower_bound = result.lower_bound;
    out.achieved_ratio = result.achieved_ratio;
    return out;
  }

  const TableView view(table);
  SoftAggregate agg;
  std::vector<int> kept;
  FDR_RETURN_IF_ERROR(SolveSoftView(fds, view, options, &agg, &kept));
  std::sort(kept.begin(), kept.end());

  SoftRepairResult out{table.SubsetByRows(kept)};
  FDR_ASSIGN_OR_RETURN(out.deleted_weight, DistSub(out.repair, table));
  out.violation_cost = SoftViolationCost(fds, TableView(out.repair));
  out.cost = out.deleted_weight + out.violation_cost;
  out.optimal = agg.optimal;
  FDR_ASSIGN_OR_RETURN(RepairCertificate certificate,
                       CertifyRepair(options, out.cost, agg.optimal,
                                     agg.ratio_bound, agg.lower_bound));
  out.ratio_bound = certificate.ratio_bound;
  out.lower_bound = certificate.lower_bound;
  out.achieved_ratio = certificate.achieved_ratio;
  out.route = "soft[peels=" + std::to_string(agg.peels) +
              ",cores=" + std::to_string(agg.cores) + "]";
  for (const std::string& name : agg.backends) {
    if (!out.backend.empty()) out.backend += "+";
    out.backend += name;
  }
  return out;
}

}  // namespace fdrepair
