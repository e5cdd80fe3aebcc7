#include "urepair/urepair_kl_approx.h"

#include <optional>
#include <vector>

#include "srepair/srepair_vc_approx.h"
#include "storage/consistency.h"
#include "storage/distance.h"
#include "urepair/covers.h"
#include "urepair/fresh.h"
#include "urepair/urepair_mlc_approx.h"

namespace fdrepair {

StatusOr<Table> KlApproxURepair(const FdSet& fds, const Table& table) {
  FdSet delta = fds.WithoutTrivial();
  if (!delta.IsConsensusFree()) {
    return Status::FailedPrecondition(
        "KlApproxURepair requires a consensus-free FD set");
  }
  TableView view(table);

  // Step 1: tuples to repair = complement of an (approximately maximal)
  // consistent subset — i.e. an approximate vertex cover of conflicts.
  std::vector<int> kept_rows = SRepairVcApproxRows(delta, view);
  std::vector<char> kept(table.num_tuples(), 0);
  for (int row : kept_rows) kept[row] = 1;

  // The rhs attributes each covered tuple violates (against anybody): a
  // tuple violates fd iff its lhs group holds two distinct rhs values —
  // one grouping pass per FD, no pair enumeration.
  std::vector<AttrSet> violated_rhs(table.num_tuples());
  LhsGroups groups;
  for (const Fd& fd : delta.fds()) {
    groups.Build(view, fd.lhs);
    for (int g = 0; g < groups.size(); ++g) {
      if (groups.ViolatingPairs(view, g, fd.rhs) == 0) continue;
      for (const int* m = groups.begin(g); m != groups.end(g); ++m) {
        violated_rhs[view.row(*m)] = violated_rhs[view.row(*m)].With(fd.rhs);
      }
    }
  }

  // Minimum core implicants, memoized per attribute in a dense vector
  // (AttrIds are dense schema positions — no hash map needed).
  std::vector<std::optional<AttrSet>> core_of(table.schema().arity());
  auto core = [&](AttrId attr) -> StatusOr<AttrSet> {
    if (core_of[attr].has_value()) return *core_of[attr];
    FDR_ASSIGN_OR_RETURN(AttrSet result, MinimumCoreImplicant(delta, attr));
    core_of[attr] = result;
    return result;
  };

  Table update = table.Clone();
  for (int row = 0; row < table.num_tuples(); ++row) {
    if (kept[row]) continue;
    // Step 2: seed with the core implicants of the attributes this tuple
    // was caught violating.
    AttrSet cells;
    Status failure = Status::OK();
    ForEachAttr(violated_rhs[row], [&](AttrId attr) {
      if (!failure.ok()) return;
      auto c = core(attr);
      if (!c.ok()) {
        failure = c.status();
        return;
      }
      cells = cells.Union(*c);
    });
    FDR_RETURN_IF_ERROR(failure);
    // Step 3: close under "updated rhs needs its lhs broken".
    bool changed = true;
    while (changed) {
      changed = false;
      for (const Fd& fd : delta.fds()) {
        if (cells.Contains(fd.rhs) && !fd.lhs.Intersects(cells)) {
          FDR_ASSIGN_OR_RETURN(AttrSet c, core(fd.rhs));
          AttrSet grown = cells.Union(c);
          if (!(grown == cells)) {
            cells = grown;
            changed = true;
          } else {
            // The core implicant was already inside `cells` yet fd.lhs is
            // still untouched — impossible, since the core implicant hits
            // every implicant of fd.rhs including fd.lhs.
            return Status::Internal(
                "core-implicant closure failed to break " + fd.ToString());
          }
        }
      }
    }
    ForEachAttr(cells, [&](AttrId attr) {
      update.SetValue(row, attr, FreshCellValue(update, update.id(row), attr));
    });
  }
  return update;
}

StatusOr<Table> CombinedApproxURepair(const FdSet& fds, const Table& table) {
  FDR_ASSIGN_OR_RETURN(Table mlc_update, MlcApproxURepair(fds, table));
  FDR_ASSIGN_OR_RETURN(double mlc_cost, DistUpd(mlc_update, table));
  auto kl_update = KlApproxURepair(fds, table);
  if (!kl_update.ok()) {
    // The KL route needs core implicants, which the cover guard may refuse
    // on very wide schemas; the mlc route alone still carries its bound.
    if (kl_update.status().code() == StatusCode::kResourceExhausted) {
      return mlc_update;
    }
    return kl_update.status();
  }
  FDR_ASSIGN_OR_RETURN(double kl_cost, DistUpd(*kl_update, table));
  return kl_cost < mlc_cost ? std::move(kl_update).value()
                            : std::move(mlc_update);
}

}  // namespace fdrepair
