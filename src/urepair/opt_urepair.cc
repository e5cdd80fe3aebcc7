#include "urepair/opt_urepair.h"

#include <algorithm>
#include <bit>
#include <optional>
#include <unordered_set>

#include "storage/consistency.h"
#include "urepair/covers.h"
#include "urepair/fresh.h"
#include "urepair/urepair_common_lhs.h"
#include "urepair/urepair_consensus.h"
#include "urepair/urepair_exact.h"
#include "urepair/urepair_key_cycle.h"
#include "urepair/urepair_kl_approx.h"

namespace fdrepair {
namespace {

/// The cells of the update as the component loop emits them, addressed by
/// dense row position, each with the value written there and whether the
/// repair manufactured it (see URepairCellEdit::fresh). Every source emits
/// in (row, attr) order — FreshenDeletedRows row by row, a consensus column
/// or a diffed column top to bottom — so `in_order` stays true for a run
/// with one source, and only a run that emits from several pays a sort.
struct EditList {
  struct Cell {
    int row = 0;
    AttrId attr = 0;
    ValueId value = 0;
    bool fresh = false;
  };
  std::vector<Cell> cells;
  bool in_order = true;

  void Add(int row, AttrId attr, ValueId value, bool fresh) {
    in_order &= cells.empty() || cells.back().row < row ||
                (cells.back().row == row && cells.back().attr < attr);
    cells.push_back(Cell{row, attr, value, fresh});
  }

  /// Puts the cells into canonical (row, attr) order if the sources
  /// interleaved, then builds each URepairCellEdit once, in place, and
  /// replays DistUpd's exact expression tree: per row in row order,
  /// distance += weight * edit count (rows without edits contribute an
  /// exact +0.0 there, so skipping them is bit-identical).
  void Finish(const Table& table, OptURepairResult* result) {
    if (!in_order) {
      // A counting sort whose buckets are the table's cells: sources are
      // attribute-disjoint, so each cell holds at most one edit. One pass
      // places every edit at its cell, one walk over the cells reads them
      // back in order: O(rows · arity), as each extra source is.
      const int arity = table.schema().arity();
      std::vector<int> at(static_cast<size_t>(table.num_tuples()) * arity,
                          -1);
      for (size_t i = 0; i < cells.size(); ++i) {
        int& slot =
            at[static_cast<size_t>(cells[i].row) * arity + cells[i].attr];
        FDR_DCHECK(slot < 0);
        slot = static_cast<int>(i);
      }
      std::vector<Cell> sorted;
      sorted.reserve(cells.size());
      for (int i : at) {
        if (i >= 0) sorted.push_back(cells[i]);
      }
      cells = std::move(sorted);
    }
    // Both lists usually outlive the request (the service caches them),
    // and their length drifts as a table mutates. Sized exactly, each
    // evicted list left a free chunk slightly too small for the next one,
    // and under glibc malloc the heap of a mutating workload kept growing;
    // power-of-two capacities let lists of similar length reuse each
    // other's chunks. Tuned for glibc's allocator: revisit if the
    // allocator changes.
    result->edits.reserve(std::bit_ceil(cells.size()));
    result->values.reserve(std::bit_ceil(cells.size()));
    const ValuePool::ReadView texts = table.pool()->read();
    double distance = 0;
    for (size_t i = 0; i < cells.size();) {
      const int row = cells[i].row;
      const size_t first = i;
      for (; i < cells.size() && cells[i].row == row; ++i) {
        result->edits.emplace_back(table.id(row), cells[i].attr,
                                   cells[i].fresh, texts.text(cells[i].value));
        result->values.push_back(cells[i].value);
      }
      distance += table.weight(row) * static_cast<int>(i - first);
    }
    result->distance = distance;
  }
};

}  // namespace

StatusOr<OptURepairResult> OptURepairCells(const FdSet& fds,
                                           const Table& table,
                                           const OptURepairOptions& options,
                                           URepairPlanCache* capture) {
  const URepairPlanCache* base = options.delta_base;
  if (base != nullptr && !base->spliceable) {
    return Status::FailedPrecondition(
        "captured U-plan is not spliceable — run a full re-plan");
  }
  FDR_ASSIGN_OR_RETURN(URepairPlan plan, PlanURepair(fds));
  // The plan is a pure function of ∆, so a shape mismatch means the plan
  // was captured under a different FD set.
  if (base != nullptr &&
      (plan.components.size() != base->components.size() ||
       !(plan.consensus_attrs == base->consensus_attrs))) {
    return Status::FailedPrecondition(
        "captured U-plan does not match this FD set");
  }

  // Every edit is written to the update as it is emitted.
  EditList edits;
  Table update = table.Clone();
  auto emit = [&](int row, AttrId attr, ValueId value, bool fresh) {
    edits.Add(row, attr, value, fresh);
    update.SetValue(row, attr, value);
  };
  // Emits every cell of `attrs` where a component's sub-update differs from
  // the input. Sub-updates are clones of `table`, so rows align. Key-cycle
  // alignment only copies table values; exact search and the
  // approximations also write ⊥ constants: a value is manufactured when the
  // pool marks it fresh and the input column does not already hold it (the
  // exact search draws candidates from the column, so it may copy a ⊥ an
  // earlier repair left there).
  auto emit_diff = [&](const Table& sub, AttrSet attrs,
                       bool may_freshen) -> Status {
    bool aligned = sub.num_tuples() == table.num_tuples();
    for (int row = 0; aligned && row < sub.num_tuples(); ++row) {
      aligned = sub.id(row) == table.id(row);
    }
    if (!aligned) {
      return Status::Internal("a component's update is not row-aligned");
    }
    ForEachAttr(attrs, [&](AttrId attr) {
      const ColumnView before = table.Column(attr);
      const ColumnView after = sub.Column(attr);
      std::optional<std::unordered_set<ValueId>> held;
      for (int row = 0; row < before.size(); ++row) {
        if (before[row] == after[row]) continue;
        bool fresh = may_freshen && table.pool()->IsFresh(after[row]);
        if (fresh) {
          if (!held) held.emplace(before.data(), before.data() + before.size());
          fresh = !held->contains(after[row]);
        }
        emit(row, attr, after[row], fresh);
      }
    });
    return Status::OK();
  };

  // Consensus columns: one contiguous plurality sweep per attribute —
  // already O(n), so splices recompute them too.
  for (const auto& [attr, plurality] :
       ConsensusPluralityValues(table, plan.consensus_attrs)) {
    const ColumnView column = table.Column(attr);
    for (int row = 0; row < column.size(); ++row) {
      if (column[row] != plurality) emit(row, attr, plurality, false);
    }
  }

  // Built locally and published only on success: `capture` may alias
  // `base`, which every component reads.
  URepairPlanCache fresh;
  fresh.spliceable = true;
  fresh.consensus_attrs = plan.consensus_attrs;
  SRepairSpliceStats total;
  bool all_exact = true;
  double achieved_bound = 1.0;
  OptSRepairRowsOptions row_options;
  row_options.exec = options.exec;
  row_options.delta_updated_ids = options.delta_updated_ids;

  for (size_t c = 0; c < plan.components.size(); ++c) {
    URepairComponentPlan& component = plan.components[c];
    const URepairComponentCache* bc =
        base != nullptr ? &base->components[c] : nullptr;
    if (bc != nullptr && component.route != bc->route) {
      return Status::FailedPrecondition(
          "captured U-plan does not match this FD set");
    }
    const AttrSet attrs = component.fds.Attrs();
    URepairComponentCache cache;
    cache.route = component.route;
    cache.fds = component.fds;
    cache.attrs = attrs;
    // The inner S-repair splices the base component's plan, and records
    // its (refreshed) plan whenever this run captures or splices.
    SRepairSpliceStats inner;
    row_options.delta_base = bc != nullptr ? &bc->splan : nullptr;
    row_options.splice_stats = &inner;
    SRepairPlanCache* splan =
        capture != nullptr || bc != nullptr ? &cache.splan : nullptr;
    switch (component.route) {
      case URepairRoute::kNoop:
      case URepairRoute::kConsensusPlurality:
        break;
      case URepairRoute::kCommonLhsExact: {
        // Corollary 4.6: an optimal S-repair with a minimum lhs cover of
        // every deleted tuple freshened (Proposition 4.4).
        if (bc != nullptr && !bc->splan.spliceable) {
          return Status::FailedPrecondition(
              "captured U-plan is missing its inner S-plan");
        }
        FdSet delta = component.fds.WithoutTrivial();
        if (bc != nullptr) {
          cache.cover = bc->cover;
        } else {
          FDR_ASSIGN_OR_RETURN(cache.cover, MinimumLhsCover(delta));
        }
        FDR_ASSIGN_OR_RETURN(
            std::vector<int> kept_rows,
            OptSRepairRows(delta, TableView(table), row_options, splan));
        // Cold or spliced, the freshening is the one row-order pass over
        // the kept set, resolved against this table's pool; its edit count
        // is known here, so the list grows once.
        edits.cells.reserve(edits.cells.size() +
                            cache.cover.size() *
                                (table.num_tuples() - kept_rows.size()));
        FDR_RETURN_IF_ERROR(FreshenDeletedRows(
            table, kept_rows, cache.cover,
            [&](int row, AttrId attr, ValueId value) {
              emit(row, attr, value, true);
            }));
        if (splan != nullptr && !cache.splan.spliceable) {
          fresh.spliceable = false;
        }
        break;
      }
      case URepairRoute::kKeyCycleExact: {
        if (bc != nullptr &&
            (!bc->splan.spliceable || !bc->cycle.has_value())) {
          return Status::FailedPrecondition(
              "captured U-plan is missing its inner S-plan");
        }
        cache.cycle = bc != nullptr ? bc->cycle : DetectKeyCycle(component.fds);
        if (!cache.cycle.has_value()) {
          return Status::Internal("no key cycle in " +
                                  component.fds.ToString());
        }
        FdSet delta = component.fds.WithoutTrivial();
        FDR_ASSIGN_OR_RETURN(
            std::vector<int> kept_rows,
            OptSRepairRows(delta, TableView(table), row_options, splan));
        // The Proposition 4.9 alignment depends on the *global* kept order
        // (its partial bijection is built first-kept-wins across blocks),
        // so a splice recomputes it over the spliced kept set — one O(n)
        // column sweep; only the S-repair recursion is worth caching.
        FDR_RETURN_IF_ERROR(
            emit_diff(KeyCycleAlignRows(cache.cycle->first,
                                        cache.cycle->second, table, kept_rows),
                      attrs, false));
        if (splan != nullptr && !cache.splan.spliceable) {
          fresh.spliceable = false;
        }
        break;
      }
      case URepairRoute::kExactSearch:
      case URepairRoute::kCombinedApprox: {
        if (bc != nullptr) {
          return Status::FailedPrecondition(
              "captured U-plan contains a non-spliceable route");
        }
        fresh.spliceable = false;
        if (options.planner.allow_exact_search) {
          ExactURepairOptions exact_options;
          exact_options.max_rows = options.planner.exact_rows_guard;
          exact_options.max_cells = options.planner.exact_cells_guard;
          exact_options.mutable_attrs = attrs;
          auto exact = OptURepairExact(component.fds, table, exact_options);
          if (exact.ok()) {
            FDR_RETURN_IF_ERROR(emit_diff(*exact, attrs, true));
            component.route = URepairRoute::kExactSearch;
            component.ratio_bound = 1.0;
            break;
          }
          if (exact.status().code() != StatusCode::kResourceExhausted) {
            return exact.status();
          }
        }
        FDR_ASSIGN_OR_RETURN(Table sub,
                             CombinedApproxURepair(component.fds, table));
        FDR_RETURN_IF_ERROR(emit_diff(sub, attrs, true));
        component.route = URepairRoute::kCombinedApprox;
        all_exact = false;
        break;
      }
    }
    total.blocks_total += inner.blocks_total;
    total.blocks_clean += inner.blocks_clean;
    total.blocks_dirty += inner.blocks_dirty;
    fresh.components.push_back(std::move(cache));
    achieved_bound = std::max(achieved_bound, component.ratio_bound);
  }

  if (base == nullptr) {
    // The combined update must satisfy ∆ (components are attribute-disjoint
    // and the consensus part is separated by Theorem 4.3). Splices skip
    // this O(n · arity) audit: their bit-identity with the cold run is
    // property-tested in tests/delta_test.cc.
    if (!Satisfies(update, fds)) {
      return Status::Internal("planner produced an inconsistent update for " +
                              fds.ToString());
    }
  }
  if (options.splice_stats != nullptr) {
    options.splice_stats->blocks_total += total.blocks_total;
    options.splice_stats->blocks_clean += total.blocks_clean;
    options.splice_stats->blocks_dirty += total.blocks_dirty;
  }
  OptURepairResult result{std::move(update), {}, {}, 0, all_exact,
                          all_exact ? 1.0 : achieved_bound, std::move(plan)};
  edits.Finish(table, &result);
  if (capture != nullptr) *capture = std::move(fresh);
  return result;
}

StatusOr<URepairResult> ComputeURepair(const FdSet& fds, const Table& table,
                                       const URepairOptions& options) {
  OptURepairOptions cell_options;
  cell_options.planner = options;
  FDR_ASSIGN_OR_RETURN(OptURepairResult cells,
                       OptURepairCells(fds, table, cell_options));
  URepairResult result{std::move(cells.update), cells.distance, cells.optimal,
                       cells.ratio_bound, std::move(cells.plan)};
  return result;
}

StatusOr<Table> ApplyCellEdits(const Table& table,
                               const std::vector<URepairCellEdit>& edits,
                               const std::vector<ValueId>* values) {
  if (values != nullptr && values->size() != edits.size()) {
    return Status::InvalidArgument("one value per cell edit expected");
  }
  Table update = table.Clone();
  for (size_t i = 0; i < edits.size(); ++i) {
    const URepairCellEdit& edit = edits[i];
    FDR_ASSIGN_OR_RETURN(int row, table.RowOf(edit.id));
    const ValueId value =
        values != nullptr ? (*values)[i]
        : edit.fresh      ? update.FreshValueNamed(FreshBaseName(edit.text))
                          : update.Intern(edit.text);
    update.SetValue(row, edit.attr, value);
  }
  return update;
}

}  // namespace fdrepair
