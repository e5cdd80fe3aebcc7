#include "urepair/opt_urepair.h"

#include <algorithm>
#include <optional>
#include <span>

#include "storage/consistency.h"
#include "urepair/covers.h"
#include "urepair/fresh.h"
#include "urepair/urepair_consensus.h"
#include "urepair/urepair_exact.h"
#include "urepair/urepair_key_cycle.h"
#include "urepair/urepair_kl_approx.h"

namespace fdrepair {
namespace {

/// One cell of the update, addressed by dense row position. `text` points
/// at pool text (stable for the pool's lifetime) or at a recipe's text
/// (pinned by the run's plans until assembly).
struct PosEdit {
  int row = 0;
  AttrId attr = 0;
  const std::string* text = nullptr;
};

/// The freshening recipe of one S-repair block of a common-lhs component,
/// read as its member ids plus its kept positions into them: every
/// non-kept position gets one edit per cover attribute, whose text is
/// `text_of(id, attr)`.
template <typename TextOf>
std::shared_ptr<URepairBlockRecipe> BlockRecipe(std::span<const TupleId> ids,
                                                std::span<const int> kept,
                                                AttrSet cover,
                                                TextOf text_of) {
  auto recipe = std::make_shared<URepairBlockRecipe>();
  std::vector<char> is_kept(ids.size(), 0);
  for (int pos : kept) is_kept[pos] = 1;
  for (int pos = 0; pos < static_cast<int>(ids.size()); ++pos) {
    if (is_kept[pos]) continue;
    ForEachAttr(cover, [&](AttrId attr) {
      recipe->edits.push_back({pos, attr, text_of(ids[pos], attr)});
    });
  }
  return recipe;
}

/// Puts the edits into canonical (row, attr) order — one counting pass by
/// row, then each row's few edits by attribute — and replays DistUpd's
/// exact expression tree: per row in row order, distance += weight * edit
/// count (rows without edits contribute an exact +0.0 there, so skipping
/// them is bit-identical).
OptURepairResult AssembleResult(const Table& table,
                                const std::vector<PosEdit>& edits,
                                bool all_exact, double achieved_bound,
                                URepairPlan plan) {
  const int n = table.num_tuples();
  // start[row] counts, then ends, then (after the backward placement)
  // begins row's edits; start[n] is the total.
  std::vector<int> start(n + 1, 0);
  for (const PosEdit& edit : edits) ++start[edit.row];
  int total = 0;
  for (int row = 0; row <= n; ++row) {
    total += start[row];
    start[row] = total;
  }
  std::vector<const PosEdit*> by_row(edits.size());
  for (auto it = edits.rbegin(); it != edits.rend(); ++it) {
    by_row[--start[it->row]] = &*it;
  }
  OptURepairResult result;
  result.edits.reserve(edits.size());
  double distance = 0;
  for (int row = 0; row < n; ++row) {
    const auto first = by_row.begin() + start[row];
    const auto last = by_row.begin() + start[row + 1];
    if (first == last) continue;
    std::sort(first, last, [](const PosEdit* a, const PosEdit* b) {
      return a->attr < b->attr;
    });
    distance += table.weight(row) * static_cast<int>(last - first);
    for (auto it = first; it != last; ++it) {
      result.edits.push_back(
          URepairCellEdit{table.id(row), (*it)->attr, *(*it)->text});
    }
  }
  result.distance = distance;
  result.optimal = all_exact;
  result.ratio_bound = all_exact ? 1.0 : achieved_bound;
  result.plan = std::move(plan);
  return result;
}

/// The one body of OptURepairCells (see the header comment for the
/// contract). A cold run additionally materializes its update on a clone
/// as it emits the edits, audits it against ∆, and hands it to `*audited`
/// (ComputeURepair's result); a splice leaves `*audited` empty.
StatusOr<OptURepairResult> RunCells(const FdSet& fds, const Table& table,
                                    const OptURepairOptions& options,
                                    URepairPlanCache* capture,
                                    std::optional<Table>* audited) {
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

  ValuePool& pool = *table.pool();
  std::vector<PosEdit> edits;
  std::optional<Table> update;
  if (base == nullptr) update.emplace(table.Clone());
  auto emit = [&](int row, AttrId attr, ValueId value) {
    edits.push_back(PosEdit{row, attr, &pool.Text(value)});
    if (update) update->SetValue(row, attr, value);
  };
  // Emits every cell of `attrs` where a component's sub-update differs from
  // the input. Sub-updates are clones of `table`, so rows align.
  auto emit_diff = [&](const Table& sub, AttrSet attrs) {
    FDR_CHECK(sub.num_tuples() == table.num_tuples());
    for (int row = 0; row < sub.num_tuples(); ++row) {
      FDR_CHECK(sub.id(row) == table.id(row));
    }
    ForEachAttr(attrs, [&](AttrId attr) {
      const ColumnView before = table.Column(attr);
      const ColumnView after = sub.Column(attr);
      for (int row = 0; row < before.size(); ++row) {
        if (before[row] != after[row]) emit(row, attr, after[row]);
      }
    });
  };

  // Consensus columns: one contiguous plurality sweep per attribute —
  // already O(n), so splices recompute them too.
  for (const auto& [attr, plurality] :
       ConsensusPluralityValues(table, plan.consensus_attrs)) {
    const ColumnView column = table.Column(attr);
    for (int row = 0; row < column.size(); ++row) {
      if (column[row] != plurality) emit(row, attr, plurality);
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
        if (bc != nullptr &&
            (!bc->splan.spliceable ||
             bc->block_edits.size() !=
                 static_cast<size_t>(bc->splan.num_blocks()))) {
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
        if (bc != nullptr) {
          // A block the splice replayed from base block m has the same
          // membership and kept set as m — and hence the same freshening —
          // so m's recipe replays verbatim; dirty blocks derive theirs.
          for (int b = 0; b < cache.splan.num_blocks(); ++b) {
            const int m = inner.base_block[b];
            const std::span<const TupleId> ids = cache.splan.block_ids(b);
            std::shared_ptr<URepairBlockRecipe> recipe =
                m >= 0 ? bc->block_edits[m]
                       : BlockRecipe(ids, cache.splan.block_kept(b),
                                     cache.cover, [&](TupleId id, AttrId attr) {
                                       return pool.Text(pool.FreshValueNamed(
                                           FreshCellName(id, attr)));
                                     });
            for (const URepairBlockRecipe::Edit& edit : recipe->edits) {
              FDR_ASSIGN_OR_RETURN(int row, table.RowOf(ids[edit.pos]));
              edits.push_back(PosEdit{row, edit.attr, &edit.text});
            }
            cache.block_edits.push_back(std::move(recipe));
          }
        } else {
          // Freshen the deleted rows in one row-order pass: the service's
          // materialize and every cross-pool replay re-intern each edit
          // text, and the pool's index allocates its nodes in intern
          // order, so row order here keeps those passes cache-friendly.
          // first_edit[row] is the row's first freshening edit, or -1 when
          // the row is kept.
          std::vector<int> first_edit(table.num_tuples(), 0);
          for (int row : kept_rows) first_edit[row] = -1;
          for (int row = 0; row < table.num_tuples(); ++row) {
            if (first_edit[row] < 0) continue;
            first_edit[row] = static_cast<int>(edits.size());
            ForEachAttr(cache.cover, [&](AttrId attr) {
              emit(row, attr,
                   pool.FreshValueNamed(FreshCellName(table.id(row), attr)));
            });
          }
          // Capturing runs cut each block's recipe from those cells.
          for (int b = 0; capture != nullptr && b < cache.splan.num_blocks();
               ++b) {
            cache.block_edits.push_back(BlockRecipe(
                cache.splan.block_ids(b), cache.splan.block_kept(b),
                cache.cover, [&](TupleId id, AttrId attr) {
                  const PosEdit* edit =
                      &edits[first_edit[table.RowOf(id).value()]];
                  while (edit->attr != attr) ++edit;
                  return *edit->text;
                }));
          }
        }
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
        FDR_CHECK(cache.cycle.has_value());
        FdSet delta = component.fds.WithoutTrivial();
        FDR_ASSIGN_OR_RETURN(
            std::vector<int> kept_rows,
            OptSRepairRows(delta, TableView(table), row_options, splan));
        // The Proposition 4.9 alignment depends on the *global* kept order
        // (its partial bijection is built first-kept-wins across blocks),
        // so a splice recomputes it over the spliced kept set — one O(n)
        // column sweep; only the S-repair recursion is worth caching.
        emit_diff(KeyCycleAlignRows(cache.cycle->first, cache.cycle->second,
                                    table, kept_rows),
                  attrs);
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
            emit_diff(*exact, attrs);
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
        emit_diff(sub, attrs);
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

  if (update) {
    // The combined update must satisfy ∆ (components are attribute-disjoint
    // and the consensus part is separated by Theorem 4.3). Splices skip
    // this O(n · arity) audit: their bit-identity with the cold run is
    // property-tested in tests/delta_test.cc.
    FDR_CHECK_MSG(Satisfies(*update, fds),
                  "planner produced an inconsistent update for " +
                      fds.ToString());
  }
  if (options.splice_stats != nullptr) {
    options.splice_stats->blocks_total += total.blocks_total;
    options.splice_stats->blocks_clean += total.blocks_clean;
    options.splice_stats->blocks_dirty += total.blocks_dirty;
  }
  OptURepairResult result = AssembleResult(table, edits, all_exact,
                                           achieved_bound, std::move(plan));
  if (capture != nullptr) *capture = std::move(fresh);
  if (audited != nullptr) *audited = std::move(update);
  return result;
}

}  // namespace

StatusOr<OptURepairResult> OptURepairCells(const FdSet& fds,
                                           const Table& table,
                                           const OptURepairOptions& options,
                                           URepairPlanCache* capture) {
  return RunCells(fds, table, options, capture, nullptr);
}

StatusOr<URepairResult> ComputeURepair(const FdSet& fds, const Table& table,
                                       const URepairOptions& options) {
  OptURepairOptions cell_options;
  cell_options.planner = options;
  std::optional<Table> update;
  FDR_ASSIGN_OR_RETURN(OptURepairResult cells,
                       RunCells(fds, table, cell_options, nullptr, &update));
  URepairResult result{std::move(*update), cells.distance, cells.optimal,
                       cells.ratio_bound, std::move(cells.plan)};
  return result;
}

StatusOr<Table> ApplyCellEdits(const Table& table,
                               const std::vector<URepairCellEdit>& edits,
                               const std::vector<ValueId>* values,
                               std::vector<ValueId>* interned) {
  FDR_CHECK(values == nullptr || values->size() == edits.size());
  Table update = table.Clone();
  for (size_t i = 0; i < edits.size(); ++i) {
    const URepairCellEdit& edit = edits[i];
    FDR_ASSIGN_OR_RETURN(int row, table.RowOf(edit.id));
    const ValueId value =
        values != nullptr ? (*values)[i] : update.Intern(edit.text);
    update.SetValue(row, edit.attr, value);
    if (interned != nullptr) interned->push_back(value);
  }
  return update;
}

}  // namespace fdrepair
