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

/// One cell of the update, addressed by dense row position, with the value
/// written there and whether the repair manufactured it (see
/// URepairCellEdit::fresh).
struct PosEdit {
  int row = 0;
  AttrId attr = 0;
  ValueId value = 0;
  bool fresh = false;
};

/// Puts the edits into canonical (row, attr) order — one counting pass by
/// row, then each row's few edits by attribute — and replays DistUpd's
/// exact expression tree: per row in row order, distance += weight * edit
/// count (rows without edits contribute an exact +0.0 there, so skipping
/// them is bit-identical).
OptURepairResult AssembleResult(const Table& table, Table update,
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
  OptURepairResult result{std::move(update), {}, {}, 0, all_exact,
                          all_exact ? 1.0 : achieved_bound, std::move(plan)};
  // Both lists usually outlive the request (the service caches them), and
  // their length drifts as a table mutates. Sized exactly, each evicted
  // list left a free chunk slightly too small for the next one, and under
  // glibc malloc the heap of a mutating workload kept growing; power-of-two
  // capacities let lists of similar length reuse each other's chunks.
  // Tuned for glibc's allocator: revisit if the allocator changes.
  result.edits.reserve(std::bit_ceil(edits.size()));
  result.values.reserve(std::bit_ceil(edits.size()));
  const ValuePool::ReadView texts = table.pool()->read();
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
      result.edits.push_back(URepairCellEdit{
          table.id(row), (*it)->attr, (*it)->fresh, texts.text((*it)->value)});
      result.values.push_back((*it)->value);
    }
  }
  result.distance = distance;
  return result;
}

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
  std::vector<PosEdit> edits;
  Table update = table.Clone();
  auto emit = [&](int row, AttrId attr, ValueId value, bool fresh) {
    edits.push_back(PosEdit{row, attr, value, fresh});
    update.SetValue(row, attr, value);
  };
  // Emits every cell of `attrs` where a component's sub-update differs from
  // the input. Sub-updates are clones of `table`, so rows align. Key-cycle
  // alignment only copies table values; exact search and the
  // approximations also write ⊥ constants: a value is manufactured when the
  // pool marks it fresh and the input column does not already hold it (the
  // exact search draws candidates from the column, so it may copy a ⊥ an
  // earlier repair left there).
  auto emit_diff = [&](const Table& sub, AttrSet attrs, bool may_freshen) {
    FDR_CHECK(sub.num_tuples() == table.num_tuples());
    for (int row = 0; row < sub.num_tuples(); ++row) {
      FDR_CHECK(sub.id(row) == table.id(row));
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
        // the kept set, resolved against this table's pool.
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
                  attrs, false);
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
            emit_diff(*exact, attrs, true);
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
        emit_diff(sub, attrs, true);
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
    FDR_CHECK_MSG(Satisfies(update, fds),
                  "planner produced an inconsistent update for " +
                      fds.ToString());
  }
  if (options.splice_stats != nullptr) {
    options.splice_stats->blocks_total += total.blocks_total;
    options.splice_stats->blocks_clean += total.blocks_clean;
    options.splice_stats->blocks_dirty += total.blocks_dirty;
  }
  OptURepairResult result =
      AssembleResult(table, std::move(update), edits, all_exact,
                     achieved_bound, std::move(plan));
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
  FDR_CHECK(values == nullptr || values->size() == edits.size());
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
