#include "urepair/opt_urepair.h"

#include <algorithm>
#include <span>

#include "storage/consistency.h"
#include "storage/distance.h"
#include "urepair/covers.h"
#include "urepair/fresh.h"
#include "urepair/urepair_common_lhs.h"
#include "urepair/urepair_consensus.h"
#include "urepair/urepair_exact.h"
#include "urepair/urepair_key_cycle.h"
#include "urepair/urepair_kl_approx.h"

namespace fdrepair {
namespace {

/// The freshening edits of one S-repair block of a common-lhs component,
/// read as its member ids plus its kept positions into them: every
/// non-kept position gets one edit per cover attribute. Names are the
/// deterministic (TupleId, attr) scheme, so this derivation matches
/// SubsetToUpdate's materialized freshening cell for cell (FreshValueNamed
/// is idempotent, so re-deriving never mints a second symbol).
std::shared_ptr<URepairBlockRecipe> BuildBlockEdits(
    ValuePool& pool, std::span<const TupleId> ids, std::span<const int> kept,
    AttrSet cover) {
  auto recipe = std::make_shared<URepairBlockRecipe>();
  std::vector<char> is_kept(ids.size(), 0);
  for (int pos : kept) is_kept[pos] = 1;
  for (int pos = 0; pos < static_cast<int>(ids.size()); ++pos) {
    if (is_kept[pos]) continue;
    ForEachAttr(cover, [&](AttrId attr) {
      ValueId value = pool.FreshValueNamed(FreshCellName(ids[pos], attr));
      recipe->edits.push_back({pos, attr, pool.Text(value)});
    });
  }
  return recipe;
}

/// Working edit form carrying the dense row position for canonical
/// ordering and the row-order distance sum.
struct PosEdit {
  int row = 0;
  AttrId attr = 0;
  TupleId id = 0;
  std::string text;
};

/// Sorts into canonical (row, attr) order and replays DistUpd's exact
/// expression tree: per row in row order, distance += weight * edit count
/// (rows without edits contribute an exact +0.0 there, so skipping them is
/// bit-identical).
OptURepairResult AssembleResult(const Table& table, std::vector<PosEdit> edits,
                                bool all_exact, double achieved_bound,
                                URepairPlan plan) {
  std::sort(edits.begin(), edits.end(), [](const PosEdit& a, const PosEdit& b) {
    return a.row != b.row ? a.row < b.row : a.attr < b.attr;
  });
  OptURepairResult result;
  double distance = 0;
  for (size_t i = 0; i < edits.size();) {
    size_t j = i;
    while (j < edits.size() && edits[j].row == edits[i].row) ++j;
    distance += table.weight(edits[i].row) * static_cast<int>(j - i);
    i = j;
  }
  result.distance = distance;
  result.optimal = all_exact;
  result.ratio_bound = all_exact ? 1.0 : achieved_bound;
  result.edits.reserve(edits.size());
  for (PosEdit& edit : edits) {
    result.edits.push_back(
        URepairCellEdit{edit.id, edit.attr, std::move(edit.text)});
  }
  result.plan = std::move(plan);
  return result;
}

/// The delta-splice path of the canonical OptURepairCells (defined below;
/// see the header comment there for the contract).
StatusOr<OptURepairResult> DeltaCells(
    const FdSet& fds, const Table& table, const OptURepairOptions& options,
    const URepairPlanCache& base, const std::vector<TupleId>& updated_ids,
    URepairPlanCache* capture, SRepairSpliceStats* stats);

}  // namespace

StatusOr<OptURepairResult> OptURepairCells(const FdSet& fds,
                                           const Table& table,
                                           const OptURepairOptions& options,
                                           URepairPlanCache* capture) {
  if (options.delta_base != nullptr) {
    static const std::vector<TupleId> kNoUpdatedIds;
    const std::vector<TupleId>& updated = options.delta_updated_ids != nullptr
                                              ? *options.delta_updated_ids
                                              : kNoUpdatedIds;
    return DeltaCells(fds, table, options, *options.delta_base, updated,
                      capture, options.splice_stats);
  }
  FDR_ASSIGN_OR_RETURN(URepairPlan plan, PlanURepair(fds));
  Table update = table.Clone();

  // Copies the cells of `attrs` from a component's sub-update into the
  // global update. Sub-updates are clones of `table`, so rows align.
  auto merge = [&](const Table& sub, AttrSet attrs) {
    FDR_CHECK(sub.num_tuples() == update.num_tuples());
    for (int row = 0; row < sub.num_tuples(); ++row) {
      FDR_CHECK(sub.id(row) == update.id(row));
      ForEachAttr(attrs, [&](AttrId attr) {
        if (update.value(row, attr) != sub.value(row, attr)) {
          update.SetValue(row, attr, sub.value(row, attr));
        }
      });
    }
  };

  if (capture != nullptr) {
    *capture = URepairPlanCache{};
    capture->spliceable = true;
    capture->consensus_attrs = plan.consensus_attrs;
  }

  bool all_exact = true;
  double achieved_bound = 1.0;

  if (!plan.consensus_attrs.empty()) {
    merge(ConsensusPluralityRepair(table, plan.consensus_attrs),
          plan.consensus_attrs);
  }

  for (URepairComponentPlan& component : plan.components) {
    const AttrSet attrs = component.fds.Attrs();
    URepairComponentCache cache;
    cache.route = component.route;
    cache.fds = component.fds;
    cache.attrs = attrs;
    switch (component.route) {
      case URepairRoute::kNoop:
      case URepairRoute::kConsensusPlurality:
        break;
      case URepairRoute::kCommonLhsExact: {
        FdSet delta = component.fds.WithoutTrivial();
        FDR_ASSIGN_OR_RETURN(cache.cover, MinimumLhsCover(delta));
        FDR_ASSIGN_OR_RETURN(
            Table sub,
            CommonLhsOptimalURepair(component.fds, table, options.exec,
                                    capture != nullptr ? &cache.splan
                                                       : nullptr));
        merge(sub, attrs);
        if (capture != nullptr) {
          if (!cache.splan.spliceable) capture->spliceable = false;
          for (int b = 0; b < cache.splan.num_blocks(); ++b) {
            cache.block_edits.push_back(
                BuildBlockEdits(*table.pool(), cache.splan.block_ids(b),
                                cache.splan.block_kept(b), cache.cover));
          }
        }
        break;
      }
      case URepairRoute::kKeyCycleExact: {
        cache.cycle = DetectKeyCycle(component.fds);
        FDR_CHECK(cache.cycle.has_value());
        FdSet delta = component.fds.WithoutTrivial();
        OptSRepairRowsOptions row_options;
        row_options.exec = options.exec;
        FDR_ASSIGN_OR_RETURN(
            std::vector<int> kept_rows,
            OptSRepairRows(delta, TableView(table), row_options,
                           capture != nullptr ? &cache.splan : nullptr));
        merge(KeyCycleAlignRows(cache.cycle->first, cache.cycle->second, table,
                                kept_rows),
              attrs);
        if (capture != nullptr && !cache.splan.spliceable) {
          capture->spliceable = false;
        }
        break;
      }
      case URepairRoute::kExactSearch:
      case URepairRoute::kCombinedApprox: {
        if (capture != nullptr) capture->spliceable = false;
        if (options.planner.allow_exact_search) {
          ExactURepairOptions exact_options;
          exact_options.max_rows = options.planner.exact_rows_guard;
          exact_options.max_cells = options.planner.exact_cells_guard;
          exact_options.mutable_attrs = attrs;
          auto exact = OptURepairExact(component.fds, table, exact_options);
          if (exact.ok()) {
            merge(*exact, attrs);
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
        merge(sub, attrs);
        component.route = URepairRoute::kCombinedApprox;
        all_exact = false;
        break;
      }
    }
    if (capture != nullptr) capture->components.push_back(std::move(cache));
    achieved_bound = std::max(achieved_bound, component.ratio_bound);
  }

  FDR_ASSIGN_OR_RETURN(double distance, DistUpd(update, table));
  // The combined update must satisfy ∆ (components are attribute-disjoint
  // and the consensus part is separated by Theorem 4.3).
  FDR_CHECK_MSG(Satisfies(update, fds),
                "planner produced an inconsistent update for " +
                    fds.ToString());

  OptURepairResult result;
  result.distance = distance;
  result.optimal = all_exact;
  result.ratio_bound = all_exact ? 1.0 : achieved_bound;
  const int arity = table.schema().arity();
  for (int row = 0; row < table.num_tuples(); ++row) {
    for (AttrId attr = 0; attr < arity; ++attr) {
      if (update.value(row, attr) != table.value(row, attr)) {
        result.edits.push_back(URepairCellEdit{
            table.id(row), attr, update.ValueText(row, attr)});
      }
    }
  }
  result.plan = std::move(plan);
  return result;
}

namespace {

StatusOr<OptURepairResult> DeltaCells(
    const FdSet& fds, const Table& table, const OptURepairOptions& options,
    const URepairPlanCache& base, const std::vector<TupleId>& updated_ids,
    URepairPlanCache* capture, SRepairSpliceStats* stats) {
  if (!base.spliceable) {
    return Status::FailedPrecondition(
        "captured U-plan is not spliceable — run a full re-plan");
  }
  FDR_ASSIGN_OR_RETURN(URepairPlan plan, PlanURepair(fds));
  // The plan is a pure function of ∆, so a shape mismatch means the plan
  // was captured under a different FD set.
  if (plan.components.size() != base.components.size() ||
      !(plan.consensus_attrs == base.consensus_attrs)) {
    return Status::FailedPrecondition(
        "captured U-plan does not match this FD set");
  }

  ValuePool& pool = *table.pool();
  std::vector<PosEdit> edits;
  SRepairSpliceStats total;

  if (capture != nullptr) {
    *capture = URepairPlanCache{};
    capture->spliceable = true;
    capture->consensus_attrs = plan.consensus_attrs;
  }

  // Consensus columns: recomputed outright — one contiguous sweep per
  // attribute, already O(n); the diff below reproduces the cold run's
  // merge-vs-input edit set exactly.
  for (const auto& [attr, plurality] :
       ConsensusPluralityValues(table, plan.consensus_attrs)) {
    const ColumnView column = table.Column(attr);
    const std::string& text = pool.Text(plurality);
    for (int row = 0; row < column.size(); ++row) {
      if (column[row] != plurality) {
        edits.push_back(PosEdit{row, attr, table.id(row), text});
      }
    }
  }

  bool all_exact = true;
  double achieved_bound = 1.0;

  for (size_t c = 0; c < plan.components.size(); ++c) {
    URepairComponentPlan& component = plan.components[c];
    const URepairComponentCache& bc = base.components[c];
    if (component.route != bc.route) {
      return Status::FailedPrecondition(
          "captured U-plan does not match this FD set");
    }
    const AttrSet attrs = component.fds.Attrs();
    URepairComponentCache cache;
    cache.route = component.route;
    cache.fds = component.fds;
    cache.attrs = attrs;
    cache.cover = bc.cover;
    cache.cycle = bc.cycle;
    switch (component.route) {
      case URepairRoute::kNoop:
      case URepairRoute::kConsensusPlurality:
        break;
      case URepairRoute::kCommonLhsExact: {
        if (!bc.splan.spliceable ||
            bc.block_edits.size() !=
                static_cast<size_t>(bc.splan.num_blocks())) {
          return Status::FailedPrecondition(
              "captured U-plan is missing its inner S-plan");
        }
        FdSet delta = component.fds.WithoutTrivial();
        SRepairSpliceStats cstats;
        OptSRepairRowsOptions row_options;
        row_options.exec = options.exec;
        row_options.delta_base = &bc.splan;
        row_options.delta_updated_ids = &updated_ids;
        row_options.splice_stats = &cstats;
        FDR_ASSIGN_OR_RETURN(
            std::vector<int> kept_rows,
            OptSRepairRows(delta, TableView(table), row_options, &cache.splan));
        (void)kept_rows;  // The edits derive from the refreshed blocks.
        total.blocks_total += cstats.blocks_total;
        total.blocks_clean += cstats.blocks_clean;
        total.blocks_dirty += cstats.blocks_dirty;
        // A block the splice replayed from base block m has the same
        // membership and kept set as m — and hence the same freshening — so
        // m's cached edit recipe replays verbatim.
        const SRepairPlanCache& fresh = cache.splan;
        for (int b = 0; b < fresh.num_blocks(); ++b) {
          const int m = cstats.base_block[b];
          std::shared_ptr<URepairBlockRecipe> recipe =
              m >= 0 ? bc.block_edits[m]
                     : BuildBlockEdits(pool, fresh.block_ids(b),
                                       fresh.block_kept(b), bc.cover);
          const std::span<const TupleId> ids = fresh.block_ids(b);
          for (const URepairBlockRecipe::Edit& edit : recipe->edits) {
            const TupleId id = ids[edit.pos];
            FDR_ASSIGN_OR_RETURN(int row, table.RowOf(id));
            edits.push_back(PosEdit{row, edit.attr, id, edit.text});
          }
          cache.block_edits.push_back(std::move(recipe));
        }
        if (capture != nullptr && !fresh.spliceable) {
          capture->spliceable = false;
        }
        break;
      }
      case URepairRoute::kKeyCycleExact: {
        if (!bc.splan.spliceable || !bc.cycle.has_value()) {
          return Status::FailedPrecondition(
              "captured U-plan is missing its inner S-plan");
        }
        FdSet delta = component.fds.WithoutTrivial();
        SRepairSpliceStats cstats;
        OptSRepairRowsOptions row_options;
        row_options.exec = options.exec;
        row_options.delta_base = &bc.splan;
        row_options.delta_updated_ids = &updated_ids;
        row_options.splice_stats = &cstats;
        FDR_ASSIGN_OR_RETURN(
            std::vector<int> kept_rows,
            OptSRepairRows(delta, TableView(table), row_options, &cache.splan));
        total.blocks_total += cstats.blocks_total;
        total.blocks_clean += cstats.blocks_clean;
        total.blocks_dirty += cstats.blocks_dirty;
        // The Proposition 4.9 alignment depends on the *global* kept order
        // (its partial bijection is built first-kept-wins across blocks),
        // so it is recomputed over the spliced kept set — one O(n) column
        // sweep; only the S-repair recursion was worth caching.
        Table sub = KeyCycleAlignRows(bc.cycle->first, bc.cycle->second, table,
                                      kept_rows);
        for (AttrId attr : {bc.cycle->first, bc.cycle->second}) {
          const ColumnView before = table.Column(attr);
          const ColumnView after = sub.Column(attr);
          for (int row = 0; row < before.size(); ++row) {
            if (before[row] != after[row]) {
              edits.push_back(
                  PosEdit{row, attr, table.id(row), sub.ValueText(row, attr)});
            }
          }
        }
        if (capture != nullptr && !cache.splan.spliceable) {
          capture->spliceable = false;
        }
        break;
      }
      case URepairRoute::kExactSearch:
      case URepairRoute::kCombinedApprox:
        return Status::FailedPrecondition(
            "captured U-plan contains a non-spliceable route");
    }
    if (capture != nullptr) capture->components.push_back(std::move(cache));
    achieved_bound = std::max(achieved_bound, component.ratio_bound);
  }

  if (stats != nullptr) {
    stats->blocks_total += total.blocks_total;
    stats->blocks_clean += total.blocks_clean;
    stats->blocks_dirty += total.blocks_dirty;
  }
  // No Satisfies() audit here: the splice path exists to skip O(n · arity)
  // re-work, and its bit-identity with the cold run (which does audit) is
  // property-tested in tests/delta_test.cc.
  return AssembleResult(table, std::move(edits), all_exact, achieved_bound,
                        std::move(plan));
}

}  // namespace

}  // namespace fdrepair
