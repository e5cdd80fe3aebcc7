// OptURepairCells: the §4 U-repair planner as a *cell-edit* producer, plus
// plan capture and delta splicing — the update-mode counterpart of
// srepair/opt_srepair.h's row-level plan cache.
//
// Where an S-repair is a kept-id set, a U-repair is a set of cell
// rewrites; the natural recipe unit is therefore a (position, attribute,
// replacement text) triple, not a row list. OptURepairCells runs the whole
// §4 pipeline (consensus peeling, attribute-disjoint components, the
// per-component route table) and returns the update as a canonical edit
// list — sorted by (dense row position, attribute), one entry per cell
// that actually changed — together with its DistUpd distance.
//
// One component loop serves cold runs and delta splices alike: every
// route emits position-addressed edits into one assembly (a counting pass
// by row, then DistUpd's row-order sum). Per route:
//
//   - consensus attributes: one plurality sweep per column — already O(n),
//     so splices recompute it too;
//   - common-lhs (Corollary 4.6): the inner OptSRepairRows, then every
//     deleted row's lhs cover freshened (Proposition 4.4). A cold run
//     freshens in one tight row-order pass: the service's materialize and
//     a cache hit on another pool re-intern every edit text (a hit on the
//     leader's own pool writes recorded ValueIds instead — see
//     ApplyCellEdits), and the pool's index allocates its nodes in intern
//     order, so interning block by block (interleaved with recipe
//     allocations) made those passes measurably slower. A capturing run then
//     cuts one URepairBlockRecipe per top-level S-repair block from those
//     cells. A splice sets the inner delta_base to the component's
//     captured S-plan, so only dirty blocks are re-solved; the S-splice
//     reports, per refreshed block, the base block it replayed
//     (SRepairSpliceStats::base_block), and a replayed block has the same
//     ids and kept set — hence the same freshening — so its recipe is
//     reused by index, and dirty blocks derive theirs;
//   - key-cycle (Proposition 4.9): the inner S-repair (cold or spliced),
//     then the alignment pass over the kept set — a single O(n) column
//     sweep whose bijection depends on the *global* kept order, so it is
//     never cached per block;
//   - exact-search / combined-approx components make the plan
//     non-spliceable (a splice of such a plan fails with
//     kFailedPrecondition → callers fall back to a full re-plan, exactly
//     as the service does for non-spliceable S-plans).
//
// A cold run also applies its edits to a clone of the table as it emits
// them and FDR_CHECKs Satisfies on the result; ComputeURepair
// (urepair/planner.h), defined next to OptURepairCells, returns that
// audited update rather than applying the edits a second time. Splices
// skip the audit.
//
// Bit-identity of the splice with a cold OptURepairCells run follows from
// the S-repair splice guarantee (opt_srepair.h) plus determinism of the
// freshening: fresh-constant names derive from (TupleId, attribute) — see
// urepair/fresh.h — so a clean block's cached edit texts are literally
// what a cold run would re-derive, and the assembly's order and distance
// depend only on the edit set. tests/delta_test.cc property-tests this
// across random mutation sequences and thread counts.
//
// OptURepairOptions mirrors OptSRepairRowsOptions' exec and delta fields
// rather than deriving from it: it is a documented layer boundary, whose
// delta_base is a URepairPlanCache, not an SRepairPlanCache. The component
// loop builds the one OptSRepairRowsOptions its inner S-repairs run under.

#ifndef FDREPAIR_UREPAIR_OPT_UREPAIR_H_
#define FDREPAIR_UREPAIR_OPT_UREPAIR_H_

#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "catalog/fdset.h"
#include "common/status.h"
#include "srepair/opt_srepair.h"
#include "storage/table.h"
#include "urepair/planner.h"

namespace fdrepair {

/// One cell rewrite, addressed by stable TupleId (pool- and
/// position-independent, like SRepairPlanCache's id sequences) with the
/// replacement as text (ValueIds are pool-dependent).
struct URepairCellEdit {
  TupleId id = 0;
  AttrId attr = 0;
  std::string text;
};

struct URepairPlanCache;

/// Everything one OptURepairCells run needs beyond (∆, T): planner knobs,
/// execution limits, and the optional delta-splice inputs — the
/// update-mode mirror of OptSRepairRowsOptions (see the file comment for
/// why it mirrors rather than derives).
struct OptURepairOptions {
  URepairOptions planner;
  /// Inner S-repairs (common-lhs, key-cycle) fan their blocks out under
  /// this exec; every freshening/alignment/diff pass is sequential, so
  /// results are bit-identical for every thread count.
  OptSRepairExec exec;
  /// Non-null: splice this plan — captured on the PRE-mutation table —
  /// instead of a cold run (see the file comment for what each component
  /// route reuses).
  const URepairPlanCache* delta_base = nullptr;
  /// Delta runs only: tuple ids whose content changed in place. Null means
  /// "no in-place edits".
  const std::vector<TupleId>* delta_updated_ids = nullptr;
  /// Delta runs only (optional): accumulates the inner splices'
  /// clean/dirty block counts.
  SRepairSpliceStats* splice_stats = nullptr;
};

/// The edit-list form of a U-repair.
struct OptURepairResult {
  /// Canonical order: ascending (dense row position, attribute); each
  /// edited cell appears exactly once, and every entry really differs
  /// from the input cell.
  std::vector<URepairCellEdit> edits;
  /// dist_upd(update, T), bit-exact with DistUpd on the materialized
  /// update.
  double distance = 0;
  bool optimal = false;
  double ratio_bound = 1;
  URepairPlan plan;
};

/// The freshening edits of one top-level S-repair block of a common-lhs
/// component: positions index into that block's ids in the paired
/// SRepairPlanCache. Immutable once published and SHARED between chained
/// plans: a splice's refreshed plan reuses every replayed block's recipe.
struct URepairBlockRecipe {
  struct Edit {
    int pos = 0;
    AttrId attr = 0;
    std::string text;
  };
  std::vector<Edit> edits;
};

/// Captured execution state of one component.
struct URepairComponentCache {
  URepairRoute route = URepairRoute::kNoop;
  FdSet fds;
  AttrSet attrs;
  /// Common-lhs only: the minimum lhs cover whose cells get freshened.
  AttrSet cover;
  /// Key-cycle only: the (A, B) pair.
  std::optional<std::pair<AttrId, AttrId>> cycle;
  /// The inner S-repair's captured plan (common-lhs and key-cycle).
  SRepairPlanCache splan;
  /// Common-lhs only: aligned 1:1 with splan's blocks.
  std::vector<std::shared_ptr<URepairBlockRecipe>> block_edits;
};

/// The captured top-level structure of one OptURepairCells run.
struct URepairPlanCache {
  /// Spliceable iff every component routes to kNoop / kCommonLhsExact /
  /// kKeyCycleExact and every inner S-plan is itself spliceable.
  bool spliceable = false;
  AttrSet consensus_attrs;
  std::vector<URepairComponentCache> components;
};

/// Plans and executes an update repair, returning the canonical edit
/// list. With `capture` non-null additionally records the run's plan
/// (capture->spliceable tells whether it can seed a delta run). `*capture`
/// is written on success only, and may alias options.delta_base: a splice
/// then refreshes its own base in place.
///
/// With options.delta_base non-null, repairs `table` (the MUTATED table)
/// by splicing the captured plan; bit-identical to a cold run on `table`
/// for every thread count, and `capture` then receives the refreshed plan
/// (so delta runs chain). Fails with kFailedPrecondition when the base
/// plan is not spliceable (or an inner S-plan refuses to splice) —
/// callers fall back to a full re-plan.
StatusOr<OptURepairResult> OptURepairCells(const FdSet& fds,
                                           const Table& table,
                                           const OptURepairOptions& options = {},
                                           URepairPlanCache* capture = nullptr);

/// Materializes an edit list: a clone of `table` with each edit's value
/// written to its tuple's cell. Edit i's value is values[i] when `values`
/// is non-null — ids the caller knows table.pool() issued for those texts,
/// such as an earlier apply on the same pool recorded — and otherwise its
/// text interned into the shared pool. With `interned` non-null, appends the
/// ValueId written for each edit (aligned with `edits`), the ids a later
/// apply onto a table on this pool can pass as `values` to skip the pool
/// entirely (pools are append-only, so the ids stay valid). Fails with
/// kNotFound when an edit names a tuple id `table` does not hold.
StatusOr<Table> ApplyCellEdits(const Table& table,
                               const std::vector<URepairCellEdit>& edits,
                               const std::vector<ValueId>* values = nullptr,
                               std::vector<ValueId>* interned = nullptr);

}  // namespace fdrepair

#endif  // FDREPAIR_UREPAIR_OPT_UREPAIR_H_
