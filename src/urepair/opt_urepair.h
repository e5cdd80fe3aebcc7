// OptURepairCells: the §4 U-repair planner as a *cell-edit* producer, plus
// plan capture and delta splicing — the update-mode counterpart of
// srepair/opt_srepair.h's row-level plan cache.
//
// Where an S-repair is a kept-id set, a U-repair is a set of cell
// rewrites; the natural recipe unit is therefore a (tuple id, attribute,
// replacement text) triple, not a row list. OptURepairCells runs the whole
// §4 pipeline (consensus peeling, attribute-disjoint components, the
// per-component route table) and returns the update together with its
// canonical edit list — sorted by (dense row position, attribute), one
// entry per cell that actually changed — and its DistUpd distance.
//
// One component loop serves cold runs and delta splices alike: every
// route emits position-addressed edits, each with the ValueId it writes,
// into one clone of the table and one staging list. Each source emits in
// (row, attribute) order, so a one-source run is already canonical and
// only a run with several sources pays a counting sort; a last pass builds
// each URepairCellEdit once, in place, and sums DistUpd's row-order
// expression tree. Per route:
//
//   - consensus attributes: one plurality sweep per column — already O(n),
//     so splices recompute it too;
//   - common-lhs (Corollary 4.6): the inner OptSRepairRows, then one
//     row-order pass that freshens every deleted row's minimum lhs cover
//     (Proposition 4.4, FreshenDeletedRows in urepair_common_lhs.h). A
//     splice sets the inner delta_base to the component's captured S-plan,
//     so only dirty blocks are re-solved; the freshening is derived, never
//     stored, and runs the same pass over the spliced kept set (its ⊥
//     values come from ValuePool::FreshCellValues a stack chunk at a
//     time, memoized per cell in a flat table in the pool, so a re-run on
//     the same pool probes integers);
//   - key-cycle (Proposition 4.9): the inner S-repair (cold or spliced),
//     then the alignment pass over the kept set — a single O(n) column
//     sweep whose bijection depends on the *global* kept order, so it is
//     never cached per block;
//   - exact-search / combined-approx components make the plan
//     non-spliceable (a splice of such a plan fails with
//     kFailedPrecondition → callers fall back to a full re-plan, exactly
//     as the service does for non-spliceable S-plans).
//
// Every run hands back the update it materialized and the ValueId of each
// edit, so no caller applies the edits a second time: ComputeURepair
// (urepair/planner.h), defined next to OptURepairCells, returns that
// update, and the service answers its leader with it. A cold run also
// audits Satisfies on the update (an inconsistent one fails with
// kInternal); splices skip the audit.
//
// Bit-identity of the splice with a cold OptURepairCells run on the same
// pool follows from the S-repair splice guarantee (opt_srepair.h): every
// step after the inner S-repair is the cold run's own code, and fresh
// names derive from (TupleId, attribute) — see urepair/fresh.h — and are
// resolved against the request's own pool. tests/delta_test.cc
// property-tests this across random mutation sequences and thread counts.
//
// OptURepairOptions mirrors OptSRepairRowsOptions' exec and delta fields
// rather than deriving from it: it is a documented layer boundary, whose
// delta_base is a URepairPlanCache, not an SRepairPlanCache. The component
// loop builds the one OptSRepairRowsOptions its inner S-repairs run under.

#ifndef FDREPAIR_UREPAIR_OPT_UREPAIR_H_
#define FDREPAIR_UREPAIR_OPT_UREPAIR_H_

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
  /// The repair manufactured this value (a ⊥ constant, urepair/fresh.h)
  /// rather than copying one from the table: a replay onto another pool
  /// resolves it with FreshValueNamed, as a planner run there would.
  bool fresh = false;
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

/// The edit-list form of a U-repair, with the update it materializes.
struct OptURepairResult {
  /// The update: a clone of the input table (sharing its pool) with every
  /// edit written.
  Table update;
  /// Canonical order: ascending (dense row position, attribute); each
  /// edited cell appears exactly once, and every entry really differs
  /// from the input cell.
  std::vector<URepairCellEdit> edits;
  /// The ValueId written for each edit, aligned with `edits`: ids of the
  /// input table's pool.
  std::vector<ValueId> values;
  /// dist_upd(update, T), bit-exact with DistUpd on `update`.
  double distance = 0;
  bool optimal = false;
  double ratio_bound = 1;
  URepairPlan plan;
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
/// callers fall back to a full re-plan. Fails with kInternal, rather than
/// aborting, when a route breaks its own contract: a component update that
/// is not row-aligned with `table`, a key-cycle component without a cycle,
/// or a cold run whose update does not satisfy `fds`.
StatusOr<OptURepairResult> OptURepairCells(const FdSet& fds,
                                           const Table& table,
                                           const OptURepairOptions& options = {},
                                           URepairPlanCache* capture = nullptr);

/// Materializes an edit list: a clone of `table` with each edit's value
/// written to its tuple's cell — the cache-hit replay path. Edit i's value
/// is values[i] when `values` is non-null — ids the caller knows
/// table.pool() issued for those texts, such as an OptURepairCells run on
/// that pool returned — and otherwise its text resolved in the shared pool:
/// FreshValueNamed on its base name (FreshBaseName) for a fresh edit,
/// Intern for any other. Fails with kNotFound when an edit names a tuple id
/// `table` does not hold, and with kInvalidArgument when `values` does not
/// hold exactly one id per edit.
StatusOr<Table> ApplyCellEdits(const Table& table,
                               const std::vector<URepairCellEdit>& edits,
                               const std::vector<ValueId>* values = nullptr);

}  // namespace fdrepair

#endif  // FDREPAIR_UREPAIR_OPT_UREPAIR_H_
