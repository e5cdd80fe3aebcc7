// OptSRepair (Algorithm 1): the polynomial-time optimal subset repair for
// every FD set on the tractable side of the Theorem 3.4 dichotomy.
//
// The algorithm repeatedly simplifies (∆, T):
//   - trivial ∆: T itself is the optimal S-repair;
//   - common lhs A: solve each σ_{A=a}T under ∆ − A and union
//     (Subroutine 1, CommonLHSRep);
//   - consensus FD ∅ → A: solve each σ_{A=a}T under ∆ − A and keep the
//     heaviest (Subroutine 2, ConsensusRep);
//   - lhs marriage (X1, X2): solve every block σ_{X1=a1,X2=a2}T under
//     ∆ − X1X2, then pick blocks by a maximum-weight bipartite matching
//     between π_X1 T and π_X2 T (Subroutine 3, MarriageRep);
//   - otherwise fail (the problem is APX-complete; Theorem 3.4).
//
// Weighted tuples and duplicates are fully supported (Theorem 3.2).
//
// Every simplification step decomposes the instance into independent
// blocks; OptSRepairExec lets callers run those blocks on a ThreadPool.
// Results are bit-identical for every thread count: blocks are solved into
// block-local accumulators and merged in first-appearance block order, so
// the reduction — including floating-point weight summation — follows the
// same expression tree whether blocks run sequentially or concurrently.
//
// The recursion runs on the zero-allocation span core (storage/row_span.h):
// one shared row-index buffer is permuted in place per level, blocks are
// (begin, end) windows of it (disjoint, so concurrent blocks never touch
// the same element), grouping is a stable counting scatter over interned
// ValueIds, the simplification chain is computed once per top-level ∆
// (§3.2: it depends only on ∆, not on T) and indexed by depth, and
// per-thread scratch arenas recycle every block-local buffer. See
// bench/bench_hotpath.cc for the measured win over the materializing
// recursion it replaced.

#ifndef FDREPAIR_SREPAIR_OPT_SREPAIR_H_
#define FDREPAIR_SREPAIR_OPT_SREPAIR_H_

#include <chrono>
#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "catalog/fdset.h"
#include "common/status.h"
#include "srepair/simplification.h"
#include "storage/table.h"
#include "storage/table_view.h"

namespace fdrepair {

class RowSpan;
class ThreadPool;

/// How (and how long) the Algorithm-1 recursion may execute.
struct OptSRepairExec {
  /// Blocks of a simplification step run on this pool when set (and the
  /// pool has more than one thread). Null: the classic sequential path.
  ThreadPool* pool = nullptr;
  /// A step only fans the blocks it solves out to the pool when their rows
  /// beyond each block's first row number at least this many (see
  /// FansOut). A one-row block ends in O(1) at the singleton shortcut, so
  /// only those extra rows are recursion work worth a worker; tables that
  /// split into ~one-row blocks stay on the calling thread. The blocks a
  /// step solves are all of its blocks, except at a delta splice's depth 0,
  /// where they are only the dirty ones (clean blocks are replayed). Purely
  /// a performance knob — results never depend on it.
  int parallel_cutoff = 2048;
  /// Cooperative deadline, checked at every recursion node. Once passed,
  /// the recursion unwinds with kDeadlineExceeded (all in-flight blocks
  /// still run to their own deadline check; nothing is leaked).
  std::chrono::steady_clock::time_point deadline =
      std::chrono::steady_clock::time_point::max();

  bool has_deadline() const {
    return deadline != std::chrono::steady_clock::time_point::max();
  }

  /// The fan-out rule: whether the blocks a step solves — `num_blocks` of
  /// them, holding `parent_tuples` rows in all — hold enough work to run
  /// on the pool (the pool itself must also have more than one thread).
  bool FansOut(int num_blocks, int parent_tuples) const {
    return num_blocks > 1 && parent_tuples - num_blocks >= parallel_cutoff;
  }
};

// Plan capture & delta splicing — incremental re-repair under mutation.
//
// The recursion's first simplification step decomposes the table into
// independent top-level σ-blocks; an edited tuple only touches the blocks
// sharing its partition-attribute values (§3.2 locality). A capturing run
// records, per top-level block, its TupleId membership sequence, the
// positions it kept, and its repair weight. A delta run is the cold run
// with a base plan in hand: the same depth-0 arm partitions the *mutated*
// table, and its block solve classifies each block clean/dirty against the
// captured plan (SpliceIdTable below: one flat id-indexed table of the
// base blocks' first ids and the in-place-updated ids), replays clean
// blocks' kept positions and weights verbatim and recurses into dirty
// blocks only; the arm's own merge (union / consensus argmax / marriage
// matching) and plan capture then run unchanged over the mixed per-block
// results. A splice reads each row once: one pass per block writes the
// refreshed plan's ids and compares them with the matched base block, a
// clean block's kept positions and weight are copied from the base plan,
// and only a dirty block's rows are mapped back to block-local positions.
// On the 8192-row Office table with 1% of rows edited, ~80% of the 512
// top-level blocks stay clean, so the splice costs the depth-0 grouping
// and one read of every row plus the dirty blocks' recursion.
//
// Bit-identity of the splice with a cold full run rests on two facts:
//   1. a clean block holds the same rows, with the same content, in the
//      same relative order as its base-run counterpart (mutators preserve
//      survivor order; see storage/table.h EraseRow), so the cold
//      recursion on it would retrace the identical expression tree — the
//      captured kept set and weight double ARE the cold run's values;
//   2. the top-level merge consumes only per-block (rows, weight) results
//      in first-appearance block order, so feeding it captured values for
//      clean blocks and freshly recursed values for dirty blocks follows
//      the same reduction a cold run performs.
// Blocks are named by TupleId sequences (never ProjectionKeys or ValueIds,
// which are pool-dependent), so plans survive re-interning and compose
// across chained deltas.

/// The captured top-level structure of one OptSRepairRows run: one flat
/// record (compressed sparse rows — one array per field, with per-block end
/// offsets into it), so a capture costs a handful of allocations whatever
/// the block count. Spliceable only when the first chain step actually
/// decomposed into blocks — trivial ∆, single-row tables and stuck chains
/// are not (callers fall back to a full re-plan, which is cheap in exactly
/// those cases). Plans live in a concurrently-read cache: never mutate a
/// published one.
struct SRepairPlanCache {
  bool spliceable = false;
  /// First chain step's kind when spliceable: kCommonLhs, kConsensus or
  /// kLhsMarriage (determines the merge the splice re-runs).
  SimplificationKind top_kind = SimplificationKind::kStuck;
  /// Every top-level member's TupleId, block-major in first-appearance
  /// partition order, each block in its row order (the clean/dirty name).
  std::vector<TupleId> ids;
  /// Block b's members are ids[block_begin(b), block_ends[b]).
  std::vector<int> block_ends;
  /// Each block's optimal S-repair as *block-local positions* into its ids
  /// rather than TupleIds: a clean block's window holds the same id
  /// sequence in the same order, so replay is a direct window lookup per
  /// position — no per-id hash resolution against the mutated table.
  std::vector<int> kept_pos;
  /// Block b's kept positions are kept_pos[kept_begin(b), kept_ends[b]).
  std::vector<int> kept_ends;
  /// Each block's repair weight exactly as the recursion accumulated it;
  /// bit-exact replay of these doubles is what keeps consensus argmax and
  /// marriage matching identical across splices.
  std::vector<double> weights;

  int num_blocks() const { return static_cast<int>(block_ends.size()); }
  int block_begin(int b) const { return b == 0 ? 0 : block_ends[b - 1]; }
  int kept_begin(int b) const { return b == 0 ? 0 : kept_ends[b - 1]; }
  std::span<const TupleId> block_ids(int b) const {
    return {ids.data() + block_begin(b),
            static_cast<size_t>(block_ends[b] - block_begin(b))};
  }
  std::span<const int> block_kept(int b) const {
    return {kept_pos.data() + kept_begin(b),
            static_cast<size_t>(kept_ends[b] - kept_begin(b))};
  }
};

/// A delta run's one lookup table over its base plan: which base block a
/// block of the mutated table's partition repeats, so the splice replays
/// that block instead of solving it. Indexed by TupleId, each entry says
/// whether the id was updated in place and which base block (if any) it
/// heads; block membership is disjoint, so the first id pins the only
/// candidate. TupleIds are normally minted densely from 1 and never
/// recycled, so one flat array over [0, flat_size) answers both questions
/// with one load per block member. Other ids — too sparse to index
/// cheaply, or negative (a CSV may carry any id) — fall back to binary
/// search over a sorted list.
///
/// Blocks are matched by id sequence, never by projection key: ValueIds are
/// pool-dependent, and the mutation that dirtied a block may have moved its
/// rows to another key. An inserted row carries a never-before-seen id and
/// a deletion changes the survivor sequence, so both fail the match, and an
/// updated id keeps its place in the sequence, so the table flags it. The
/// table borrows `base`, which must outlive it.
class SpliceIdTable {
 public:
  SpliceIdTable(const SRepairPlanCache& base, std::span<const TupleId> updated,
                TupleId flat_size);

  const SRepairPlanCache& base() const { return base_; }

  /// Writes `block`'s ids, in row order, to out[0, block.num_tuples()) and
  /// returns the base block whose id sequence they repeat with no member
  /// updated in place, or -1 (the block must be solved). One pass.
  int MatchBlock(const RowSpan& block, TupleId* out) const;

 private:
  /// Bit 0: `id` was updated in place; bits 1 and up: one plus the base
  /// block `id` heads, or 0.
  uint32_t Entry(TupleId id) const;

  const SRepairPlanCache& base_;
  std::vector<uint32_t> flat_;
  std::vector<std::pair<TupleId, uint32_t>> sparse_;
};

/// Observability of one splice: how much cached work survived.
struct SRepairSpliceStats {
  int blocks_total = 0;
  int blocks_clean = 0;
  int blocks_dirty = 0;
  /// Per block of the mutated table's partition (the refreshed plan's
  /// blocks, in order): the base plan block it replayed, or -1 when the
  /// block was re-solved.
  std::vector<int> base_block;
};

/// Everything one OptSRepairRows run needs beyond (∆, view): execution
/// limits plus the optional delta-splice inputs. One struct, one entry
/// point — cold runs leave the delta fields null, delta runs point them at
/// the captured plan. (The capture *sink* stays a separate parameter: it is
/// an output, and keeping it out of the options keeps `options` const.)
/// SRepairOptions (srepair/planner.h) extends this struct with the
/// planner's route knobs, so these fields are defined here only.
struct OptSRepairRowsOptions {
  OptSRepairExec exec;
  /// Non-null: splice this plan — captured on the PRE-mutation table —
  /// instead of a cold run, re-running the recursion only on blocks
  /// dirtied by the mutation.
  const SRepairPlanCache* delta_base = nullptr;
  /// Delta runs only: tuple ids whose content changed in place
  /// (inserted/deleted rows are detected from the membership sequences
  /// themselves). Null means "no in-place edits".
  const std::vector<TupleId>* delta_updated_ids = nullptr;
  /// Delta runs only (optional): receives clean/dirty block counts.
  SRepairSpliceStats* splice_stats = nullptr;
};

/// Runs Algorithm 1 on a view; returns the dense row positions (into the
/// underlying table) of an optimal S-repair, in increasing order.
///
/// With `capture` non-null, additionally fills it with the run's top-level
/// plan (capture->spliceable tells whether it can seed a delta run).
/// `*capture` is written on success only, and may alias options.delta_base
/// (a splice then refreshes its own base in place). The returned rows are
/// bit-identical to a non-capturing run's — the only behavioral difference
/// is that capture runs (and splices) take the general block path at depth
/// 0 where the plain run may take an all-singleton shortcut (the shortcuts
/// are themselves bit-identical to that path by design).
///
/// With options.delta_base non-null, repairs `view` (the MUTATED table) by
/// splicing the captured plan at depth 0; bit-identical to a cold run on
/// `view` for every thread count, and `capture` then receives the mutated
/// table's refreshed plan — equal to a cold capture's — so delta runs
/// chain.
///
/// Fails with kFailedPrecondition iff OSRSucceeds(∆) is false, or — delta
/// runs only — when the base plan is not spliceable or the table has at
/// most one row (callers fall back to a full re-plan); with kInternal when
/// the base plan's top step does not match ∆'s; with kDeadlineExceeded
/// when exec.deadline expires mid-run.
StatusOr<std::vector<int>> OptSRepairRows(
    const FdSet& fds, const TableView& view,
    const OptSRepairRowsOptions& options = {},
    SRepairPlanCache* capture = nullptr);

/// Convenience: materializes the optimal S-repair of `table` as a Table
/// (identifiers and weights preserved).
StatusOr<Table> OptSRepair(const FdSet& fds, const Table& table);

}  // namespace fdrepair

#endif  // FDREPAIR_SREPAIR_OPT_SREPAIR_H_
