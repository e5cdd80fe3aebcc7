#include "srepair/opt_srepair.h"

#include <algorithm>
#include <optional>
#include <span>
#include <utility>

#include "engine/block_partitioner.h"
#include "engine/thread_pool.h"
#include "graph/bipartite_matching.h"
#include "srepair/osr_succeeds.h"
#include "srepair/simplification.h"
#include "storage/row_span.h"

namespace fdrepair {
namespace {

/// One block's solution: its kept rows and their weight, or a failure.
struct BlockResult {
  std::vector<int> rows;
  double weight = 0;
  Status status;
};

/// Per-thread scratch arena for the recursion: grouping buffers plus a
/// freelist of BlockResult vectors, so steady-state recursion performs no
/// heap allocation beyond amortized capacity growth. thread_local because
/// pool workers (and the calling thread, which helps via ParallelFor) each
/// need their own; no scratch state is live across nested calls, so a
/// thread helping with an unrelated block while blocked in ParallelFor
/// reuses the same arena safely. Leases always release on the acquiring
/// thread, into the scratch they came from (each Recurse frame runs
/// start-to-finish on one thread); neither scratch nor freelists are
/// thread-safe, so never hand a lease to another thread.
///
/// Deliberate trade-off: arenas retain their peak capacity for the
/// thread's lifetime (that retention IS the allocation win on repeated
/// requests), so a long-lived server that once repaired a huge table keeps
/// O(peak rows) ints per worker thread. The freelists themselves stay
/// short — bounded by the recursion depth ever reached on that thread.
struct RecursionScratch {
  GroupScratch groups;
  std::vector<std::vector<BlockResult>> free_results;

  /// A result vector with at least `num_blocks` reset entries. The vector
  /// is never shrunk, so the row buffers of high-index entries keep their
  /// capacity across rounds; callers must only read the first num_blocks.
  std::vector<BlockResult> AcquireResults(int num_blocks) {
    std::vector<BlockResult> results;
    if (!free_results.empty()) {
      results = std::move(free_results.back());
      free_results.pop_back();
    }
    if (static_cast<int>(results.size()) < num_blocks) {
      results.resize(num_blocks);
    }
    for (int b = 0; b < num_blocks; ++b) {
      results[b].rows.clear();
      results[b].weight = 0;
      results[b].status = Status::OK();
    }
    return results;
  }
  void ReleaseResults(std::vector<BlockResult> results) {
    free_results.push_back(std::move(results));
  }
};

RecursionScratch& LocalScratch() {
  thread_local RecursionScratch scratch;
  return scratch;
}

/// RAII arena leases: buffers go back to the freelist on scope exit, so the
/// recursion arms may return early (including through FDR_RETURN_IF_ERROR)
/// without leaking buffers out of the arena. Destruction happens on the
/// thread that acquired, since Recurse runs each node on one thread.
class ScopedIntBuffer {
 public:
  explicit ScopedIntBuffer(GroupScratch* groups)
      : groups_(groups), buffer_(groups->AcquireIntBuffer()) {}
  ~ScopedIntBuffer() { groups_->ReleaseIntBuffer(std::move(buffer_)); }
  ScopedIntBuffer(const ScopedIntBuffer&) = delete;
  ScopedIntBuffer& operator=(const ScopedIntBuffer&) = delete;

  std::vector<int>& operator*() { return buffer_; }
  std::vector<int>* operator->() { return &buffer_; }

 private:
  GroupScratch* groups_;
  std::vector<int> buffer_;
};

class ScopedResults {
 public:
  ScopedResults(RecursionScratch* scratch, int num_blocks)
      : scratch_(scratch), results_(scratch->AcquireResults(num_blocks)) {}
  ~ScopedResults() { scratch_->ReleaseResults(std::move(results_)); }
  ScopedResults(const ScopedResults&) = delete;
  ScopedResults& operator=(const ScopedResults&) = delete;

  std::vector<BlockResult>& operator*() { return results_; }
  BlockResult& operator[](int b) { return results_[b]; }

 private:
  RecursionScratch* scratch_;
  std::vector<BlockResult> results_;
};

/// Membership test for the delta's updated ids, fused into block
/// extraction. TupleIds are normally minted densely from 1 and never
/// recycled, so a flag vector indexed by id answers in one load per block
/// member — the per-member unordered_set probe this replaces was (with
/// id-keyed kept-row resolution) the splice's hottest path. Ids outside
/// [0, flag_cap) — too sparse to flag cheaply, or negative (a CSV may carry
/// any id) — fall back to binary search over a sorted copy.
class UpdatedIdSet {
 public:
  UpdatedIdSet(const std::vector<TupleId>& ids, size_t flag_cap) {
    if (ids.empty()) return;
    const auto [min_id, max_id] = std::minmax_element(ids.begin(), ids.end());
    if (*min_id >= 0 && static_cast<size_t>(*max_id) < flag_cap) {
      flags_.assign(static_cast<size_t>(*max_id) + 1, 0);
      for (TupleId id : ids) flags_[static_cast<size_t>(id)] = 1;
    } else {
      sorted_ = ids;
      std::sort(sorted_.begin(), sorted_.end());
    }
  }

  bool contains(TupleId id) const {
    if (sorted_.empty()) {
      return id >= 0 && static_cast<size_t>(id) < flags_.size() &&
             flags_[static_cast<size_t>(id)] != 0;
    }
    return std::binary_search(sorted_.begin(), sorted_.end(), id);
  }

 private:
  std::vector<unsigned char> flags_;
  std::vector<TupleId> sorted_;
};

/// A delta run's view of its base plan, consulted by the depth-0 step: a
/// block of the mutated table is clean — replayed, not solved — when its
/// membership sequence matches a base block and none of its ids was
/// updated in place.
struct SpliceBase {
  SpliceBase(const SRepairPlanCache& plan, const std::vector<TupleId>& ids,
             int num_tuples, SRepairSpliceStats* stats_sink)
      : base(plan),
        // Flaggable up to a generous multiple of the table size: ids grow
        // by one per insert ever made, so only a table that shrank by
        // orders of magnitude since its ids were minted falls back to
        // binary search.
        updated(ids, static_cast<size_t>(num_tuples) * 16 + 65536),
        stats(stats_sink) {
    for (int m = 0; m < base.num_blocks(); ++m) {
      const std::span<const TupleId> block = base.block_ids(m);
      index.Add(block.data(), static_cast<int>(block.size()));
    }
  }

  /// The base block a clean block replays, or -1 when it must be solved.
  int CleanMatch(std::span<const TupleId> ids) const {
    for (TupleId id : ids) {
      if (updated.contains(id)) return -1;
    }
    return index.Match(ids.data(), static_cast<int>(ids.size()));
  }

  const SRepairPlanCache& base;
  BaseBlockIndex index;
  UpdatedIdSet updated;
  SRepairSpliceStats* stats;
};

/// Everything constant across one OptSRepairRows recursion.
struct RecursionContext {
  const SimplificationChain* chain;
  const OptSRepairExec* exec;
  /// Non-null on a capturing or splicing run: the depth-0 step records its
  /// block structure here in SolveBlocks (and skips the all-singleton
  /// shortcuts so every block actually gets an entry — the shortcuts are
  /// bit-identical to the general path, so results never change). Deeper
  /// levels ignore it.
  SRepairPlanCache* capture = nullptr;
  /// Non-null on a delta run: the depth-0 step replays its clean blocks
  /// from this base instead of solving them.
  const SpliceBase* splice = nullptr;
};

/// Records the top-level membership sequences — called BEFORE the blocks
/// are solved, while each window still holds its rows in partition
/// (original-span) order; child recursions permute their windows in place,
/// and the delta path names blocks by this pre-recursion order. Also fills
/// *pos_of_row (indexed by dense table row) with each row's block-local
/// position, so CaptureBlockResults can translate kept rows to positions
/// without any per-row hashing.
void CaptureBlockIds(SRepairPlanCache* capture, SimplificationKind kind,
                     RowSpan span, const std::vector<int>& group_ends,
                     std::vector<int>* pos_of_row) {
  capture->spliceable = true;
  capture->top_kind = kind;
  capture->ids.resize(span.num_tuples());
  capture->block_ends = group_ends;
  pos_of_row->resize(span.table().num_tuples());
  int begin = 0;
  for (int end : group_ends) {
    for (int i = begin; i < end; ++i) {
      capture->ids[i] = span.id(i);
      (*pos_of_row)[span.row(i)] = i - begin;
    }
    begin = end;
  }
}

/// Records each top-level block's kept positions and weight after the
/// blocks are solved.
void CaptureBlockResults(SRepairPlanCache* capture,
                         const std::vector<int>& pos_of_row,
                         const std::vector<BlockResult>& results) {
  const int num_blocks = capture->num_blocks();
  size_t kept = 0;
  for (int b = 0; b < num_blocks; ++b) kept += results[b].rows.size();
  capture->kept_pos.reserve(kept);
  capture->kept_ends.reserve(num_blocks);
  capture->weights.reserve(num_blocks);
  for (int b = 0; b < num_blocks; ++b) {
    for (int row : results[b].rows) {
      capture->kept_pos.push_back(pos_of_row[row]);
    }
    capture->kept_ends.push_back(static_cast<int>(capture->kept_pos.size()));
    capture->weights.push_back(results[b].weight);
  }
}

Status Recurse(const RecursionContext& ctx, int depth, RowSpan span,
               std::vector<int>* kept, double* kept_weight);

/// The sub-window of `span` holding block b of a grouping with the given
/// end offsets.
RowSpan BlockSpan(RowSpan span, const std::vector<int>& group_ends, int b) {
  const int begin = b == 0 ? 0 : group_ends[b - 1];
  return span.Subspan(begin, group_ends[b] - begin);
}

// Solves every block of the step at `depth` (the `kind` partition of
// `span` with the given end offsets) at depth + 1 into block-local
// accumulators — sequentially, or on exec.pool when the blocks it solves
// hold enough work to amortize the fan-out (OptSRepairExec::FansOut). A
// capturing or splicing run's depth-0 step also records the top-level plan
// around the solve, and a splice replays each clean block's kept positions
// and weight from its base plan — the values a cold recursion on the
// identical block would recompute — so only dirty blocks are solved.
// Returns the first failing block's status in block order; on success
// `results` holds one entry per block. Callers merge in block order, so
// the reduction (including floating-point weight sums) is the same
// expression tree for every thread count, and for a splice as for a cold
// run.
//
// The sequential path deliberately buffers per block too (instead of
// appending straight into the caller's accumulators, as the pre-engine
// code did): appending directly would sum weights leaf-by-leaf across
// block boundaries, a *different* floating-point expression tree than the
// partial-sums-then-merge shape of the parallel path, and the
// bit-identical-across-thread-counts guarantee would be lost on weight
// ties. The cost is one extra append of each kept row per recursion level.
//
// Blocks are disjoint sub-windows of one shared row-index buffer: child
// recursions permute only their own window, so concurrent blocks never
// touch the same buffer element.
Status SolveBlocks(const RecursionContext& ctx, int depth,
                   SimplificationKind kind, RowSpan span,
                   const std::vector<int>& group_ends,
                   std::vector<BlockResult>* results) {
  const int num_blocks = static_cast<int>(group_ends.size());
  SRepairPlanCache* capture = depth == 0 ? ctx.capture : nullptr;
  const SpliceBase* splice = depth == 0 ? ctx.splice : nullptr;
  std::vector<int> pos_of_row;
  if (capture != nullptr) {
    CaptureBlockIds(capture, kind, span, group_ends, &pos_of_row);
  }
  // The blocks this step solves: all of them, or a splice's dirty ones
  // (listed only on a splice, so the cold path allocates nothing here).
  std::vector<int> dirty;
  int solved_rows = span.num_tuples();
  if (splice != nullptr) {
    std::vector<int> base_block(num_blocks, -1);
    solved_rows = 0;
    for (int b = 0; b < num_blocks; ++b) {
      const RowSpan block = BlockSpan(span, group_ends, b);
      const int m = splice->CleanMatch(capture->block_ids(b));
      base_block[b] = m;
      if (m < 0) {
        dirty.push_back(b);
        solved_rows += block.num_tuples();
        continue;
      }
      BlockResult& result = (*results)[b];
      const std::span<const int> kept = splice->base.block_kept(m);
      result.rows.reserve(kept.size());
      for (int p : kept) result.rows.push_back(block.row(p));
      result.weight = splice->base.weights[m];
    }
    if (splice->stats != nullptr) {
      splice->stats->blocks_total = num_blocks;
      splice->stats->blocks_dirty = static_cast<int>(dirty.size());
      splice->stats->blocks_clean = num_blocks - splice->stats->blocks_dirty;
      splice->stats->base_block = std::move(base_block);
    }
  }
  const int num_solved =
      splice != nullptr ? static_cast<int>(dirty.size()) : num_blocks;
  auto block_of = [&](int i) { return splice != nullptr ? dirty[i] : i; };
  auto solve_one = [&](int i) {
    const int b = block_of(i);
    BlockResult& result = (*results)[b];
    result.status = Recurse(ctx, depth + 1, BlockSpan(span, group_ends, b),
                            &result.rows, &result.weight);
  };
  const OptSRepairExec& exec = *ctx.exec;
  const bool parallel = exec.pool != nullptr && exec.pool->num_threads() > 1 &&
                        exec.FansOut(num_solved, solved_rows);
  if (parallel) exec.pool->ParallelFor(num_solved, solve_one);
  for (int i = 0; i < num_solved; ++i) {
    if (!parallel) solve_one(i);
    FDR_RETURN_IF_ERROR((*results)[block_of(i)].status);
  }
  if (capture != nullptr) CaptureBlockResults(capture, pos_of_row, *results);
  return Status::OK();
}

// Recursive body of Algorithm 1 over the chain step at `depth`. Appends the
// kept dense row positions to `kept` and adds their total weight to
// `kept_weight`. May permute `span`'s window (block formation), but blocks
// and their recursive repairs are independent of row order within a window.
Status Recurse(const RecursionContext& ctx, int depth, RowSpan span,
               std::vector<int>* kept, double* kept_weight) {
  if (span.empty()) return Status::OK();
  const OptSRepairExec& exec = *ctx.exec;
  if (exec.has_deadline() &&
      std::chrono::steady_clock::now() >= exec.deadline) {
    return Status::DeadlineExceeded(
        "OptSRepair deadline expired mid-recursion");
  }

  const SimplificationStep& step = ctx.chain->at(depth);
  if (span.num_tuples() == 1 && step.kind != SimplificationKind::kStuck) {
    // A single tuple cannot violate any FD, so it is its own optimal
    // S-repair under every simplifiable ∆ — no need to walk the rest of
    // the chain one singleton block per level. This keeps the recursion's
    // call count proportional to the number of non-trivial blocks (the
    // deep-chain profile was dominated by singleton-span bookkeeping).
    // Bit-identical to the full walk: the same row is kept, and its weight
    // reaches the accumulator as the same single term.
    kept->push_back(span.row(0));
    *kept_weight += span.weight(0);
    return Status::OK();
  }
  switch (step.kind) {
    case SimplificationKind::kTrivialTermination: {
      // Line 2: ∆ trivial — T is its own optimal S-repair.
      for (int i = 0; i < span.num_tuples(); ++i) {
        kept->push_back(span.row(i));
        *kept_weight += span.weight(i);
      }
      return Status::OK();
    }
    case SimplificationKind::kCommonLhs: {
      // Subroutine 1: group by the common lhs attribute and take the union
      // of the groups' optimal S-repairs under ∆ − A. Tuples in different
      // groups disagree on A ∈ lhs of every FD, so the union is consistent.
      RecursionScratch& scratch = LocalScratch();
      ScopedIntBuffer group_ends(&scratch.groups);
      scratch.groups.GroupInPlace(span, step.removed, &*group_ends);
      const int num_blocks = static_cast<int>(group_ends->size());
      if (num_blocks == span.num_tuples() &&
          (depth > 0 || ctx.capture == nullptr)) {
        // Every block is a single tuple, and a single tuple is always its
        // own optimal S-repair — the union keeps everything. Same rows and
        // the same left-to-right weight sum as the block-by-block merge.
        for (int i = 0; i < span.num_tuples(); ++i) {
          kept->push_back(span.row(i));
          *kept_weight += span.weight(i);
        }
        return Status::OK();
      }
      ScopedResults results(&scratch, num_blocks);
      FDR_RETURN_IF_ERROR(SolveBlocks(ctx, depth, step.kind, span, *group_ends,
                                      &*results));
      for (int b = 0; b < num_blocks; ++b) {
        kept->insert(kept->end(), results[b].rows.begin(),
                     results[b].rows.end());
        *kept_weight += results[b].weight;
      }
      return Status::OK();
    }
    case SimplificationKind::kConsensus: {
      // Subroutine 2: all surviving tuples must agree on A, so solve each
      // A-group independently and keep only the heaviest repair.
      RecursionScratch& scratch = LocalScratch();
      ScopedIntBuffer group_ends(&scratch.groups);
      scratch.groups.GroupInPlace(span, step.removed, &*group_ends);
      const int num_blocks = static_cast<int>(group_ends->size());
      if (num_blocks == span.num_tuples() &&
          (depth > 0 || ctx.capture == nullptr)) {
        // All blocks are single tuples: the consensus repair is the
        // heaviest tuple, first in span order on ties — exactly what the
        // block merge below computes via `>` against the running best.
        int best = 0;
        for (int i = 1; i < span.num_tuples(); ++i) {
          if (span.weight(i) > span.weight(best)) best = i;
        }
        kept->push_back(span.row(best));
        *kept_weight += span.weight(best);
        return Status::OK();
      }
      ScopedResults results(&scratch, num_blocks);
      FDR_RETURN_IF_ERROR(SolveBlocks(ctx, depth, step.kind, span, *group_ends,
                                      &*results));
      const BlockResult* best = nullptr;
      for (int b = 0; b < num_blocks; ++b) {
        if (best == nullptr || results[b].weight > best->weight) {
          best = &results[b];
        }
      }
      if (best != nullptr && best->weight > 0) {
        kept->insert(kept->end(), best->rows.begin(), best->rows.end());
        *kept_weight += best->weight;
      }
      return Status::OK();
    }
    case SimplificationKind::kLhsMarriage: {
      // Subroutine 3. Blocks are the distinct (a1, a2) ∈ π_{X1X2}T; each
      // solved under ∆ − X1X2. A consistent subset may keep, for any X1
      // value, tuples of at most one X2 value and vice versa (cl(X1) =
      // cl(X2) ⊇ X1X2), so block selection is a bipartite matching between
      // π_X1 T and π_X2 T, maximizing kept weight.
      RecursionScratch& scratch = LocalScratch();
      ScopedIntBuffer group_ends(&scratch.groups);
      ScopedIntBuffer left(&scratch.groups);
      ScopedIntBuffer right(&scratch.groups);
      int num_left = 0;
      int num_right = 0;
      PartitionSpanForMarriage(span, step.marriage_x1, step.marriage_x2,
                               &scratch.groups, &*group_ends, &*left, &*right,
                               &num_left, &num_right);
      const int num_blocks = static_cast<int>(group_ends->size());
      ScopedResults results(&scratch, num_blocks);
      FDR_RETURN_IF_ERROR(SolveBlocks(ctx, depth, step.kind, span, *group_ends,
                                      &*results));
      std::vector<BipartiteEdge> edges;
      edges.reserve(num_blocks);
      for (int b = 0; b < num_blocks; ++b) {
        edges.push_back(
            BipartiteEdge{(*left)[b], (*right)[b], results[b].weight});
      }
      // Edge b is block b, so the chosen edge indices are the kept blocks.
      MatchingResult matching =
          MaxWeightBipartiteMatching(num_left, num_right, edges);
      for (int b : matching.edge_indices) {
        const BlockResult& result = results[b];
        kept->insert(kept->end(), result.rows.begin(), result.rows.end());
        *kept_weight += result.weight;
      }
      return Status::OK();
    }
    case SimplificationKind::kStuck: {
      return Status::FailedPrecondition(
          "OptSRepair fails: FD set is not simplifiable (computing an "
          "optimal S-repair is APX-complete for it): " +
          step.before.ToString());
    }
  }
  return Status::Internal("unreachable simplification kind");
}

}  // namespace

StatusOr<std::vector<int>> OptSRepairRows(const FdSet& fds,
                                          const TableView& view,
                                          const OptSRepairRowsOptions& options,
                                          SRepairPlanCache* capture) {
  const SRepairPlanCache* base = options.delta_base;
  if (base != nullptr && !base->spliceable) {
    return Status::FailedPrecondition(
        "delta splice: base plan is not spliceable (the base run never "
        "decomposed into blocks) — fall back to a full re-plan");
  }
  // §3.2: "the success or failure of OptSRepair(∆, T) depends only on ∆,
  // and not on T" — enforce that by running Algorithm 2 up front, so small
  // or empty tables cannot mask a non-simplifiable ∆.
  if (!OsrSucceeds(fds)) {
    return Status::FailedPrecondition(
        "OptSRepair fails: OSRSucceeds is false for ∆ = " + fds.ToString() +
        " (computing an optimal S-repair is APX-complete; Theorem 3.4)");
  }
  // The chain depends only on ∆ (§3.2): compute it once and let every
  // block at depth d share the step, instead of re-simplifying per block.
  SimplificationChain chain = SimplificationChain::Compute(fds);
  std::optional<SpliceBase> splice;
  if (base != nullptr) {
    if (chain.at(0).kind != base->top_kind) {
      return Status::Internal(
          "delta splice: base plan's top step does not match ∆'s first "
          "simplification — the plan was captured under a different FD set");
    }
    if (view.num_tuples() <= 1) {
      // The cold run would take the singleton/empty shortcut and never
      // form blocks; a full re-plan is cheaper than any splice bookkeeping.
      return Status::FailedPrecondition(
          "delta splice: mutated table too small to splice");
    }
    static const std::vector<TupleId> kNoUpdatedIds;
    splice.emplace(*base,
                   options.delta_updated_ids != nullptr
                       ? *options.delta_updated_ids
                       : kNoUpdatedIds,
                   view.num_tuples(), options.splice_stats);
  }
  // The single shared row-index buffer: the recursion permutes it in place
  // and hands disjoint sub-windows to child blocks (concurrent blocks touch
  // disjoint ranges), so no level materializes per-block index vectors.
  std::vector<int> buffer = view.rows();
  std::vector<int> kept;
  double kept_weight = 0;
  // Built locally and published only on success: `capture` may alias
  // `base`, which the depth-0 step reads. On the paths that never decompose
  // (trivial ∆, single-row or empty table) it stays non-spliceable and
  // delta callers fall back.
  SRepairPlanCache plan;
  RecursionContext ctx{&chain, &options.exec,
                       capture != nullptr || base != nullptr ? &plan : nullptr,
                       splice ? &*splice : nullptr};
  FDR_RETURN_IF_ERROR(
      Recurse(ctx, 0,
              RowSpan(view.table(), buffer.data(),
                      static_cast<int>(buffer.size())),
              &kept, &kept_weight));
  if (capture != nullptr) *capture = std::move(plan);
  std::sort(kept.begin(), kept.end());
  return kept;
}

StatusOr<Table> OptSRepair(const FdSet& fds, const Table& table) {
  FDR_ASSIGN_OR_RETURN(std::vector<int> rows,
                       OptSRepairRows(fds, TableView(table)));
  return table.SubsetByRows(rows);
}

}  // namespace fdrepair
