#include "srepair/opt_srepair.h"

#include <algorithm>
#include <memory>
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

/// Everything constant across one OptSRepairRows recursion.
struct RecursionContext {
  const SimplificationChain* chain;
  const OptSRepairExec* exec;
  /// Non-null on a capturing run: the depth-0 arm records its block
  /// structure here (and skips the all-singleton shortcuts so every block
  /// actually gets an entry — the shortcuts are bit-identical to the
  /// general path, so results never change). Deeper levels ignore it.
  SRepairPlanCache* capture = nullptr;
};

/// Records the top-level membership sequences — called BEFORE SolveBlocks,
/// while each window still holds its rows in partition (original-span)
/// order; child recursions permute their windows in place, and the delta
/// path names blocks by this pre-recursion order. Also fills *pos_of_row
/// (indexed by dense table row) with each row's block-local position, so
/// CaptureBlockResults can translate kept rows to positions without any
/// per-row hashing.
void CaptureBlockIds(SRepairPlanCache* capture, SimplificationKind kind,
                     RowSpan span, const std::vector<int>& group_ends,
                     std::vector<int>* pos_of_row) {
  const int num_blocks = static_cast<int>(group_ends.size());
  capture->spliceable = true;
  capture->top_kind = kind;
  capture->blocks.clear();
  capture->blocks.reserve(num_blocks);
  pos_of_row->resize(span.table().num_tuples());
  for (int b = 0; b < num_blocks; ++b) {
    const int begin = b == 0 ? 0 : group_ends[b - 1];
    SRepairBlockRecipe& recipe =
        *capture->blocks.emplace_back(std::make_shared<SRepairBlockRecipe>());
    recipe.ids.reserve(group_ends[b] - begin);
    for (int i = begin; i < group_ends[b]; ++i) {
      recipe.ids.push_back(span.id(i));
      (*pos_of_row)[span.row(i)] = i - begin;
    }
  }
}

/// Records each top-level block's kept positions and weight after
/// SolveBlocks (`pos_of_row` is CaptureBlockIds' row → block-local
/// position translation).
void CaptureBlockResults(SRepairPlanCache* capture,
                         const std::vector<int>& pos_of_row,
                         const std::vector<BlockResult>& results) {
  for (size_t b = 0; b < capture->blocks.size(); ++b) {
    SRepairBlockRecipe& recipe = *capture->blocks[b];
    recipe.kept_pos.reserve(results[b].rows.size());
    for (int row : results[b].rows) recipe.kept_pos.push_back(pos_of_row[row]);
    recipe.weight = results[b].weight;
  }
}

/// Membership test for the delta's updated ids, fused into block
/// extraction. TupleIds are assigned densely from 1 and never recycled, so
/// a flag vector indexed by id answers in one load per block member — the
/// per-member unordered_set probe this replaces was (with id-keyed kept-row
/// resolution) the splice's hottest path. Ids too sparse to flag cheaply
/// fall back to binary search over a sorted copy.
class UpdatedIdSet {
 public:
  UpdatedIdSet(const std::vector<TupleId>& ids, size_t flag_cap) {
    TupleId max_id = 0;
    for (TupleId id : ids) max_id = std::max(max_id, id);
    if (static_cast<size_t>(max_id) < flag_cap) {
      flags_.assign(static_cast<size_t>(max_id) + 1, 0);
      for (TupleId id : ids) flags_[static_cast<size_t>(id)] = 1;
    } else {
      sorted_ = ids;
      std::sort(sorted_.begin(), sorted_.end());
    }
  }

  bool contains(TupleId id) const {
    if (!flags_.empty()) {
      return static_cast<size_t>(id) < flags_.size() &&
             flags_[static_cast<size_t>(id)] != 0;
    }
    return std::binary_search(sorted_.begin(), sorted_.end(), id);
  }

 private:
  std::vector<unsigned char> flags_;
  std::vector<TupleId> sorted_;
};

Status Recurse(const RecursionContext& ctx, int depth, RowSpan span,
               std::vector<int>* kept, double* kept_weight);

// Solves every block sub-span at chain depth `depth` into block-local
// accumulators — sequentially, or on exec.pool when the parent span is
// large enough to amortize the fan-out. Returns the first failing block's
// status in block order; on success `results` holds one entry per block.
// Callers merge in block order, so the reduction (including floating-point
// weight sums) is the same expression tree for every thread count.
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
template <typename BlockSpanFn>
Status SolveBlocks(const RecursionContext& ctx, int depth, int num_blocks,
                   const BlockSpanFn& block_span, int parent_tuples,
                   std::vector<BlockResult>* results) {
  auto solve_one = [&](int b) {
    BlockResult& result = (*results)[b];
    result.status =
        Recurse(ctx, depth, block_span(b), &result.rows, &result.weight);
  };
  const OptSRepairExec& exec = *ctx.exec;
  const bool parallel = exec.pool != nullptr && exec.pool->num_threads() > 1 &&
                        num_blocks > 1 &&
                        parent_tuples >= exec.parallel_cutoff;
  if (parallel) {
    exec.pool->ParallelFor(num_blocks, solve_one);
    for (int b = 0; b < num_blocks; ++b) {
      FDR_RETURN_IF_ERROR((*results)[b].status);
    }
  } else {
    for (int b = 0; b < num_blocks; ++b) {
      solve_one(b);
      FDR_RETURN_IF_ERROR((*results)[b].status);
    }
  }
  return Status::OK();
}

/// The sub-window of `span` holding block b of a grouping with the given
/// end offsets.
RowSpan BlockSpan(RowSpan span, const std::vector<int>& group_ends, int b) {
  const int begin = b == 0 ? 0 : group_ends[b - 1];
  return span.Subspan(begin, group_ends[b] - begin);
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
      PartitionSpanByAttrs(span, step.removed, &scratch.groups, &*group_ends);
      const int num_blocks = static_cast<int>(group_ends->size());
      const bool capturing = depth == 0 && ctx.capture != nullptr;
      if (num_blocks == span.num_tuples() && !capturing) {
        // Every block is a single tuple, and a single tuple is always its
        // own optimal S-repair — the union keeps everything. Same rows and
        // the same left-to-right weight sum as the block-by-block merge.
        for (int i = 0; i < span.num_tuples(); ++i) {
          kept->push_back(span.row(i));
          *kept_weight += span.weight(i);
        }
        return Status::OK();
      }
      std::vector<int> capture_pos;
      if (capturing) {
        CaptureBlockIds(ctx.capture, step.kind, span, *group_ends,
                        &capture_pos);
      }
      ScopedResults results(&scratch, num_blocks);
      FDR_RETURN_IF_ERROR(SolveBlocks(
          ctx, depth + 1, num_blocks,
          [&](int b) { return BlockSpan(span, *group_ends, b); },
          span.num_tuples(), &*results));
      if (capturing) {
        CaptureBlockResults(ctx.capture, capture_pos, *results);
      }
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
      PartitionSpanByAttrs(span, step.removed, &scratch.groups, &*group_ends);
      const int num_blocks = static_cast<int>(group_ends->size());
      const bool capturing = depth == 0 && ctx.capture != nullptr;
      if (num_blocks == span.num_tuples() && !capturing) {
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
      std::vector<int> capture_pos;
      if (capturing) {
        CaptureBlockIds(ctx.capture, step.kind, span, *group_ends,
                        &capture_pos);
      }
      ScopedResults results(&scratch, num_blocks);
      FDR_RETURN_IF_ERROR(SolveBlocks(
          ctx, depth + 1, num_blocks,
          [&](int b) { return BlockSpan(span, *group_ends, b); },
          span.num_tuples(), &*results));
      if (capturing) {
        CaptureBlockResults(ctx.capture, capture_pos, *results);
      }
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
      const bool capturing = depth == 0 && ctx.capture != nullptr;
      std::vector<int> capture_pos;
      if (capturing) {
        CaptureBlockIds(ctx.capture, step.kind, span, *group_ends,
                        &capture_pos);
      }
      ScopedResults results(&scratch, num_blocks);
      FDR_RETURN_IF_ERROR(SolveBlocks(
          ctx, depth + 1, num_blocks,
          [&](int b) { return BlockSpan(span, *group_ends, b); },
          span.num_tuples(), &*results));
      if (capturing) {
        CaptureBlockResults(ctx.capture, capture_pos, *results);
      }
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

StatusOr<std::vector<int>> RunRows(const FdSet& fds, const TableView& view,
                                   const OptSRepairExec& exec,
                                   SRepairPlanCache* capture) {
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
  // The single shared row-index buffer: the recursion permutes it in place
  // and hands disjoint sub-windows to child blocks (concurrent blocks touch
  // disjoint ranges), so no level materializes per-block index vectors.
  std::vector<int> buffer = view.rows();
  std::vector<int> kept;
  double kept_weight = 0;
  RecursionContext ctx{&chain, &exec, capture};
  FDR_RETURN_IF_ERROR(
      Recurse(ctx, 0,
              RowSpan(view.table(), buffer.data(),
                      static_cast<int>(buffer.size())),
              &kept, &kept_weight));
  std::sort(kept.begin(), kept.end());
  return kept;
}

/// The delta-splice path of the canonical OptSRepairRows (see the header
/// comment there for the contract).
StatusOr<std::vector<int>> DeltaRows(
    const FdSet& fds, const TableView& view, const OptSRepairExec& exec,
    const SRepairPlanCache& base, const std::vector<TupleId>& updated_ids,
    SRepairPlanCache* capture, SRepairSpliceStats* stats) {
  if (!base.spliceable) {
    return Status::FailedPrecondition(
        "delta splice: base plan is not spliceable (the base run never "
        "decomposed into blocks) — fall back to a full re-plan");
  }
  if (!OsrSucceeds(fds)) {
    return Status::FailedPrecondition(
        "OptSRepair fails: OSRSucceeds is false for ∆ = " + fds.ToString() +
        " (computing an optimal S-repair is APX-complete; Theorem 3.4)");
  }
  SimplificationChain chain = SimplificationChain::Compute(fds);
  const SimplificationStep& step = chain.at(0);
  if (step.kind != base.top_kind) {
    return Status::Internal(
        "delta splice: base plan's top step does not match ∆'s first "
        "simplification — the plan was captured under a different FD set");
  }
  if (view.num_tuples() <= 1) {
    // The cold run would take the singleton/empty shortcut and never form
    // blocks; a full re-plan is cheaper than any splice bookkeeping.
    return Status::FailedPrecondition(
        "delta splice: mutated table too small to splice");
  }

  const Table& table = view.table();
  std::vector<int> buffer = view.rows();
  RowSpan span(table, buffer.data(), static_cast<int>(buffer.size()));
  RecursionContext ctx{&chain, &exec, nullptr};
  RecursionScratch& scratch = LocalScratch();

  // Partition the mutated table exactly as a cold run's depth-0 arm would.
  ScopedIntBuffer group_ends(&scratch.groups);
  ScopedIntBuffer left(&scratch.groups);
  ScopedIntBuffer right(&scratch.groups);
  int num_left = 0;
  int num_right = 0;
  if (step.kind == SimplificationKind::kLhsMarriage) {
    PartitionSpanForMarriage(span, step.marriage_x1, step.marriage_x2,
                             &scratch.groups, &*group_ends, &*left, &*right,
                             &num_left, &num_right);
  } else {
    PartitionSpanByAttrs(span, step.removed, &scratch.groups, &*group_ends);
  }
  const int num_blocks = static_cast<int>(group_ends->size());

  BaseBlockIndex index;
  for (const auto& recipe : base.blocks) index.Add(recipe->ids);
  // Flaggable up to a generous multiple of the table size: ids grow by one
  // per insert ever made, so only a table that shrank by orders of
  // magnitude since its ids were minted falls back to binary search.
  const UpdatedIdSet updated(
      updated_ids, static_cast<size_t>(view.num_tuples()) * 16 + 65536);

  // One pass per block, while its window still holds partition order
  // (dirty blocks' child recursions permute their windows in place, but
  // windows are disjoint — later blocks are unaffected):
  //   1. extract the membership sequence into a reused scratch buffer and
  //      test each member against the updated-id set as it streams by;
  //   2. clean (undirtied + structurally matched) blocks replay their
  //      captured kept positions straight off the window — the values a
  //      cold recursion on the identical block would recompute;
  //   3. dirty blocks re-run the span recursion at depth 1, exactly as
  //      SolveBlocks would have from a cold depth-0 arm (keeping their id
  //      sequence only when a refreshed capture needs it).
  ScopedResults results(&scratch, num_blocks);
  std::vector<std::vector<TupleId>> ids_of_block(
      capture != nullptr ? num_blocks : 0);
  // Refresh-only row → block-local position translation (a dirty block's
  // window is permuted by its recursion, so positions must be recorded
  // here, pre-recursion). A flat array over table rows, shared by every
  // block — no per-block hashing.
  std::vector<int> pos_of_row(capture != nullptr ? table.num_tuples() : 0);
  std::vector<int> base_of_block(num_blocks, -1);
  std::vector<TupleId> ids_scratch;
  int blocks_clean = 0;
  for (int b = 0; b < num_blocks; ++b) {
    RowSpan block = BlockSpan(span, *group_ends, b);
    ids_scratch.clear();
    bool dirtied = false;
    for (int i = 0; i < block.num_tuples(); ++i) {
      const TupleId id = block.id(i);
      ids_scratch.push_back(id);
      if (updated.contains(id)) dirtied = true;
      if (capture != nullptr) pos_of_row[block.row(i)] = i;
    }
    const int m =
        dirtied ? -1
                : index.Match(ids_scratch.data(),
                              static_cast<int>(ids_scratch.size()));
    base_of_block[b] = m;
    BlockResult& result = results[b];
    if (m >= 0) {
      ++blocks_clean;
      const SRepairBlockRecipe& recipe = *base.blocks[m];
      result.rows.reserve(recipe.kept_pos.size());
      for (int p : recipe.kept_pos) result.rows.push_back(block.row(p));
      result.weight = recipe.weight;
    } else {
      if (capture != nullptr) ids_of_block[b] = ids_scratch;
      FDR_RETURN_IF_ERROR(
          Recurse(ctx, 1, block, &result.rows, &result.weight));
    }
  }

  // Re-run the top-level merge over the mixed per-block results — the same
  // reduction, in the same first-appearance block order, as the cold arms.
  std::vector<int> kept;
  switch (step.kind) {
    case SimplificationKind::kCommonLhs: {
      for (int b = 0; b < num_blocks; ++b) {
        kept.insert(kept.end(), results[b].rows.begin(),
                    results[b].rows.end());
      }
      break;
    }
    case SimplificationKind::kConsensus: {
      const BlockResult* best = nullptr;
      for (int b = 0; b < num_blocks; ++b) {
        if (best == nullptr || results[b].weight > best->weight) {
          best = &results[b];
        }
      }
      if (best != nullptr && best->weight > 0) {
        kept.insert(kept.end(), best->rows.begin(), best->rows.end());
      }
      break;
    }
    case SimplificationKind::kLhsMarriage: {
      std::vector<BipartiteEdge> edges;
      edges.reserve(num_blocks);
      for (int b = 0; b < num_blocks; ++b) {
        edges.push_back(
            BipartiteEdge{(*left)[b], (*right)[b], results[b].weight});
      }
      MatchingResult matching =
          MaxWeightBipartiteMatching(num_left, num_right, edges);
      for (int b : matching.edge_indices) {
        kept.insert(kept.end(), results[b].rows.begin(),
                    results[b].rows.end());
      }
      break;
    }
    default:
      return Status::Internal("delta splice: unreachable top step kind");
  }

  if (capture != nullptr) {
    // Build the refreshed plan before touching *capture — callers may pass
    // capture == &base to refresh a plan in place. Clean blocks alias the
    // base plan's (immutable) recipes, so the refresh allocates only for
    // the dirty set.
    std::vector<std::shared_ptr<SRepairBlockRecipe>> blocks(num_blocks);
    for (int b = 0; b < num_blocks; ++b) {
      const int m = base_of_block[b];
      if (m >= 0) {
        blocks[b] = base.blocks[m];
        continue;
      }
      auto fresh = std::make_shared<SRepairBlockRecipe>();
      SRepairBlockRecipe& recipe = *fresh;
      recipe.ids = std::move(ids_of_block[b]);
      recipe.kept_pos.reserve(results[b].rows.size());
      for (int row : results[b].rows) {
        recipe.kept_pos.push_back(pos_of_row[row]);
      }
      recipe.weight = results[b].weight;
      blocks[b] = std::move(fresh);
    }
    capture->spliceable = true;
    capture->top_kind = step.kind;
    capture->blocks = std::move(blocks);
  }
  if (stats != nullptr) {
    stats->blocks_total = num_blocks;
    stats->blocks_clean = blocks_clean;
    stats->blocks_dirty = num_blocks - blocks_clean;
  }

  std::sort(kept.begin(), kept.end());
  return kept;
}

}  // namespace

StatusOr<std::vector<int>> OptSRepairRows(const FdSet& fds,
                                          const TableView& view,
                                          const OptSRepairRowsOptions& options,
                                          SRepairPlanCache* capture) {
  if (options.delta_base != nullptr) {
    static const std::vector<TupleId> kNoUpdatedIds;
    const std::vector<TupleId>& updated = options.delta_updated_ids != nullptr
                                              ? *options.delta_updated_ids
                                              : kNoUpdatedIds;
    return DeltaRows(fds, view, options.exec, *options.delta_base, updated,
                     capture, options.splice_stats);
  }
  if (capture == nullptr) return RunRows(fds, view, options.exec, nullptr);
  // A fresh capture every run: on success the depth-0 arm filled it in; on
  // the paths that never decompose (trivial ∆, single-row or empty table,
  // errors) it stays non-spliceable and delta callers fall back.
  capture->spliceable = false;
  capture->top_kind = SimplificationKind::kStuck;
  capture->blocks.clear();
  return RunRows(fds, view, options.exec, capture);
}

StatusOr<std::vector<int>> OptSRepairRows(const FdSet& fds,
                                          const TableView& view,
                                          const OptSRepairExec& exec) {
  OptSRepairRowsOptions options;
  options.exec = exec;
  return OptSRepairRows(fds, view, options);
}

StatusOr<std::vector<int>> OptSRepairRows(const FdSet& fds,
                                          const TableView& view,
                                          const OptSRepairExec& exec,
                                          SRepairPlanCache* capture) {
  OptSRepairRowsOptions options;
  options.exec = exec;
  return OptSRepairRows(fds, view, options, capture);
}

StatusOr<std::vector<int>> OptSRepairRowsDelta(
    const FdSet& fds, const TableView& view, const OptSRepairExec& exec,
    const SRepairPlanCache& base, const std::vector<TupleId>& updated_ids,
    SRepairPlanCache* capture, SRepairSpliceStats* stats) {
  OptSRepairRowsOptions options;
  options.exec = exec;
  options.delta_base = &base;
  options.delta_updated_ids = &updated_ids;
  options.splice_stats = stats;
  return OptSRepairRows(fds, view, options, capture);
}

StatusOr<Table> OptSRepair(const FdSet& fds, const Table& table,
                           const OptSRepairExec& exec) {
  FDR_ASSIGN_OR_RETURN(std::vector<int> rows,
                       OptSRepairRows(fds, TableView(table), exec));
  return table.SubsetByRows(rows);
}

StatusOr<Table> OptSRepair(const FdSet& fds, const Table& table) {
  return OptSRepair(fds, table, OptSRepairExec{});
}

}  // namespace fdrepair
