// The span-based OptSRepair recursion core, cross-checked three ways:
//
//   1. bit-identical kept-row sets against a reference implementation that
//      reproduces the pre-span recursion exactly (materializing GroupBy /
//      PartitionForMarriage blocks, NextSimplification per node, block-local
//      accumulation merged in first-appearance order);
//   2. bit-identical across thread counts 1 / 2 / 8 with the fan-out
//      cutoff forced to 1, so the shared row buffer is exercised by
//      concurrent block recursions at every step that has a multi-row
//      block (the small random domains below make such blocks common);
//   3. optimal against brute-force OptSRepairExact on small random
//      instances.
//
// The seeded random sweep runs every tractable named FD set, which covers
// all three subroutines (common lhs, consensus, lhs marriage — including
// the multi-attribute marriage of Example 3.1) plus their compositions.

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "common/random.h"
#include "common/simd.h"
#include "engine/thread_pool.h"
#include "graph/bipartite_matching.h"
#include "oracles/block_partition.h"
#include "srepair/opt_srepair.h"
#include "srepair/osr_succeeds.h"
#include "srepair/simplification.h"
#include "srepair/srepair_exact.h"
#include "storage/consistency.h"
#include "storage/distance.h"
#include "storage/row_span.h"
#include "workloads/example_fdsets.h"
#include "workloads/generators.h"

namespace fdrepair {
namespace {

// --- Reference implementation: the pre-span recursion, verbatim in
// structure (one materialized index vector per block per level, one
// NextSimplification call per node, sequential). Kept as the permanent
// executable specification of the recursion's output.

Status ReferenceRecurse(const FdSet& fds, const TableView& view,
                        std::vector<int>* kept, double* kept_weight) {
  if (view.empty()) return Status::OK();
  SimplificationStep step = NextSimplification(fds);
  switch (step.kind) {
    case SimplificationKind::kTrivialTermination: {
      for (int i = 0; i < view.num_tuples(); ++i) {
        kept->push_back(view.row(i));
        *kept_weight += view.weight(i);
      }
      return Status::OK();
    }
    case SimplificationKind::kCommonLhs: {
      for (const TableView& block : view.GroupBy(step.removed)) {
        std::vector<int> rows;
        double weight = 0;
        FDR_RETURN_IF_ERROR(
            ReferenceRecurse(step.after, block, &rows, &weight));
        kept->insert(kept->end(), rows.begin(), rows.end());
        *kept_weight += weight;
      }
      return Status::OK();
    }
    case SimplificationKind::kConsensus: {
      std::vector<std::vector<int>> rows;
      std::vector<double> weights;
      for (const TableView& block : view.GroupBy(step.removed)) {
        std::vector<int> block_rows;
        double weight = 0;
        FDR_RETURN_IF_ERROR(
            ReferenceRecurse(step.after, block, &block_rows, &weight));
        rows.push_back(std::move(block_rows));
        weights.push_back(weight);
      }
      int best = -1;
      for (size_t b = 0; b < rows.size(); ++b) {
        if (best < 0 || weights[b] > weights[best]) best = static_cast<int>(b);
      }
      if (best >= 0 && weights[best] > 0) {
        kept->insert(kept->end(), rows[best].begin(), rows[best].end());
        *kept_weight += weights[best];
      }
      return Status::OK();
    }
    case SimplificationKind::kLhsMarriage: {
      BlockPartition partition =
          PartitionForMarriage(view, step.marriage_x1, step.marriage_x2);
      std::vector<std::vector<int>> rows(partition.blocks.size());
      std::vector<BipartiteEdge> edges;
      for (size_t b = 0; b < partition.blocks.size(); ++b) {
        double weight = 0;
        FDR_RETURN_IF_ERROR(ReferenceRecurse(
            step.after, partition.blocks[b].view, &rows[b], &weight));
        edges.push_back(BipartiteEdge{partition.blocks[b].left,
                                      partition.blocks[b].right, weight});
      }
      MatchingResult matching = MaxWeightBipartiteMatching(
          partition.num_left, partition.num_right, edges);
      for (int b : matching.edge_indices) {
        kept->insert(kept->end(), rows[b].begin(), rows[b].end());
        *kept_weight += edges[b].weight;
      }
      return Status::OK();
    }
    case SimplificationKind::kStuck:
      return Status::FailedPrecondition("reference: stuck");
  }
  return Status::Internal("unreachable");
}

StatusOr<std::vector<int>> ReferenceOptSRepairRows(const FdSet& fds,
                                                   const TableView& view) {
  if (!OsrSucceeds(fds)) return Status::FailedPrecondition("reference: hard");
  std::vector<int> kept;
  double kept_weight = 0;
  FDR_RETURN_IF_ERROR(ReferenceRecurse(fds, view, &kept, &kept_weight));
  std::sort(kept.begin(), kept.end());
  return kept;
}

/// The span recursion at a given thread count (0 = sequential overload).
StatusOr<std::vector<int>> SpanRows(const FdSet& fds, const TableView& view,
                                    int threads) {
  if (threads <= 1) return OptSRepairRows(fds, view);
  ThreadPool pool(threads);
  OptSRepairRowsOptions options;
  options.exec.pool = &pool;
  options.exec.parallel_cutoff = 1;  // fan out wherever a block has 2+ rows
  return OptSRepairRows(fds, view, options);
}

/// Indices into AllNamedFdSets() of the sets OptSRepair succeeds on.
std::vector<int> TractableSetIndices() {
  std::vector<int> out;
  const std::vector<NamedFdSet> sets = AllNamedFdSets();
  for (int i = 0; i < static_cast<int>(sets.size()); ++i) {
    if (OsrSucceeds(sets[i].parsed.fds)) out.push_back(i);
  }
  return out;
}

// Every tractable named set, random tables: the span core must match the
// reference implementation row for row, at every thread count.
class SpanRecursionPropertyTest
    : public ::testing::TestWithParam<std::tuple<int, uint64_t>> {};

TEST_P(SpanRecursionPropertyTest, BitIdenticalToReferenceAndAcrossThreads) {
  const auto& [set_index, seed] = GetParam();
  NamedFdSet named = AllNamedFdSets()[set_index];
  Rng rng(seed);
  for (int trial = 0; trial < 8; ++trial) {
    RandomTableOptions options;
    options.num_tuples = 20 + static_cast<int>(rng.UniformUint64(300));
    options.domain_size = 2 + static_cast<int>(rng.UniformUint64(4));
    options.heavy_fraction = (trial % 2 == 0) ? 0.5 : 0.0;
    Rng table_rng = rng.Fork();
    Table table = RandomTable(named.parsed.schema, options, &table_rng);
    TableView view(table);

    auto reference = ReferenceOptSRepairRows(named.parsed.fds, view);
    ASSERT_TRUE(reference.ok()) << named.name << ": " << reference.status();
    auto sequential = SpanRows(named.parsed.fds, view, 1);
    ASSERT_TRUE(sequential.ok()) << named.name << ": " << sequential.status();
    EXPECT_EQ(*sequential, *reference)
        << named.name << " trial " << trial << ": span recursion diverged "
        << "from the reference implementation";
    EXPECT_TRUE(Satisfies(table.SubsetByRows(*sequential), named.parsed.fds))
        << named.name;

    for (int threads : {2, 8}) {
      auto parallel = SpanRows(named.parsed.fds, view, threads);
      ASSERT_TRUE(parallel.ok()) << named.name << ": " << parallel.status();
      EXPECT_EQ(*parallel, *sequential)
          << named.name << " trial " << trial << " threads=" << threads;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    SetsAndSeeds, SpanRecursionPropertyTest,
    ::testing::Combine(::testing::ValuesIn(TractableSetIndices()),
                       ::testing::Values(uint64_t{1009}, uint64_t{1013})));

// The SIMD dispatch matrix: whole-recursion outputs must be bit-identical
// under forced scalar and AVX2 dispatch on every tractable named set. This
// is the end-to-end companion of the grouping-level oracle in
// row_span_test.cc — if a kernel or fast path ever drifts, the kept-row
// sets diverge here.
TEST(SpanRecursionTest, BitIdenticalAcrossSimdDispatch) {
  struct DispatchGuard {
    ~DispatchGuard() { simd::ClearForcedSimdMode(); }
  } guard;
  Rng rng(5150);
  for (const NamedFdSet& named : AllNamedFdSets()) {
    if (!OsrSucceeds(named.parsed.fds)) continue;
    RandomTableOptions options;
    options.num_tuples = 150 + static_cast<int>(rng.UniformUint64(150));
    options.domain_size = 2 + static_cast<int>(rng.UniformUint64(4));
    options.heavy_fraction = 0.5;
    Rng table_rng = rng.Fork();
    Table table = RandomTable(named.parsed.schema, options, &table_rng);
    TableView view(table);

    simd::ForceSimdMode(simd::SimdMode::kScalar);
    auto scalar = OptSRepairRows(named.parsed.fds, view);
    ASSERT_TRUE(scalar.ok()) << named.name << ": " << scalar.status();

    simd::ForceSimdMode(simd::SimdMode::kAvx2);
    auto simd_rows = OptSRepairRows(named.parsed.fds, view);
    ASSERT_TRUE(simd_rows.ok()) << named.name;
    EXPECT_EQ(*simd_rows, *scalar)
        << named.name << ": " << simd::SimdModeName(simd::ActiveSimdMode())
        << " diverged from scalar";
  }
}

// Small instances: the span core is optimal (against brute force), per
// subroutine family.
TEST(SpanRecursionTest, OptimalAgainstBruteForce) {
  Rng rng(4242);
  for (const auto& [label, parsed] :
       {std::pair<std::string, ParsedFdSet>{"common-lhs", OfficeFds()},
        {"consensus", ParseFdSetInferSchemaOrDie("{} -> A; A -> B")},
        {"marriage", DeltaAKeyBToC()},
        {"marriage-multiattr", Example31Ssn()}}) {
    for (int trial = 0; trial < 10; ++trial) {
      RandomTableOptions options;
      options.num_tuples = 4 + static_cast<int>(rng.UniformUint64(10));
      options.domain_size = 2 + static_cast<int>(rng.UniformUint64(3));
      options.heavy_fraction = 0.5;
      Rng table_rng = rng.Fork();
      Table table = RandomTable(parsed.schema, options, &table_rng);
      auto fast = OptSRepair(parsed.fds, table);
      ASSERT_TRUE(fast.ok()) << label << ": " << fast.status();
      auto exact = OptSRepairExact(parsed.fds, table);
      ASSERT_TRUE(exact.ok()) << label << ": " << exact.status();
      EXPECT_NEAR(DistSubOrDie(*fast, table), DistSubOrDie(*exact, table),
                  1e-9)
          << label << " trial " << trial << "\n"
          << table.ToString();
    }
  }
}

// The chain is a pure function of ∆ and ends exactly as OSRSucceeds
// predicts — the invariant that lets the recursion share one chain across
// every block.
TEST(SpanRecursionTest, SimplificationChainMatchesStepwiseSimplification) {
  for (const NamedFdSet& named : AllNamedFdSets()) {
    SimplificationChain chain = SimplificationChain::Compute(named.parsed.fds);
    ASSERT_GE(chain.length(), 1) << named.name;
    EXPECT_EQ(chain.succeeds(), OsrSucceeds(named.parsed.fds)) << named.name;
    FdSet current = named.parsed.fds;
    for (int d = 0; d < chain.length(); ++d) {
      SimplificationStep expected = NextSimplification(current);
      EXPECT_EQ(chain.at(d).kind, expected.kind) << named.name << " depth "
                                                 << d;
      EXPECT_EQ(chain.at(d).removed, expected.removed) << named.name;
      EXPECT_EQ(chain.at(d).after.ToString(), expected.after.ToString())
          << named.name << " depth " << d;
      current = expected.after;
    }
    const SimplificationKind last = chain.steps().back().kind;
    EXPECT_TRUE(last == SimplificationKind::kTrivialTermination ||
                last == SimplificationKind::kStuck)
        << named.name;
  }
}

}  // namespace
}  // namespace fdrepair
