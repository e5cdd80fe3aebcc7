// E13 — Zero-allocation recursion core. The span-based OptSRepair hot path
// (shared row-index buffer + in-place grouping over interned ValueIds +
// per-∆ simplification-chain caching + per-thread scratch arenas) against
// a faithful reimplementation of the pre-span recursion (one materialized
// std::vector<int> per block per level, one heap-allocated ProjectionKey
// per row per level, NextSimplification per node). Single-threaded, since
// the parallel engine multiplies whatever the single-thread core gives it.
// Target: >=2x on deep-recursion instances (>=10k tuples, >=4
// simplification levels); results FDR_CHECKed bit-identical.

#include <chrono>
#include <functional>
#include <string>
#include <vector>

#include "report_util.h"
#include "catalog/fd_parser.h"
#include "common/simd.h"
#include "engine/block_partitioner.h"
#include "graph/bipartite_matching.h"
#include "srepair/opt_srepair.h"
#include "srepair/osr_succeeds.h"
#include "srepair/simplification.h"
#include "storage/consistency.h"
#include "storage/row_span.h"
#include "workloads/example_fdsets.h"
#include "workloads/generators.h"

namespace fdrepair {
namespace {

using benchreport::Banner;
using benchreport::JsonReport;
using benchreport::Num;
using benchreport::ReportTable;

// --- The pre-span recursion, preserved here as the comparison baseline.

Status LegacyRecurse(const FdSet& fds, const TableView& view,
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
        FDR_RETURN_IF_ERROR(LegacyRecurse(step.after, block, &rows, &weight));
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
            LegacyRecurse(step.after, block, &block_rows, &weight));
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
        FDR_RETURN_IF_ERROR(LegacyRecurse(
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
      return Status::FailedPrecondition("legacy: stuck");
  }
  return Status::Internal("unreachable");
}

StatusOr<std::vector<int>> LegacyOptSRepairRows(const FdSet& fds,
                                                const TableView& view) {
  if (!OsrSucceeds(fds)) return Status::FailedPrecondition("legacy: hard");
  std::vector<int> kept;
  double kept_weight = 0;
  FDR_RETURN_IF_ERROR(LegacyRecurse(fds, view, &kept, &kept_weight));
  std::sort(kept.begin(), kept.end());
  return kept;
}

// --- Workloads.

/// A deep simplification chain over `k` attributes: A0 → A1, A0A1 → A2, …
/// The chain alternates one common-lhs step with k−2 consensus steps —
/// 2(k−1) simplification levels, each re-grouping every surviving tuple.
ParsedFdSet DeepChainFds(int k) {
  std::string spec;
  std::string lhs;
  for (int a = 1; a < k; ++a) {
    if (a > 1) spec += "; ";
    lhs += (a == 1 ? "" : " ");
    lhs += "A" + std::to_string(a - 1);
    spec += lhs + " -> A" + std::to_string(a);
  }
  return ParseFdSetInferSchemaOrDie(spec);
}

double TimeRowsMs(const std::function<StatusOr<std::vector<int>>()>& run,
                  std::vector<int>* rows) {
  // Best of three: min-of-N is the most stable estimator on noisy runners
  // (same protocol as bench_engine_parallel).
  double best = 0;
  for (int rep = 0; rep < 3; ++rep) {
    auto start = std::chrono::steady_clock::now();
    auto result = run();
    auto stop = std::chrono::steady_clock::now();
    FDR_CHECK_MSG(result.ok(), result.status().ToString());
    double ms =
        std::chrono::duration<double, std::milli>(stop - start).count();
    if (rep == 0 || ms < best) {
      best = ms;
      *rows = *std::move(result);
    }
  }
  return best;
}

void Report() {
  Banner("hotpath", "Zero-allocation span recursion vs legacy hot path");
  ReportTable table({"workload", "n", "chain", "legacy (ms)", "span (ms)",
                     "speedup"});
  struct Workload {
    std::string label;
    std::string metric;  // JSON metric prefix
    ParsedFdSet parsed;
    int full_n;
    int smoke_n;
  };
  // Deep chain: a 10-step simplification chain (9 attributes: one common
  // lhs, eight consensus steps, termination), re-grouping every surviving
  // tuple at each level; >=10k tuples even in smoke mode, per the
  // acceptance bar for this experiment.
  std::vector<Workload> workloads;
  workloads.push_back(
      {"deep chain (9 attrs)", "deep", DeepChainFds(9), 131072, 16384});
  workloads.push_back(
      {"office chain", "office", OfficeFds(), 262144, 32768});
  workloads.push_back(
      {"marriage (ssn)", "marriage", Example31Ssn(), 65536, 12288});
  for (const Workload& workload : workloads) {
    const int n = static_cast<int>(
        benchreport::SmokeCap(workload.full_n, workload.smoke_n));
    Table t = ScalingFamilyTable(workload.parsed, n, 5 + n);
    TableView view(t);
    const int chain_length =
        SimplificationChain::Compute(workload.parsed.fds).length();

    std::vector<int> legacy_rows;
    double legacy_ms = TimeRowsMs(
        [&] { return LegacyOptSRepairRows(workload.parsed.fds, view); },
        &legacy_rows);
    std::vector<int> span_rows;
    double span_ms = TimeRowsMs(
        [&] { return OptSRepairRows(workload.parsed.fds, view); }, &span_rows);

    // The acceptance bar: same rows, bit for bit, and a consistent repair.
    FDR_CHECK(span_rows == legacy_rows);
    FDR_CHECK(Satisfies(t.SubsetByRows(span_rows), workload.parsed.fds));

    const double speedup = span_ms > 0 ? legacy_ms / span_ms : 0;
    table.AddRow({workload.label, Num(n), Num(chain_length), Num(legacy_ms),
                  Num(span_ms), Num(speedup)});
    JsonReport::Get().Add("hotpath." + workload.metric + "_legacy_us_per_tuple",
                          1000.0 * legacy_ms / n, "us");
    JsonReport::Get().Add("hotpath." + workload.metric + "_span_us_per_tuple",
                          1000.0 * span_ms / n, "us");
    JsonReport::Get().Add("hotpath." + workload.metric + "_speedup_vs_legacy",
                          speedup, "x");
  }
  table.Print();
  std::cout << "span rows bit-identical to the legacy recursion on every "
               "workload (FDR_CHECKed)\n";

  // --- Columnar + SIMD grouping vs the PR 4 row-major scalar path.
  //
  // Same span recursion both times; only the grouping core differs:
  // row-major scalar (the pre-columnar tuple[attr] loops, SIMD pinned off)
  // vs the columnar layout with automatic SIMD dispatch. Grouping-bound
  // workloads only — a marriage instance adds a matching step the grouping
  // layout does not touch. Acceptance bar: >= 1.3x on the deep
  // chain / office family, outputs FDR_CHECKed bit-identical.
  Banner("hotpath.columnar",
         "Columnar+SIMD grouping vs row-major scalar (span recursion)");
  std::cout << "active SIMD dispatch: "
            << simd::SimdModeName(simd::ActiveSimdMode()) << "\n";
  ReportTable columnar_table({"workload", "n", "row-major (ms)",
                              "columnar+simd (ms)", "speedup"});
  struct LayoutWorkload {
    std::string label;
    std::string metric;
    ParsedFdSet parsed;
    int full_n;
    int smoke_n;
    int domain_divisor;
  };
  // domain_divisor 512 keeps σ-blocks ~hundreds of rows at every level
  // (domain n/512 instead of the default n/16, whose blocks collapse to
  // singletons after one level and leave per-block recursion overhead —
  // not grouping — as the bottleneck). These are the instances where
  // grouping dominates, which is exactly what the columnar layout targets.
  std::vector<LayoutWorkload> layout_workloads;
  layout_workloads.push_back({"deep chain (grouping-bound)", "deep",
                              DeepChainFds(9), 131072, 16384, 512});
  layout_workloads.push_back(
      {"office chain (grouping-bound)", "office", OfficeFds(), 262144, 32768,
       512});
  for (const LayoutWorkload& workload : layout_workloads) {
    const int n = static_cast<int>(
        benchreport::SmokeCap(workload.full_n, workload.smoke_n));
    Table t = ScalingFamilyTable(workload.parsed, n, 5 + n,
                                 workload.domain_divisor);
    TableView view(t);

    SetGroupingLayout(GroupingLayout::kRowMajor);
    simd::ForceSimdMode(simd::SimdMode::kScalar);
    std::vector<int> row_major_rows;
    double row_major_ms = TimeRowsMs(
        [&] { return OptSRepairRows(workload.parsed.fds, view); },
        &row_major_rows);

    SetGroupingLayout(GroupingLayout::kColumnar);
    simd::ClearForcedSimdMode();
    std::vector<int> columnar_rows;
    double columnar_ms = TimeRowsMs(
        [&] { return OptSRepairRows(workload.parsed.fds, view); },
        &columnar_rows);

    FDR_CHECK(columnar_rows == row_major_rows);
    FDR_CHECK(Satisfies(t.SubsetByRows(columnar_rows), workload.parsed.fds));

    const double speedup = columnar_ms > 0 ? row_major_ms / columnar_ms : 0;
    columnar_table.AddRow({workload.label, Num(n), Num(row_major_ms),
                           Num(columnar_ms), Num(speedup)});
    JsonReport::Get().Add(
        "hotpath." + workload.metric + "_columnar_us_per_tuple",
        1000.0 * columnar_ms / n, "us");
    JsonReport::Get().Add(
        "hotpath." + workload.metric + "_columnar_speedup_vs_rowmajor",
        speedup, "x");
  }
  columnar_table.Print();
  std::cout << "columnar+SIMD rows bit-identical to the row-major scalar "
               "path on every workload (FDR_CHECKed)\n";
}

void BM_SpanRecursionDeepChain(benchmark::State& state) {
  ParsedFdSet parsed = DeepChainFds(9);
  const int n = static_cast<int>(state.range(0));
  Table table = ScalingFamilyTable(parsed, n, 5 + n);
  TableView view(table);
  for (auto _ : state) {
    auto rows = OptSRepairRows(parsed.fds, view);
    benchmark::DoNotOptimize(rows);
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_SpanRecursionDeepChain)
    ->Arg(benchreport::SmokeCap(131072, 16384))
    ->Unit(benchmark::kMillisecond);

void BM_LegacyRecursionDeepChain(benchmark::State& state) {
  ParsedFdSet parsed = DeepChainFds(9);
  const int n = static_cast<int>(state.range(0));
  Table table = ScalingFamilyTable(parsed, n, 5 + n);
  TableView view(table);
  for (auto _ : state) {
    auto rows = LegacyOptSRepairRows(parsed.fds, view);
    benchmark::DoNotOptimize(rows);
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_LegacyRecursionDeepChain)
    ->Arg(benchreport::SmokeCap(131072, 16384))
    ->Unit(benchmark::kMillisecond);

void BM_SpanRecursionMarriage(benchmark::State& state) {
  ParsedFdSet parsed = Example31Ssn();
  const int n = static_cast<int>(state.range(0));
  Table table = ScalingFamilyTable(parsed, n, 5 + n);
  TableView view(table);
  for (auto _ : state) {
    auto rows = OptSRepairRows(parsed.fds, view);
    benchmark::DoNotOptimize(rows);
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_SpanRecursionMarriage)
    ->Arg(benchreport::SmokeCap(65536, 12288))
    ->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace fdrepair

FDR_BENCH_MAIN(fdrepair::Report)
