// Tests for the pluggable SolverBackend API (srepair/solver_backend.h):
// registry behavior, cross-backend agreement with the brute-force oracle,
// LP/dual lower-bound sanity, cooperative limits, and the planner/quality
// knobs (SRepairOptions::backend, max_ratio) built on top of it.

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <limits>
#include <set>
#include <string>

#include "catalog/fd.h"
#include "common/random.h"
#include "graph/conflict_graph.h"
#include "graph/vc_lp.h"
#include "graph/vertex_cover.h"
#include "srepair/planner.h"
#include "srepair/soft_cover.h"
#include "srepair/solver_backend.h"
#include "srepair/srepair_exact.h"
#include "storage/consistency.h"
#include "storage/distance.h"
#include "workloads/example_fdsets.h"
#include "workloads/generators.h"
#include "workloads/graph_gen.h"

namespace fdrepair {
namespace {

SolverExec NoLimits() { return SolverExec{}; }

double OptimalCoverWeight(const NodeWeightedGraph& graph) {
  auto cover = MinWeightVertexCoverExact(graph);
  EXPECT_TRUE(cover.ok());
  return graph.WeightOf(*cover);
}

int ConflictedCoreSize(const FdSet& fds, const Table& table) {
  TableView view(table);
  NodeWeightedGraph graph = BuildConflictGraph(view, fds);
  int core = 0;
  for (int v = 0; v < graph.num_nodes(); ++v) {
    if (graph.Degree(v) > 0) ++core;
  }
  return core;
}

/// The 3-way A->B violation clique: any repair keeps one tuple, the fused
/// local-ratio route certifies exactly ratio 2 on it.
Table RhsTriangle(const ParsedFdSet& parsed) {
  Table table(parsed.schema);
  table.AddTuple({"a", "x", "p"});
  table.AddTuple({"a", "y", "q"});
  table.AddTuple({"a", "z", "r"});
  return table;
}

TEST(SolverRegistryTest, InTreeBackendsPresent) {
  const std::set<std::string> expected = {kSolverLocalRatio, kSolverBnb,
                                          kSolverIlp, kSolverLpRounding};
  std::set<std::string> names;
  for (const SolverBackend* backend : AllSolverBackends()) {
    names.insert(backend->name());
  }
  for (const std::string& name : expected) {
    EXPECT_TRUE(names.count(name)) << name;
    ASSERT_NE(FindSolverBackend(name), nullptr) << name;
    EXPECT_EQ(FindSolverBackend(name)->name(), name);
  }
  EXPECT_EQ(FindSolverBackend("no-such-solver"), nullptr);
  EXPECT_TRUE(FindSolverBackend(kSolverBnb)->exact());
  EXPECT_TRUE(FindSolverBackend(kSolverIlp)->exact());
  EXPECT_FALSE(FindSolverBackend(kSolverLocalRatio)->exact());
  EXPECT_FALSE(FindSolverBackend(kSolverLpRounding)->exact());
  EXPECT_TRUE(FindSolverBackend(kSolverLocalRatio)->has_fused_rows());
}

TEST(SolverRegistryTest, UnknownBackendNameFailsPlanning) {
  ParsedFdSet parsed = DeltaAtoBtoC();
  SRepairOptions options;
  options.backend = "no-such-solver";
  auto result = ComputeSRepair(parsed.fds, RhsTriangle(parsed), options);
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
}

TEST(SolverRegistryTest, ExternalRegistrationWinsByName) {
  // A thin wrapper under a fresh name; the registry must serve it back.
  class Wrapper : public SolverBackend {
   public:
    const char* name() const override { return "test-wrapper"; }
    bool exact() const override { return true; }
    StatusOr<SolverCover> SolveCover(const NodeWeightedGraph& graph,
                                     const SolverExec& exec) const override {
      return FindSolverBackend(kSolverBnb)->SolveCover(graph, exec);
    }
  };
  RegisterSolverBackend(std::make_unique<Wrapper>());
  const SolverBackend* found = FindSolverBackend("test-wrapper");
  ASSERT_NE(found, nullptr);
  EXPECT_TRUE(found->exact());
}

class CrossBackendPropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(CrossBackendPropertyTest, AgreesWithBruteForceOracle) {
  Rng rng(GetParam());
  for (const NamedFdSet& named : AllNamedFdSets()) {
    for (int trial = 0; trial < 3; ++trial) {
      RandomTableOptions options;
      options.num_tuples = 8 + static_cast<int>(rng.UniformUint64(12));
      options.domain_size = 2 + static_cast<int>(rng.UniformUint64(3));
      options.heavy_fraction = (trial % 2 == 0) ? 0.5 : 0.0;
      Rng table_rng = rng.Fork();
      Table table = RandomTable(named.parsed.schema, options, &table_rng);
      auto oracle = OptSRepairExactRows(named.parsed.fds, TableView(table));
      ASSERT_TRUE(oracle.ok()) << named.name;
      const double optimal_distance =
          DistSubOrDie(table.SubsetByRows(*oracle), table);

      for (const char* name : {kSolverBnb, kSolverIlp}) {
        SRepairOptions srepair_options;
        srepair_options.backend = name;
        auto result = ComputeSRepair(named.parsed.fds, table, srepair_options);
        ASSERT_TRUE(result.ok()) << named.name << " " << name;
        EXPECT_TRUE(result->optimal) << named.name << " " << name;
        EXPECT_NEAR(result->distance, optimal_distance, 1e-9)
            << named.name << " " << name;
        EXPECT_NEAR(result->lower_bound, optimal_distance, 1e-9)
            << named.name << " " << name;
        EXPECT_DOUBLE_EQ(result->achieved_ratio, 1.0);
        EXPECT_TRUE(Satisfies(result->repair, named.parsed.fds));
      }

      for (const char* name : {kSolverLocalRatio, kSolverLpRounding}) {
        SRepairOptions srepair_options;
        srepair_options.backend = name;
        auto result = ComputeSRepair(named.parsed.fds, table, srepair_options);
        ASSERT_TRUE(result.ok()) << named.name << " " << name;
        EXPECT_TRUE(Satisfies(result->repair, named.parsed.fds))
            << named.name << " " << name;
        // The reported lower bound must never exceed the true optimum, and
        // the repair must sit within the certified ratio of it.
        EXPECT_LE(result->lower_bound, optimal_distance + 1e-9)
            << named.name << " " << name;
        EXPECT_LE(result->distance,
                  result->ratio_bound * optimal_distance + 1e-9)
            << named.name << " " << name;
        EXPECT_LE(result->distance,
                  result->achieved_ratio * result->lower_bound + 1e-9)
            << named.name << " " << name;
        EXPECT_GE(result->distance, optimal_distance - 1e-9)
            << named.name << " " << name;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CrossBackendPropertyTest,
                         ::testing::Values(7, 77, 777));

TEST(VcLpTest, BoundsSandwichOnRandomGraphs) {
  Rng rng(13);
  for (int trial = 0; trial < 20; ++trial) {
    const int n = 6 + static_cast<int>(rng.UniformUint64(10));
    const int m = n + static_cast<int>(rng.UniformUint64(2 * n));
    NodeWeightedGraph graph = RandomGraph(n, m, &rng);
    for (int v = 0; v < n; ++v) {
      graph.set_weight(v, 1.0 + static_cast<double>(rng.UniformUint64(5)));
    }
    const double optimum = OptimalCoverWeight(graph);
    const VcLpSolution lp = SolveVcLp(graph);
    // local-ratio packing <= LP optimum <= integral optimum.
    std::vector<int> order(graph.num_edges());
    for (int i = 0; i < graph.num_edges(); ++i) order[i] = i;
    double packing = 0;
    VertexCoverLocalRatio(graph, order, &packing);
    EXPECT_LE(packing, lp.value + 1e-9);
    EXPECT_LE(lp.value, optimum + 1e-9);
    // Half-integrality: every x is 0, 1/2 or 1 and covers each edge.
    for (double x : lp.x) {
      EXPECT_TRUE(x == 0.0 || x == 0.5 || x == 1.0) << x;
    }
    for (const auto& [u, v] : graph.edges()) {
      EXPECT_GE(lp.x[u] + lp.x[v], 1.0 - 1e-9);
    }
    // NT persistency: opt(G) = w(ones) + opt(G[halves]).
    std::vector<int> kernel_id(n, -1);
    NodeWeightedGraph kernel(static_cast<int>(lp.halves.size()));
    for (int i = 0; i < static_cast<int>(lp.halves.size()); ++i) {
      kernel_id[lp.halves[i]] = i;
      kernel.set_weight(i, graph.weight(lp.halves[i]));
    }
    for (const auto& [u, v] : graph.edges()) {
      if (kernel_id[u] >= 0 && kernel_id[v] >= 0) {
        kernel.AddEdge(kernel_id[u], kernel_id[v]);
      }
    }
    EXPECT_NEAR(graph.WeightOf(lp.ones) + OptimalCoverWeight(kernel), optimum,
                1e-9)
        << "trial " << trial;
  }
}

TEST(SolverBackendTest, GraphCoversValidAndBoundedOnRandomGraphs) {
  Rng rng(29);
  for (int trial = 0; trial < 12; ++trial) {
    const int n = 8 + static_cast<int>(rng.UniformUint64(10));
    NodeWeightedGraph graph = RandomBoundedDegreeGraph(n, 4, 0.4, &rng);
    for (int v = 0; v < n; ++v) {
      graph.set_weight(v, 1.0 + static_cast<double>(rng.UniformUint64(4)));
    }
    const double optimum = OptimalCoverWeight(graph);
    for (const SolverBackend* backend : AllSolverBackends()) {
      auto cover = backend->SolveCover(graph, NoLimits());
      ASSERT_TRUE(cover.ok()) << backend->name();
      EXPECT_TRUE(IsVertexCover(graph, cover->cover)) << backend->name();
      EXPECT_NEAR(cover->weight, graph.WeightOf(cover->cover), 1e-9);
      EXPECT_LE(cover->lower_bound, optimum + 1e-9) << backend->name();
      EXPECT_LE(cover->weight, cover->ratio_bound * optimum + 1e-9)
          << backend->name();
      if (backend->exact()) {
        EXPECT_TRUE(cover->optimal) << backend->name();
        EXPECT_NEAR(cover->weight, optimum, 1e-9) << backend->name();
      }
      if (cover->optimal) {
        EXPECT_NEAR(cover->weight, cover->lower_bound, 1e-9)
            << backend->name();
      }
    }
  }
}

TEST(SolverBackendTest, ExpiredDeadlineStillReturnsValidIncumbent) {
  Rng rng(31);
  NodeWeightedGraph graph = RandomGraph(30, 80, &rng);
  SolverExec exec;
  exec.deadline = std::chrono::steady_clock::now() - std::chrono::seconds(1);
  for (const char* name : {kSolverBnb, kSolverIlp}) {
    auto cover = FindSolverBackend(name)->SolveCover(graph, exec);
    ASSERT_TRUE(cover.ok()) << name;
    EXPECT_FALSE(cover->optimal) << name;
    EXPECT_TRUE(IsVertexCover(graph, cover->cover)) << name;
    EXPECT_LE(cover->lower_bound, cover->weight + 1e-9) << name;
  }
}

/// Minimum soft-cover objective (deleted weight + uncovered penalties) by
/// enumerating every deletion set; an uncovered hard edge costs ∞.
double BruteForceSoftCoverCost(const NodeWeightedGraph& graph,
                               const std::vector<double>& penalties) {
  const int n = graph.num_nodes();
  double best = std::numeric_limits<double>::infinity();
  for (uint32_t mask = 0; mask < (1u << n); ++mask) {
    double cost = 0;
    for (int v = 0; v < n; ++v) {
      if ((mask >> v) & 1) cost += graph.weight(v);
    }
    const auto& edges = graph.edges();
    for (size_t e = 0; e < edges.size(); ++e) {
      if (((mask >> edges[e].first) & 1) || ((mask >> edges[e].second) & 1)) {
        continue;
      }
      cost += penalties[e];
    }
    best = std::min(best, cost);
  }
  return best;
}

TEST(SolverBackendTest, ExpiredDeadlineOnSoftCoverIsNotProvedOptimal) {
  // Mixed hard/soft instances whose primal-dual seed does not certify
  // itself. With the deadline already past no search node runs, so the
  // seed comes back unproved, bounded by what the root proves.
  Rng rng(37);
  SolverExec exec;
  exec.deadline = std::chrono::steady_clock::now() - std::chrono::seconds(1);
  int checked = 0;
  for (int trial = 0; trial < 40; ++trial) {
    NodeWeightedGraph graph = RandomGraph(12, 24, &rng);
    for (int v = 0; v < graph.num_nodes(); ++v) {
      graph.set_weight(v, 1.0 + static_cast<double>(rng.UniformUint64(5)));
    }
    std::vector<double> penalties(graph.num_edges());
    for (double& penalty : penalties) {
      penalty = rng.Bernoulli(0.5)
                    ? kHardFdWeight
                    : 1.0 + static_cast<double>(rng.UniformUint64(4));
    }
    if (SoftCoverLocalRatio(graph, penalties).optimal) continue;
    ++checked;
    const double optimum = BruteForceSoftCoverCost(graph, penalties);
    for (const char* name : {kSolverBnb, kSolverIlp}) {
      auto cover =
          FindSolverBackend(name)->SolveSoftCover(graph, penalties, exec);
      ASSERT_TRUE(cover.ok()) << name;
      EXPECT_FALSE(cover->optimal) << name << " trial " << trial;
      EXPECT_LE(cover->lower_bound, optimum + 1e-9) << name;
      EXPECT_GE(cover->weight + cover->penalty, optimum - 1e-9) << name;
    }
  }
  EXPECT_GE(checked, 10);
}

TEST(SolverBackendTest, TruncatedBnbKeepsFactorTwo) {
  // A unit-weight star K1,8, whose optimum is its center, plus random
  // graphs, each cut off after a handful of branch nodes.
  std::vector<NodeWeightedGraph> graphs;
  NodeWeightedGraph star(9);
  for (int leaf = 1; leaf <= 8; ++leaf) star.AddEdge(0, leaf);
  graphs.push_back(star);
  Rng rng(41);
  for (int trial = 0; trial < 12; ++trial) {
    NodeWeightedGraph graph = RandomGraph(16, 32, &rng);
    for (int v = 0; v < graph.num_nodes(); ++v) {
      graph.set_weight(v, 1.0 + static_cast<double>(rng.UniformUint64(5)));
    }
    graphs.push_back(graph);
  }
  for (const NodeWeightedGraph& graph : graphs) {
    const double optimum = OptimalCoverWeight(graph);
    for (long budget : {1L, 8L, 64L}) {
      SolverExec exec;
      exec.node_budget = budget;
      auto cover = FindSolverBackend(kSolverBnb)->SolveCover(graph, exec);
      ASSERT_TRUE(cover.ok()) << budget;
      EXPECT_TRUE(IsVertexCover(graph, cover->cover)) << budget;
      EXPECT_LE(cover->lower_bound, optimum + 1e-9) << budget;
      EXPECT_LE(cover->ratio_bound, 2.0) << budget;
      EXPECT_LE(cover->weight, 2.0 * optimum + 1e-9) << budget;
      if (cover->optimal) {
        EXPECT_NEAR(cover->weight, optimum, 1e-9) << budget;
      }
    }
  }
}

TEST(SolverBackendTest, NodeBudgetTruncatesSearch) {
  // C9: an odd cycle — the LP is all-halves (no NT fixing), reductions
  // never fire (every neighborhood outweighs its center), so the search
  // must branch and a one-node budget cannot finish.
  NodeWeightedGraph graph(9);
  for (int v = 0; v < 9; ++v) graph.AddEdge(v, (v + 1) % 9);
  SolverExec exec;
  exec.node_budget = 1;
  auto cover = FindSolverBackend(kSolverIlp)->SolveCover(graph, exec);
  ASSERT_TRUE(cover.ok());
  EXPECT_FALSE(cover->optimal);
  EXPECT_TRUE(IsVertexCover(graph, cover->cover));
  // The truncated answer keeps the a-priori local-ratio guarantee and the
  // LP certificate: C9's LP value is 4.5, its optimum 5.
  EXPECT_NEAR(cover->lower_bound, 4.5, 1e-9);
  EXPECT_LE(cover->weight, 2.0 * 5.0 + 1e-9);

  SolverExec open;
  auto full = FindSolverBackend(kSolverIlp)->SolveCover(graph, open);
  ASSERT_TRUE(full.ok());
  EXPECT_TRUE(full->optimal);
  EXPECT_NEAR(full->weight, 5.0, 1e-9);
}

TEST(SolverPlannerTest, ExactOnlyReportsBudgetExhaustion) {
  // A hard-side instance small enough for the bnb route whose search needs
  // more than one node: kExactOnly must refuse rather than return the
  // incumbent.
  Rng rng(17);
  ParsedFdSet parsed = DeltaAtoBtoC();
  RandomTableOptions table_options;
  table_options.num_tuples = 30;
  table_options.domain_size = 2;
  Table table = RandomTable(parsed.schema, table_options, &rng);
  SRepairOptions options;
  options.strategy = SRepairStrategy::kExactOnly;
  options.node_budget = 1;
  auto result = ComputeSRepair(parsed.fds, table, options);
  EXPECT_EQ(result.status().code(), StatusCode::kResourceExhausted);

  options.node_budget = -1;
  auto full = ComputeSRepair(parsed.fds, table, options);
  ASSERT_TRUE(full.ok());
  EXPECT_TRUE(full->optimal);
}

TEST(SolverPlannerTest, MaxRatioGatesCertifiedQuality) {
  ParsedFdSet parsed = DeltaAtoBtoC();
  Table table = RhsTriangle(parsed);
  // Fused local-ratio on the 3-clique: distance 2 against a burn of 1 — a
  // certified ratio of exactly 2.
  SRepairOptions approx;
  approx.strategy = SRepairStrategy::kApproxOnly;
  auto loose = ComputeSRepair(parsed.fds, table, approx);
  ASSERT_TRUE(loose.ok());
  EXPECT_DOUBLE_EQ(loose->distance, 2.0);
  EXPECT_DOUBLE_EQ(loose->lower_bound, 1.0);
  EXPECT_DOUBLE_EQ(loose->achieved_ratio, 2.0);
  EXPECT_EQ(loose->backend, kSolverLocalRatio);

  approx.max_ratio = 1.5;
  auto gated = ComputeSRepair(parsed.fds, table, approx);
  EXPECT_EQ(gated.status().code(), StatusCode::kResourceExhausted);

  // The exact backend certifies ratio 1 and passes the same gate.
  SRepairOptions exact;
  exact.backend = kSolverIlp;
  exact.max_ratio = 1.5;
  auto proved = ComputeSRepair(parsed.fds, table, exact);
  ASSERT_TRUE(proved.ok());
  EXPECT_TRUE(proved->optimal);
  EXPECT_DOUBLE_EQ(proved->distance, 2.0);
  EXPECT_EQ(proved->backend, kSolverIlp);
  EXPECT_EQ(proved->algorithm, SRepairAlgorithm::kIlpBranchAndBound);
}

TEST(SolverPlannerTest, IlpProvesOptimalityFarBeyondExactGuard) {
  // The headline capability: a hard-side instance whose conflicted core is
  // >= 3x the historical exact_guard of 40, proved optimal by the ILP
  // backend through the kAuto route.
  Rng rng(23);
  ParsedFdSet parsed = DeltaAtoBtoC();
  PlantedTableOptions planted;
  planted.num_tuples = 400;
  planted.num_entities = 60;
  planted.corruptions = 120;
  planted.heavy_fraction = 0.3;
  Table table = PlantedDirtyTable(parsed.schema, parsed.fds, planted, &rng);
  ASSERT_GE(ConflictedCoreSize(parsed.fds, table), 120);

  auto result = ComputeSRepair(parsed.fds, table);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->algorithm, SRepairAlgorithm::kIlpBranchAndBound);
  EXPECT_EQ(result->backend, kSolverIlp);
  EXPECT_TRUE(result->optimal);
  EXPECT_NEAR(result->lower_bound, result->distance, 1e-9);
  EXPECT_DOUBLE_EQ(result->ratio_bound, 1.0);
  EXPECT_TRUE(Satisfies(result->repair, parsed.fds));

  // The proved optimum is sharper than (or ties) the 2-approximation.
  SRepairOptions approx;
  approx.strategy = SRepairStrategy::kApproxOnly;
  auto baseline = ComputeSRepair(parsed.fds, table, approx);
  ASSERT_TRUE(baseline.ok());
  EXPECT_LE(result->distance, baseline->distance + 1e-9);
  EXPECT_GE(result->distance, baseline->lower_bound - 1e-9);
}

}  // namespace
}  // namespace fdrepair
