// Tests for the graph substrate: max-weight bipartite matching (vs brute
// force and the test-only SPFA min-cost flow reference), weighted vertex
// cover (local-ratio guarantee vs exact), and the conflict graph and
// BuildConflictedCore (vs an all-pairs brute force and the hash-map
// violation oracle).

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <map>
#include <set>
#include <thread>
#include <tuple>

#include "catalog/fd_parser.h"
#include "common/random.h"
#include "graph/bipartite_matching.h"
#include "graph/conflict_graph.h"
#include "graph/graph.h"
#include "graph/vertex_cover.h"
#include "min_cost_flow.h"
#include "oracles/violations.h"
#include "storage/table.h"
#include "workloads/generators.h"
#include "workloads/graph_gen.h"

namespace fdrepair {
namespace {

TEST(GraphTest, EdgesDedupAndAdjacency) {
  NodeWeightedGraph graph(4);
  graph.AddEdge(0, 1);
  graph.AddEdge(1, 0);  // duplicate
  graph.AddEdge(2, 3);
  EXPECT_EQ(graph.num_edges(), 2);
  EXPECT_TRUE(graph.HasEdge(0, 1));
  EXPECT_FALSE(graph.HasEdge(0, 2));
  EXPECT_EQ(graph.Degree(1), 1);
  EXPECT_EQ(graph.MaxDegree(), 1);
  graph.set_weight(2, 5);
  EXPECT_DOUBLE_EQ(graph.WeightOf({2, 3}), 6);
}

TEST(GraphTest, IsVertexCover) {
  NodeWeightedGraph graph(3);
  graph.AddEdge(0, 1);
  graph.AddEdge(1, 2);
  EXPECT_TRUE(IsVertexCover(graph, {1}));
  EXPECT_FALSE(IsVertexCover(graph, {0}));
  EXPECT_TRUE(IsVertexCover(graph, {0, 2}));
}

TEST(MinCostFlowTest, SimplePath) {
  // 0 -> 1 -> 2, capacities 1, costs 1 and 2.
  MinCostFlow flow(3);
  flow.AddEdge(0, 1, 1, 1);
  flow.AddEdge(1, 2, 1, 2);
  auto result = flow.Solve(0, 2);
  EXPECT_DOUBLE_EQ(result.flow, 1);
  EXPECT_DOUBLE_EQ(result.cost, 3);
}

TEST(MinCostFlowTest, PrefersCheaperParallelRoute) {
  MinCostFlow flow(4);
  int cheap = flow.AddEdge(0, 1, 1, 1);
  int expensive = flow.AddEdge(0, 2, 1, 5);
  flow.AddEdge(1, 3, 1, 0);
  flow.AddEdge(2, 3, 1, 0);
  auto result = flow.Solve(0, 3);
  EXPECT_DOUBLE_EQ(result.flow, 2);
  EXPECT_DOUBLE_EQ(result.cost, 6);
  EXPECT_DOUBLE_EQ(flow.Flow(cheap), 1);
  EXPECT_DOUBLE_EQ(flow.Flow(expensive), 1);
}

TEST(MinCostFlowTest, StopsOnNonNegativePath) {
  // With negated weights, only profitable augmentations are taken.
  MinCostFlow flow(4);
  flow.AddEdge(0, 1, 1, 0);
  flow.AddEdge(0, 2, 1, 0);
  int good = flow.AddEdge(1, 3, 1, -5);
  int bad = flow.AddEdge(2, 3, 1, 3);
  auto result = flow.Solve(0, 3, /*stop_on_nonnegative_path=*/true);
  EXPECT_DOUBLE_EQ(result.flow, 1);
  EXPECT_DOUBLE_EQ(result.cost, -5);
  EXPECT_DOUBLE_EQ(flow.Flow(good), 1);
  EXPECT_DOUBLE_EQ(flow.Flow(bad), 0);
}

TEST(MatchingTest, PicksHeavierAlternative) {
  // Two left nodes both prefer right node 0; weights force a swap.
  std::vector<BipartiteEdge> edges{{0, 0, 10}, {1, 0, 9}, {1, 1, 8}};
  MatchingResult result = MaxWeightBipartiteMatching(2, 2, edges);
  EXPECT_DOUBLE_EQ(result.total_weight, 18);
  EXPECT_EQ(result.pairs.size(), 2u);
}

TEST(MatchingTest, MaxWeightNotMaxCardinality) {
  // One heavy edge beats two light ones sharing its endpoints.
  std::vector<BipartiteEdge> edges{{0, 0, 10}, {0, 1, 1}, {1, 0, 1}};
  MatchingResult result = MaxWeightBipartiteMatching(2, 2, edges);
  EXPECT_DOUBLE_EQ(result.total_weight, 10);
  ASSERT_EQ(result.pairs.size(), 1u);
  EXPECT_EQ(result.pairs[0], (std::pair<int, int>(0, 0)));
}

TEST(MatchingTest, DuplicateEdgesKeepHeaviest) {
  std::vector<BipartiteEdge> edges{{0, 0, 1}, {0, 0, 7}};
  MatchingResult result = MaxWeightBipartiteMatching(1, 1, edges);
  EXPECT_DOUBLE_EQ(result.total_weight, 7);
}

TEST(MatchingTest, EmptyInputs) {
  MatchingResult result = MaxWeightBipartiteMatching(0, 0, {});
  EXPECT_TRUE(result.pairs.empty());
  EXPECT_DOUBLE_EQ(result.total_weight, 0);
}

TEST(MatchingTest, EdgeIndicesNameHeaviestThenLowestCopy) {
  std::vector<BipartiteEdge> edges{
      {0, 0, 5}, {1, 1, 2}, {0, 0, 7}, {0, 0, 7}, {1, 1, 1}};
  MatchingResult result = MaxWeightBipartiteMatching(2, 2, edges);
  ASSERT_EQ(result.pairs.size(), 2u);
  EXPECT_EQ(result.pairs[0], (std::pair<int, int>(0, 0)));
  EXPECT_EQ(result.pairs[1], (std::pair<int, int>(1, 1)));
  EXPECT_EQ(result.edge_indices, (std::vector<int>{2, 1}));
  EXPECT_DOUBLE_EQ(result.total_weight, 9);
}

TEST(MatchingTest, EqualCostsPickTheLowestColumn) {
  // One row, three equally heavy columns: the greedy start takes column 0.
  std::vector<BipartiteEdge> edges{{0, 2, 3}, {0, 0, 3}, {0, 1, 3}};
  MatchingResult result = MaxWeightBipartiteMatching(1, 3, edges);
  ASSERT_EQ(result.pairs.size(), 1u);
  EXPECT_EQ(result.pairs[0], (std::pair<int, int>(0, 0)));
  EXPECT_EQ(result.edge_indices, (std::vector<int>{1}));
}

TEST(MatchingTest, NonPositiveEdgesAreNeverChosen) {
  std::vector<BipartiteEdge> edges{{0, 0, 0}, {1, 1, -2}, {2, 2, 4}};
  MatchingResult result = MaxWeightBipartiteMatching(3, 3, edges);
  ASSERT_EQ(result.pairs.size(), 1u);
  EXPECT_EQ(result.pairs[0], (std::pair<int, int>(2, 2)));
  EXPECT_DOUBLE_EQ(result.total_weight, 4);
}

TEST(MatchingTest, UnmatchingARowCanPayOff) {
  // Row 0 greedily takes column 0; row 1 only gains by displacing it, and
  // row 0 has nowhere else to go: the optimum leaves row 0 unmatched.
  std::vector<BipartiteEdge> edges{{0, 0, 2}, {1, 0, 5}};
  MatchingResult result = MaxWeightBipartiteMatching(2, 1, edges);
  ASSERT_EQ(result.pairs.size(), 1u);
  EXPECT_EQ(result.pairs[0], (std::pair<int, int>(1, 0)));
  EXPECT_DOUBLE_EQ(result.total_weight, 5);
}

/// How RandomEdges draws weights.
enum class Weights { kReal, kTies, kWithZeros };

/// `num_edges` random edges whose endpoints avoid the last `isolated` nodes
/// on each side; a `duplicate_rate` share repeats an earlier pair with a
/// fresh weight.
std::vector<BipartiteEdge> RandomEdges(int num_left, int num_right,
                                       int num_edges, Weights weights,
                                       double duplicate_rate, int isolated,
                                       Rng* rng) {
  const int lefts = std::max(1, num_left - isolated);
  const int rights = std::max(1, num_right - isolated);
  std::vector<BipartiteEdge> edges;
  for (int e = 0; e < num_edges; ++e) {
    double weight = 0;
    switch (weights) {
      case Weights::kReal:
        weight = rng->UniformDouble(0.1, 10.0);
        break;
      case Weights::kTies:
        weight = static_cast<double>(rng->UniformInt(1, 3));
        break;
      case Weights::kWithZeros:
        weight = static_cast<double>(rng->UniformInt(0, 3));
        break;
    }
    if (!edges.empty() && rng->Bernoulli(duplicate_rate)) {
      const BipartiteEdge& copy = edges[rng->UniformIndex(edges.size())];
      edges.push_back(BipartiteEdge{copy.left, copy.right, weight});
    } else {
      edges.push_back(
          BipartiteEdge{static_cast<int>(rng->UniformUint64(lefts)),
                        static_cast<int>(rng->UniformUint64(rights)), weight});
    }
  }
  return edges;
}

/// `result` is a matching over `edges`: no node repeats, each edge index
/// names an input edge with its pair, that copy is the heaviest (the lowest
/// index among equals), and total_weight is the chosen weights' sum.
void ExpectValidMatching(int num_left, int num_right,
                         const std::vector<BipartiteEdge>& edges,
                         const MatchingResult& result) {
  ASSERT_EQ(result.pairs.size(), result.edge_indices.size());
  std::vector<int> left_used(num_left, 0), right_used(num_right, 0);
  double total = 0;
  for (size_t k = 0; k < result.pairs.size(); ++k) {
    const auto [l, r] = result.pairs[k];
    EXPECT_EQ(left_used[l]++, 0);
    EXPECT_EQ(right_used[r]++, 0);
    if (k > 0) {
      EXPECT_LT(result.pairs[k - 1].first, l);
    }
    const int index = result.edge_indices[k];
    ASSERT_GE(index, 0);
    ASSERT_LT(index, static_cast<int>(edges.size()));
    EXPECT_EQ(edges[index].left, l);
    EXPECT_EQ(edges[index].right, r);
    for (int e = 0; e < static_cast<int>(edges.size()); ++e) {
      if (edges[e].left != l || edges[e].right != r) continue;
      EXPECT_LE(edges[e].weight, edges[index].weight);
      if (e < index) {
        EXPECT_LT(edges[e].weight, edges[index].weight);
      }
    }
    total += edges[index].weight;
  }
  EXPECT_EQ(total, result.total_weight);
}

class MatchingPropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(MatchingPropertyTest, AgreesWithBruteForce) {
  // Square and rectangular (L << R, L >> R) shapes, with real weights, tied
  // integer weights, zero weights, duplicate edges and isolated nodes.
  struct Shape {
    int num_left;
    int num_right;
    Weights weights;
    double duplicate_rate;
    int isolated;
  };
  const Shape shapes[] = {
      {1, 1, Weights::kReal, 0.3, 0},       {3, 3, Weights::kReal, 0.0, 0},
      {5, 5, Weights::kTies, 0.0, 0},       {6, 6, Weights::kWithZeros, 0.2, 1},
      {5, 5, Weights::kReal, 0.4, 0},       {8, 8, Weights::kTies, 0.0, 3},
      {2, 40, Weights::kTies, 0.1, 5},      {3, 60, Weights::kReal, 0.0, 10},
      {40, 3, Weights::kWithZeros, 0.1, 0}, {1, 64, Weights::kTies, 0.3, 0},
  };
  Rng rng(GetParam());
  for (const Shape& shape : shapes) {
    for (int trial = 0; trial < 20; ++trial) {
      const int num_edges = static_cast<int>(rng.UniformUint64(21));
      std::vector<BipartiteEdge> edges =
          RandomEdges(shape.num_left, shape.num_right, num_edges,
                      shape.weights, shape.duplicate_rate, shape.isolated,
                      &rng);
      MatchingResult fast =
          MaxWeightBipartiteMatching(shape.num_left, shape.num_right, edges);
      auto slow =
          MaxWeightMatchingBruteForce(shape.num_left, shape.num_right, edges);
      ASSERT_TRUE(slow.ok());
      EXPECT_NEAR(fast.total_weight, slow->total_weight, 1e-9)
          << shape.num_left << "x" << shape.num_right << " trial " << trial;
      ExpectValidMatching(shape.num_left, shape.num_right, edges, fast);
    }
  }
}

TEST_P(MatchingPropertyTest, ShuffledInputGivesSamePairs) {
  Rng rng(GetParam());
  for (int trial = 0; trial < 20; ++trial) {
    const bool wide = trial % 2 == 1;
    const int num_left = wide ? 16 : 40;
    const int num_right = wide ? 300 : 40;
    std::vector<BipartiteEdge> edges = RandomEdges(
        num_left, num_right, 200, Weights::kTies, 0.2, 2, &rng);
    MatchingResult first =
        MaxWeightBipartiteMatching(num_left, num_right, edges);
    ExpectValidMatching(num_left, num_right, edges, first);
    rng.Shuffle(&edges);
    MatchingResult shuffled =
        MaxWeightBipartiteMatching(num_left, num_right, edges);
    ExpectValidMatching(num_left, num_right, edges, shuffled);
    EXPECT_EQ(first.pairs, shuffled.pairs) << "trial " << trial;
    EXPECT_EQ(first.total_weight, shuffled.total_weight) << "trial " << trial;
  }
}

TEST_P(MatchingPropertyTest, AgreesWithMinCostFlowOnLargeGraphs) {
  // The marriage graphs' shapes: square A<->B->C graphs (128 x 128, ~2k
  // edges) and the wide ssn graphs (128 x ~1.9k).
  Rng rng(GetParam());
  for (const auto& [num_left, num_right, weights] :
       {std::tuple(128, 128, Weights::kReal),
        std::tuple(128, 128, Weights::kTies),
        std::tuple(128, 1900, Weights::kReal),
        std::tuple(128, 1900, Weights::kTies)}) {
    std::vector<BipartiteEdge> edges = RandomEdges(
        num_left, num_right, 2000, weights, 0.05, 0, &rng);
    MatchingResult fast =
        MaxWeightBipartiteMatching(num_left, num_right, edges);
    MatchingResult reference =
        MaxWeightMatchingMinCostFlow(num_left, num_right, edges);
    EXPECT_NEAR(fast.total_weight, reference.total_weight,
                1e-9 * reference.total_weight)
        << num_left << "x" << num_right;
    ExpectValidMatching(num_left, num_right, edges, fast);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, MatchingPropertyTest,
                         ::testing::Values(101, 202, 303, 404, 505));

TEST(MatchingConcurrencyTest, EightThreadsAgreeWithSequentialRuns) {
  // Graphs of mixed sizes, so each thread's reused scratch grows and is
  // reused at smaller sizes in between.
  Rng rng(77);
  struct Graph {
    int num_left;
    int num_right;
    std::vector<BipartiteEdge> edges;
  };
  std::vector<Graph> graphs;
  for (int g = 0; g < 24; ++g) {
    const int num_left = g % 3 == 0 ? 128 : 4 + g;
    const int num_right = g % 4 == 0 ? 1500 : 8 + 2 * g;
    const int num_edges = g % 3 == 0 ? 1500 : 6 * g;
    graphs.push_back(Graph{
        num_left, num_right,
        RandomEdges(num_left, num_right, num_edges,
                    g % 2 == 0 ? Weights::kTies : Weights::kReal, 0.1, 0,
                    &rng)});
  }
  std::vector<MatchingResult> sequential;
  for (const Graph& graph : graphs) {
    sequential.push_back(MaxWeightBipartiteMatching(
        graph.num_left, graph.num_right, graph.edges));
  }
  constexpr int kThreads = 8;
  std::vector<std::vector<MatchingResult>> concurrent(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      concurrent[t].resize(graphs.size());
      for (int round = 0; round < 3; ++round) {
        for (size_t k = 0; k < graphs.size(); ++k) {
          // Each thread walks the graphs from its own starting point.
          const size_t g = (k + 3 * t) % graphs.size();
          concurrent[t][g] = MaxWeightBipartiteMatching(
              graphs[g].num_left, graphs[g].num_right, graphs[g].edges);
        }
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  for (int t = 0; t < kThreads; ++t) {
    for (size_t g = 0; g < graphs.size(); ++g) {
      EXPECT_EQ(concurrent[t][g].pairs, sequential[g].pairs)
          << "thread " << t << " graph " << g;
      EXPECT_EQ(concurrent[t][g].edge_indices, sequential[g].edge_indices)
          << "thread " << t << " graph " << g;
      EXPECT_EQ(concurrent[t][g].total_weight, sequential[g].total_weight)
          << "thread " << t << " graph " << g;
    }
  }
}

TEST(VertexCoverTest, LocalRatioOnTriangle) {
  NodeWeightedGraph graph(3);
  graph.AddEdge(0, 1);
  graph.AddEdge(1, 2);
  graph.AddEdge(0, 2);
  std::vector<int> cover = VertexCoverLocalRatio(graph);
  EXPECT_TRUE(IsVertexCover(graph, cover));
  // Optimal is 2; the guarantee allows up to 4, but a triangle yields <= 3.
  EXPECT_LE(graph.WeightOf(cover), 4.0);
}

TEST(VertexCoverTest, ExactOnStar) {
  NodeWeightedGraph graph(5);
  for (int leaf = 1; leaf < 5; ++leaf) graph.AddEdge(0, leaf);
  auto cover = MinWeightVertexCoverExact(graph);
  ASSERT_TRUE(cover.ok());
  EXPECT_EQ(cover->size(), 1u);
  EXPECT_EQ((*cover)[0], 0);
  // With a heavy center, the leaves win.
  graph.set_weight(0, 10);
  cover = MinWeightVertexCoverExact(graph);
  ASSERT_TRUE(cover.ok());
  EXPECT_EQ(cover->size(), 4u);
}

TEST(VertexCoverTest, ExactRefusesHugeGraphs) {
  NodeWeightedGraph graph(100);
  EXPECT_EQ(MinWeightVertexCoverExact(graph, 40).status().code(),
            StatusCode::kResourceExhausted);
}

class VertexCoverPropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(VertexCoverPropertyTest, LocalRatioWithinTwiceExact) {
  Rng rng(GetParam());
  for (int trial = 0; trial < 20; ++trial) {
    int n = 4 + static_cast<int>(rng.UniformUint64(12));
    int m = static_cast<int>(rng.UniformUint64(2 * n));
    NodeWeightedGraph graph = RandomGraph(n, std::min<int>(m, n * (n - 1) / 2),
                                          &rng);
    for (int v = 0; v < n; ++v) {
      graph.set_weight(v, rng.UniformDouble(0.5, 4.0));
    }
    std::vector<int> approx = VertexCoverLocalRatio(graph);
    EXPECT_TRUE(IsVertexCover(graph, approx));
    auto exact = MinWeightVertexCoverExact(graph);
    ASSERT_TRUE(exact.ok());
    EXPECT_LE(graph.WeightOf(approx), 2.0 * graph.WeightOf(*exact) + 1e-9);
    // Minimization never breaks validity and never adds weight.
    std::vector<int> minimized = MinimizeCover(graph, approx);
    EXPECT_TRUE(IsVertexCover(graph, minimized));
    EXPECT_LE(graph.WeightOf(minimized), graph.WeightOf(approx) + 1e-12);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, VertexCoverPropertyTest,
                         ::testing::Values(7, 17, 27, 37, 47));

TEST(ConflictGraphTest, EdgesMatchViolations) {
  ParsedFdSet parsed = ParseFdSetInferSchemaOrDie("A -> B");
  Table table(parsed.schema);
  table.AddTuple({"x", "1"}, 2);
  table.AddTuple({"x", "2"}, 1);
  table.AddTuple({"y", "1"}, 1);
  NodeWeightedGraph graph = BuildConflictGraph(TableView(table), parsed.fds);
  EXPECT_EQ(graph.num_nodes(), 3);
  EXPECT_EQ(graph.num_edges(), 1);
  EXPECT_TRUE(graph.HasEdge(0, 1));
  EXPECT_DOUBLE_EQ(graph.weight(0), 2);
}

/// Every violating pair of view indices i < j by brute force over all
/// pairs and FDs, with its expected penalty: ∞ when a hard FD fires, else
/// the soft weights summed in ∆'s order.
std::map<std::pair<int, int>, double> BruteForcePairs(const TableView& view,
                                                      const FdSet& fds) {
  std::map<std::pair<int, int>, double> out;
  for (int i = 0; i < view.num_tuples(); ++i) {
    for (int j = i + 1; j < view.num_tuples(); ++j) {
      bool violated = false;
      bool hard = false;
      double soft = 0;
      for (const Fd& fd : fds.fds()) {
        bool lhs_agree = true;
        ForEachAttr(fd.lhs, [&](AttrId attr) {
          lhs_agree = lhs_agree && view.value(i, attr) == view.value(j, attr);
        });
        if (!lhs_agree || view.value(i, fd.rhs) == view.value(j, fd.rhs)) {
          continue;
        }
        violated = true;
        if (fd.IsHard()) {
          hard = true;
        } else {
          soft += fd.weight;
        }
      }
      if (violated) out[{i, j}] = hard ? kHardFdWeight : soft;
    }
  }
  return out;
}

/// Checks BuildConflictedCore and BuildConflictGraph on `view` against
/// the brute force and the FindViolations oracle.
void ExpectCoreMatchesBruteForce(const TableView& view, const FdSet& fds) {
  const std::map<std::pair<int, int>, double> expected =
      BruteForcePairs(view, fds);
  const ConflictedCore core = BuildConflictedCore(view, fds);

  // Nodes: exactly the view indices of degree > 0, ascending, weighted as
  // their tuples.
  std::vector<int> conflicted;
  for (int i = 0; i < view.num_tuples(); ++i) {
    for (const auto& [pair, penalty] : expected) {
      if (pair.first == i || pair.second == i) {
        conflicted.push_back(i);
        break;
      }
    }
  }
  EXPECT_EQ(core.nodes, conflicted);
  ASSERT_EQ(core.graph.num_nodes(), static_cast<int>(core.nodes.size()));
  for (int c = 0; c < core.graph.num_nodes(); ++c) {
    EXPECT_EQ(core.graph.weight(c), view.weight(core.nodes[c]));
  }

  // Edges: the same pair set, strictly ascending, penalties aligned.
  ASSERT_EQ(core.penalties.size(), core.graph.edges().size());
  std::map<std::pair<int, int>, double> actual;
  for (size_t e = 0; e < core.graph.edges().size(); ++e) {
    const auto [u, v] = core.graph.edges()[e];
    if (e > 0) {
      EXPECT_LT(core.graph.edges()[e - 1], core.graph.edges()[e]);
    }
    actual[{core.nodes[u], core.nodes[v]}] = core.penalties[e];
  }
  EXPECT_EQ(actual, expected);

  // The complement step: every row except the covered ones, ascending.
  std::vector<int> cover;
  for (int c = 0; c < core.graph.num_nodes(); c += 2) cover.push_back(c);
  std::vector<int> expected_kept;
  for (int i = 0; i < view.num_tuples(); ++i) {
    const auto it = std::find(core.nodes.begin(), core.nodes.end(), i);
    if (it == core.nodes.end() || (it - core.nodes.begin()) % 2 != 0) {
      expected_kept.push_back(view.row(i));
    }
  }
  std::sort(expected_kept.begin(), expected_kept.end());
  EXPECT_EQ(core.KeptRows(view, cover), expected_kept);

  // The full graph: node i is view row i, edges = the oracle's pairs.
  const NodeWeightedGraph graph = BuildConflictGraph(view, fds);
  ASSERT_EQ(graph.num_nodes(), view.num_tuples());
  std::vector<int> view_index(view.table().num_tuples(), -1);
  for (int i = 0; i < view.num_tuples(); ++i) view_index[view.row(i)] = i;
  std::set<std::pair<int, int>> oracle_edges;
  for (const Violation& violation : FindViolations(view, fds)) {
    oracle_edges.insert(std::minmax(view_index[violation.row_i],
                                    view_index[violation.row_j]));
  }
  const std::set<std::pair<int, int>> graph_edges(graph.edges().begin(),
                                                  graph.edges().end());
  EXPECT_EQ(graph_edges, oracle_edges);
  for (int i = 0; i < view.num_tuples(); ++i) {
    EXPECT_EQ(graph.weight(i), view.weight(i));
  }
}

TEST(ConflictedCoreTest, PenaltiesAddAcrossSoftFdsAndHardAbsorbs) {
  // Rows 0 and 1 violate both soft FDs (Σω = 2); rows 2 and 3 violate
  // the hard A -> D and the soft A -> C (∞); row 4 is isolated.
  ParsedFdSet parsed = ParseFdSetInferSchemaOrDie(
      "A -> B @1.5; A -> C @0.5; E -> D");
  Table table(parsed.schema);
  table.AddTuple({"x", "b1", "c1", "e", "d"});
  table.AddTuple({"x", "b2", "c2", "e", "d"});
  table.AddTuple({"y", "b", "c1", "f", "d1"});
  table.AddTuple({"y", "b", "c2", "f", "d2"});
  table.AddTuple({"z", "b", "c", "g", "d"});
  const TableView view(table);
  ExpectCoreMatchesBruteForce(view, parsed.fds);
  const ConflictedCore core = BuildConflictedCore(view, parsed.fds);
  EXPECT_EQ(core.nodes, (std::vector<int>{0, 1, 2, 3}));
  ASSERT_EQ(core.penalties.size(), 2u);
  EXPECT_DOUBLE_EQ(core.penalties[0], 2.0);
  EXPECT_EQ(core.penalties[1], kHardFdWeight);
}

// The FD sets the property test draws from. The test takes an index into
// this list, not the text itself: a `const char*` parameter prints as its
// address, which would make the test names differ from build to build.
constexpr const char* kConflictedCoreFdTexts[] = {
    "A -> B; B -> C", "A B -> C; C -> A; B -> D",
    "A B C -> D; D -> A; {} -> B"};

class ConflictedCorePropertyTest
    : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(ConflictedCorePropertyTest, MatchesAllPairsBruteForce) {
  const auto [set_index, seed] = GetParam();
  ParsedFdSet parsed =
      ParseFdSetInferSchemaOrDie(kConflictedCoreFdTexts[set_index]);
  Rng rng(seed);
  // A hard/soft mix: each FD hard with probability 1/4, else a soft
  // weight from {0.5, 1.25, 3}.
  std::vector<double> weights;
  for (int f = 0; f < parsed.fds.size(); ++f) {
    const int pick = static_cast<int>(rng.UniformInt(0, 3));
    weights.push_back(pick == 0 ? kHardFdWeight
                                : std::vector<double>{0.5, 1.25, 3}[pick - 1]);
  }
  const FdSet fds = parsed.fds.WithWeights(weights).value();
  RandomTableOptions options;
  options.num_tuples = 40;
  options.domain_size = 3;  // small domains: duplicates and dense conflicts
  options.heavy_fraction = 0.5;
  const Table table = RandomTable(parsed.schema, options, &rng);
  ExpectCoreMatchesBruteForce(TableView(table), fds);
  // A sub-view whose view indices differ from its row positions.
  std::vector<int> rows;
  for (int row = table.num_tuples() - 1; row >= 0; row -= 2) {
    rows.push_back(row);
  }
  ExpectCoreMatchesBruteForce(TableView(table, rows), fds);
}

INSTANTIATE_TEST_SUITE_P(
    SetsAndSeeds, ConflictedCorePropertyTest,
    ::testing::Combine(::testing::Values(0, 1, 2),
                       ::testing::Values(3, 11, 29)));

}  // namespace
}  // namespace fdrepair
