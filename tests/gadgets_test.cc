// Tests for the hardness gadgets: each construction's combinatorial
// equivalence, verified against exact solvers on small instances —
// Lemma A.13 (MAX-non-mixed-SAT), Lemma A.11 (triangle packing) and
// Theorem 4.10 (vertex cover for U-repairs).

#include <gtest/gtest.h>

#include "common/random.h"
#include "graph/vertex_cover.h"
#include "oracles/table_predicates.h"
#include "reductions/gadgets.h"
#include "srepair/srepair_exact.h"
#include "storage/consistency.h"
#include "storage/distance.h"
#include "urepair/urepair_exact.h"
#include "workloads/graph_gen.h"
#include "workloads/sat_gen.h"

namespace fdrepair {
namespace {

// Lemma A.13: optimal S-repair size = max satisfiable clauses, when every
// clause contributes at least one tuple per variable. The reduction's kept
// count equals the satisfied-clause count only for formulas with one tuple
// selectable per clause; we check the exact equality the lemma proves:
// there is a consistent subset of size >= m iff >= m clauses are satisfiable.
class SatGadgetTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(SatGadgetTest, OptimalRepairEqualsMaxSat) {
  Rng rng(GetParam());
  ParsedFdSet gadget = NonMixedSatGadgetFds();
  for (int trial = 0; trial < 6; ++trial) {
    NonMixedFormula formula = RandomNonMixedFormula(
        3 + static_cast<int>(rng.UniformUint64(3)),
        3 + static_cast<int>(rng.UniformUint64(4)), 2, &rng);
    Table table = NonMixedSatGadgetTable(formula);
    ASSERT_TRUE(IsDuplicateFree(table));
    ASSERT_TRUE(IsUnweighted(table));
    auto repair = OptSRepairExact(gadget.fds, table, 64);
    ASSERT_TRUE(repair.ok()) << repair.status();
    auto max_sat = MaxSatisfiableClausesExact(formula);
    ASSERT_TRUE(max_sat.ok());
    EXPECT_EQ(repair->num_tuples(), *max_sat)
        << "trial " << trial << "\n" << table.ToString();
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SatGadgetTest,
                         ::testing::Values(401, 402, 403));

// Lemma A.11: optimal S-repair size = maximum edge-disjoint triangles.
class TriangleGadgetTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(TriangleGadgetTest, OptimalRepairEqualsPacking) {
  Rng rng(GetParam());
  ParsedFdSet gadget = TrianglePackingGadgetFds();
  int exercised = 0;
  for (int trial = 0; trial < 12 && exercised < 5; ++trial) {
    NodeWeightedGraph graph = RandomTripartiteGraph(4, 0.45, &rng);
    std::vector<Triangle> triangles = EnumerateTriangles(graph, 4);
    if (triangles.empty() || triangles.size() > 18) continue;
    ++exercised;
    Table table = TrianglePackingGadgetTable(triangles);
    auto repair = OptSRepairExact(gadget.fds, table, 64);
    ASSERT_TRUE(repair.ok()) << repair.status();
    auto packing = MaxEdgeDisjointTrianglesExact(graph, triangles, 4);
    ASSERT_TRUE(packing.ok());
    EXPECT_EQ(repair->num_tuples(), *packing) << "trial " << trial;
  }
  EXPECT_GE(exercised, 3);
}

INSTANTIATE_TEST_SUITE_P(Seeds, TriangleGadgetTest,
                         ::testing::Values(501, 502, 503));

// Theorem 4.10 construction: the gadget table and the "vertex cover ->
// update of cost 2|E| + k" direction of the proof, executed literally.
Table BuildCoverUpdate(const NodeWeightedGraph& graph, const Table& gadget,
                       const std::vector<int>& cover) {
  std::vector<char> in_cover(graph.num_nodes(), 0);
  for (int v : cover) in_cover[v] = 1;
  Table update = gadget.Clone();
  auto name = [](int v) { return "v" + std::to_string(v); };
  for (int row = 0; row < update.num_tuples(); ++row) {
    std::string a = update.ValueText(row, 0);
    std::string b = update.ValueText(row, 1);
    std::string c = update.ValueText(row, 2);
    if (a != b) {
      // Edge tuple (u, v, 0): collapse onto the covered endpoint.
      int u = std::atoi(a.c_str() + 1);
      int v = std::atoi(b.c_str() + 1);
      int target = in_cover[u] ? u : v;
      EXPECT_TRUE(in_cover[u] || in_cover[v]);
      update.SetValue(row, 0, update.Intern(name(target)));
      update.SetValue(row, 1, update.Intern(name(target)));
    } else if (c == "1") {
      int v = std::atoi(a.c_str() + 1);
      if (in_cover[v]) update.SetValue(row, 2, update.Intern("0"));
    }
  }
  return update;
}

TEST(VertexCoverGadgetTest, CoverYieldsConsistentUpdateOfProvenCost) {
  Rng rng(88);
  ParsedFdSet gadget = VertexCoverGadgetFds();
  for (int trial = 0; trial < 5; ++trial) {
    NodeWeightedGraph graph = RandomBoundedDegreeGraph(8, 3, 0.7, &rng);
    if (graph.num_edges() == 0) continue;
    Table table = VertexCoverGadgetTable(graph);
    auto cover = MinWeightVertexCoverExact(graph);
    ASSERT_TRUE(cover.ok());
    Table update = BuildCoverUpdate(graph, table, *cover);
    EXPECT_TRUE(Satisfies(update, gadget.fds)) << "trial " << trial;
    // Each edge tuple changes exactly one cell (2|E| total); each covered
    // vertex tuple changes its C cell (k total).
    EXPECT_DOUBLE_EQ(DistUpdOrDie(update, table),
                     2.0 * graph.num_edges() + cover->size());
  }
}

TEST(VertexCoverGadgetTest, TinyGraphOptimalMatches2EPlusVc) {
  // P2 (one edge): vc = 1, so the optimal U-repair distance is 2·1 + 1 = 3.
  NodeWeightedGraph graph(2);
  graph.AddEdge(0, 1);
  ParsedFdSet gadget = VertexCoverGadgetFds();
  Table table = VertexCoverGadgetTable(graph);
  ASSERT_EQ(table.num_tuples(), 4);
  ExactURepairOptions options;
  options.max_rows = 4;
  options.max_cells = 12;
  auto exact = OptURepairExact(gadget.fds, table, options);
  ASSERT_TRUE(exact.ok()) << exact.status();
  EXPECT_DOUBLE_EQ(DistUpdOrDie(*exact, table), 3.0);
}

TEST(VertexCoverGadgetTest, TableShape) {
  NodeWeightedGraph graph(3);
  graph.AddEdge(0, 1);
  graph.AddEdge(1, 2);
  Table table = VertexCoverGadgetTable(graph);
  // 2 tuples per edge + 1 per vertex.
  EXPECT_EQ(table.num_tuples(), 2 * 2 + 3);
  EXPECT_TRUE(IsUnweighted(table));
  EXPECT_TRUE(IsDuplicateFree(table));
}

}  // namespace
}  // namespace fdrepair
