// Tests for the exact U-repair routes: consensus plurality (Prop B.2),
// Prop 4.4's two conversions, the common-lhs route (Cor 4.6), the key-cycle
// route (Prop 4.9), the exhaustive solver, and the Corollary 4.5 sandwich.
//
// Since the routes were ported onto the span/columnar grouping core, this
// file also pins them bit-identical to the preserved pre-port reference
// implementations (oracles/reference_routes.h) across every named FD set,
// and thread counts 1/2/8 — the §4 companion of span_recursion_test.cc.

#include <gtest/gtest.h>

#include <string>
#include <tuple>

#include "common/random.h"
#include "engine/thread_pool.h"
#include "oracles/reference_routes.h"
#include "srepair/opt_srepair.h"
#include "srepair/srepair_exact.h"
#include "storage/consistency.h"
#include "storage/distance.h"
#include "storage/row_span.h"
#include "urepair/covers.h"
#include "urepair/opt_urepair.h"
#include "urepair/planner.h"
#include "urepair/update.h"
#include "urepair/urepair_common_lhs.h"
#include "urepair/urepair_consensus.h"
#include "urepair/urepair_exact.h"
#include "urepair/urepair_key_cycle.h"
#include "workloads/example_fdsets.h"
#include "workloads/generators.h"
#include "workloads/office.h"

namespace fdrepair {
namespace {

// The consensus route runs inside the planner: ∆ made only of consensus
// FDs is repaired by ComputeURepair's plurality sweep alone.
TEST(ConsensusRepairTest, WeightedPlurality) {
  ParsedFdSet parsed = ParseFdSetInferSchemaOrDie("{} -> A");
  Table table(parsed.schema);
  table.AddTuple({"x"}, 1);
  table.AddTuple({"y"}, 3);
  table.AddTuple({"x"}, 1);
  auto repaired = ComputeURepair(parsed.fds, table);
  ASSERT_TRUE(repaired.ok()) << repaired.status();
  const Table& update = repaired->update;
  EXPECT_TRUE(Satisfies(update, parsed.fds));
  EXPECT_DOUBLE_EQ(DistUpdOrDie(update, table), 2);  // both x's flip
  EXPECT_DOUBLE_EQ(repaired->distance, 2);
  EXPECT_TRUE(repaired->optimal);
  EXPECT_EQ(update.ValueText(0, 0), "y");
  EXPECT_DOUBLE_EQ(ConsensusPluralityCost(table, AttrSet::Of({0})), 2);
}

TEST(ConsensusRepairTest, PerAttributeIndependence) {
  // Two consensus attributes repaired to their own plurality values.
  ParsedFdSet parsed = ParseFdSetInferSchemaOrDie("{} -> A; {} -> B");
  Table table(parsed.schema);
  table.AddTuple({"x", "q"}, 1);
  table.AddTuple({"x", "r"}, 2);
  table.AddTuple({"y", "r"}, 1);
  auto repaired = ComputeURepair(parsed.fds, table);
  ASSERT_TRUE(repaired.ok()) << repaired.status();
  EXPECT_TRUE(Satisfies(repaired->update, parsed.fds));
  // A: keep x (weight 3 vs 1); B: keep r (weight 3 vs 1); cost 1 + 1.
  EXPECT_DOUBLE_EQ(DistUpdOrDie(repaired->update, table), 2);
  EXPECT_EQ(repaired->update.ValueText(2, 0), "x");
  EXPECT_EQ(repaired->update.ValueText(0, 1), "r");
}

TEST(ConsensusRepairTest, MatchesExactOptimum) {
  Rng rng(321);
  ParsedFdSet parsed = ParseFdSetInferSchemaOrDie("{} -> A; {} -> B");
  for (int trial = 0; trial < 10; ++trial) {
    RandomTableOptions options;
    options.num_tuples = 4;
    options.domain_size = 3;
    options.heavy_fraction = 0.5;
    Rng table_rng = rng.Fork();
    Table table = RandomTable(parsed.schema, options, &table_rng);
    auto plurality = ComputeURepair(parsed.fds, table);
    ASSERT_TRUE(plurality.ok()) << plurality.status();
    auto exact = OptURepairExact(parsed.fds, table);
    ASSERT_TRUE(exact.ok()) << exact.status();
    EXPECT_NEAR(DistUpdOrDie(plurality->update, table),
                DistUpdOrDie(*exact, table), 1e-9);
    EXPECT_NEAR(plurality->distance, ConsensusPluralityCost(
                                         table, AttrSet::Of({0, 1})),
                1e-9);
  }
}

TEST(Prop44Test, UpdateToSubset) {
  // Direction 1: untouched tuples of a consistent update form a consistent
  // subset of no greater cost.
  OfficeExample office = MakeOfficeExample();
  for (const Table* update :
       {&office.update_u1, &office.update_u2, &office.update_u3}) {
    auto rows = UpdateToConsistentSubsetRows(office.table, *update);
    ASSERT_TRUE(rows.ok());
    Table subset = office.table.SubsetByRows(*rows);
    EXPECT_TRUE(Satisfies(subset, office.fds));
    EXPECT_LE(DistSubOrDie(subset, office.table),
              DistUpdOrDie(*update, office.table) + 1e-9);
  }
}

TEST(Prop44Test, SubsetToUpdateCostsMlcTimesDistance) {
  OfficeExample office = MakeOfficeExample();
  // S1 keeps rows {1,2,3} (ids 2,3,4); mlc(office ∆) = 1.
  auto update = SubsetToUpdate(office.fds, office.table, {1, 2, 3});
  ASSERT_TRUE(update.ok());
  EXPECT_TRUE(Satisfies(*update, office.fds));
  EXPECT_DOUBLE_EQ(DistUpdOrDie(*update, office.table), 2);  // 1 · dist_sub
  // Freshened cells are marked fresh in the pool.
  AttrId facility = *office.schema.AttributeId("facility");
  EXPECT_TRUE(office.table.pool()->IsFresh(update->value(0, facility)));
}

TEST(Prop44Test, SubsetToUpdateRejectsConsensus) {
  ParsedFdSet parsed = ParseFdSetInferSchemaOrDie("{} -> A");
  Table table(parsed.schema);
  table.AddTuple({"x"});
  EXPECT_EQ(SubsetToUpdate(parsed.fds, table, {}).status().code(),
            StatusCode::kFailedPrecondition);
}

TEST(Prop44Test, SubsetToUpdateRejectsRowsOutsideTheTable) {
  OfficeExample office = MakeOfficeExample();
  const int n = office.table.num_tuples();
  for (int row : {-1, n}) {
    EXPECT_EQ(SubsetToUpdate(office.fds, office.table, {row}).status().code(),
              StatusCode::kInvalidArgument)
        << row;
  }
}

TEST(CommonLhsRouteTest, OfficeOptimalUpdateCostsTwo) {
  OfficeExample office = MakeOfficeExample();
  auto update = CommonLhsOptimalURepair(office.fds, office.table);
  ASSERT_TRUE(update.ok());
  EXPECT_TRUE(Satisfies(*update, office.fds));
  // Example 2.3: U1 with cost 2 is optimal; the route must match it.
  EXPECT_DOUBLE_EQ(DistUpdOrDie(*update, office.table), 2);
}

TEST(CommonLhsRouteTest, MatchesExactOnRandomTables) {
  Rng rng(654);
  ParsedFdSet office = OfficeFds();
  for (int trial = 0; trial < 8; ++trial) {
    RandomTableOptions options;
    options.num_tuples = 4;
    options.domain_size = 2;
    Rng table_rng = rng.Fork();
    Table table = RandomTable(office.schema, options, &table_rng);
    auto route = CommonLhsOptimalURepair(office.fds, table);
    ASSERT_TRUE(route.ok());
    auto exact = OptURepairExact(office.fds, table);
    ASSERT_TRUE(exact.ok()) << exact.status();
    EXPECT_NEAR(DistUpdOrDie(*route, table), DistUpdOrDie(*exact, table),
                1e-9)
        << table.ToString();
  }
}

TEST(CommonLhsRouteTest, RejectsWrongShapes) {
  EXPECT_EQ(
      CommonLhsOptimalURepair(DeltaTwoDisjoint().fds,
                              Table(DeltaTwoDisjoint().schema))
          .status()
          .code(),
      StatusCode::kFailedPrecondition);
  // Common lhs but hard (Example 4.7's zip set): OptSRepair refuses.
  ParsedFdSet zip = Example47Zip();
  Table table(zip.schema);
  EXPECT_EQ(CommonLhsOptimalURepair(zip.fds, table).status().code(),
            StatusCode::kFailedPrecondition);
}

TEST(KeyCycleTest, Detection) {
  ParsedFdSet cycle = ParseFdSetInferSchemaOrDie("A -> B; B -> A");
  auto detected = DetectKeyCycle(cycle.fds);
  ASSERT_TRUE(detected.has_value());
  EXPECT_EQ(detected->first, 0);
  EXPECT_EQ(detected->second, 1);
  EXPECT_FALSE(DetectKeyCycle(DeltaAtoBtoC().fds).has_value());
  EXPECT_FALSE(DetectKeyCycle(DeltaAKeyBToC().fds).has_value());
  EXPECT_FALSE(DetectKeyCycle(FdSet()).has_value());
}

TEST(KeyCycleTest, AlignmentCostsMatchSRepair) {
  // Proposition 4.9: dist_upd(U*) = dist_sub(S*) despite mlc = 2.
  ParsedFdSet cycle = ParseFdSetInferSchemaOrDie("A -> B; B -> A");
  Table table(cycle.schema);
  table.AddTuple({"a1", "b1"}, 2);
  table.AddTuple({"a1", "b2"}, 1);  // conflicts with 1 on A
  table.AddTuple({"a3", "b1"}, 1);  // conflicts with 1 on B
  auto update = KeyCycleOptimalURepair(cycle.fds, table);
  ASSERT_TRUE(update.ok());
  EXPECT_TRUE(Satisfies(*update, cycle.fds));
  auto srepair = OptSRepair(cycle.fds, table);
  ASSERT_TRUE(srepair.ok());
  EXPECT_DOUBLE_EQ(DistUpdOrDie(*update, table),
                   DistSubOrDie(*srepair, table));
}

class KeyCyclePropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(KeyCyclePropertyTest, MatchesExactOptimum) {
  Rng rng(GetParam());
  ParsedFdSet cycle = ParseFdSetInferSchemaOrDie("A -> B; B -> A");
  for (int trial = 0; trial < 10; ++trial) {
    RandomTableOptions options;
    options.num_tuples = 4 + static_cast<int>(rng.UniformUint64(2));
    options.domain_size = 2 + static_cast<int>(rng.UniformUint64(2));
    options.heavy_fraction = (trial % 2) ? 0.5 : 0.0;
    Rng table_rng = rng.Fork();
    Table table = RandomTable(cycle.schema, options, &table_rng);
    auto route = KeyCycleOptimalURepair(cycle.fds, table);
    ASSERT_TRUE(route.ok());
    EXPECT_TRUE(Satisfies(*route, cycle.fds));
    auto exact = OptURepairExact(cycle.fds, table);
    ASSERT_TRUE(exact.ok()) << exact.status();
    EXPECT_NEAR(DistUpdOrDie(*route, table), DistUpdOrDie(*exact, table),
                1e-9)
        << table.ToString();
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, KeyCyclePropertyTest,
                         ::testing::Values(71, 72, 73, 74));

TEST(ExactURepairTest, FigureOneOptimumIsTwo) {
  OfficeExample office = MakeOfficeExample();
  ExactURepairOptions options;
  options.max_rows = 4;
  options.max_cells = 16;
  auto exact = OptURepairExact(office.fds, office.table, options);
  ASSERT_TRUE(exact.ok()) << exact.status();
  EXPECT_TRUE(Satisfies(*exact, office.fds));
  EXPECT_DOUBLE_EQ(DistUpdOrDie(*exact, office.table), 2);
}

TEST(ExactURepairTest, GuardsBySize) {
  ParsedFdSet parsed = DeltaAtoBtoC();
  Rng rng(1);
  RandomTableOptions options;
  options.num_tuples = 12;
  Table table = RandomTable(parsed.schema, options, &rng);
  EXPECT_EQ(OptURepairExact(parsed.fds, table).status().code(),
            StatusCode::kResourceExhausted);
}

TEST(ExactURepairTest, CleanTableCostsZero) {
  ParsedFdSet parsed = DeltaAtoBtoC();
  Table table(parsed.schema);
  table.AddTuple({"a1", "b1", "c1"});
  table.AddTuple({"a2", "b2", "c2"});
  auto exact = OptURepairExact(parsed.fds, table);
  ASSERT_TRUE(exact.ok());
  EXPECT_DOUBLE_EQ(DistUpdOrDie(*exact, table), 0);
}

// Corollary 4.5: dist_sub(S*) <= dist_upd(U*) <= mlc(∆) · dist_sub(S*) for
// consensus-free ∆, verified with both exact solvers.
class SandwichPropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(SandwichPropertyTest, Corollary45Holds) {
  Rng rng(GetParam());
  for (const NamedFdSet& named : AllNamedFdSets()) {
    FdSet delta = named.parsed.fds.WithoutTrivial();
    if (!delta.IsConsensusFree() || delta.empty()) continue;
    if (delta.Attrs().size() > 5) continue;  // keep the exact solver fast
    auto mlc = Mlc(delta);
    ASSERT_TRUE(mlc.ok());
    RandomTableOptions options;
    options.num_tuples = 4;
    options.domain_size = 2;
    Rng table_rng = rng.Fork();
    Table table = RandomTable(named.parsed.schema, options, &table_rng);
    auto subset = OptSRepairExact(delta, table);
    ASSERT_TRUE(subset.ok());
    double s_star = DistSubOrDie(*subset, table);
    auto update = OptURepairExact(delta, table);
    ASSERT_TRUE(update.ok()) << named.name << ": " << update.status();
    double u_star = DistUpdOrDie(*update, table);
    EXPECT_LE(s_star, u_star + 1e-9) << named.name;
    EXPECT_LE(u_star, *mlc * s_star + 1e-9) << named.name;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SandwichPropertyTest,
                         ::testing::Values(81, 82, 83));

// ---------------------------------------------------------------------------
// Span-port oracle: the live routes (DenseValueIndex + columnar scans) must
// be bit-identical to the preserved reference implementations.
// ---------------------------------------------------------------------------

void ExpectSameUpdate(const Table& expected, const Table& actual,
                      const std::string& context) {
  ASSERT_EQ(expected.num_tuples(), actual.num_tuples()) << context;
  for (int row = 0; row < expected.num_tuples(); ++row) {
    EXPECT_EQ(expected.id(row), actual.id(row)) << context << " row " << row;
    for (int c = 0; c < expected.schema().arity(); ++c) {
      EXPECT_EQ(expected.ValueText(row, c), actual.ValueText(row, c))
          << context << " row " << row << " col " << c;
    }
  }
}

/// What the service does with an edit list: replay it onto a clone.
Table ApplyCellEdits(const Table& table, const OptURepairResult& cells) {
  Table update = table.Clone();
  for (const URepairCellEdit& edit : cells.edits) {
    auto row = update.RowOf(edit.id);
    EXPECT_TRUE(row.ok());
    update.SetValue(*row, edit.attr, update.Intern(edit.text));
  }
  return update;
}

class URepairSpanOracleTest
    : public ::testing::TestWithParam<std::tuple<int, uint64_t>> {};

TEST_P(URepairSpanOracleTest, BitIdenticalToReferenceAndAcrossThreads) {
  const auto& [set_index, seed] = GetParam();
  NamedFdSet named = AllNamedFdSets()[set_index];
  URepairOptions options;
  // The tiny exhaustive solver is shared between oracle and live plans, so
  // exercising it here would compare it against itself; disable it and let
  // hard components take the approximation routes, which were ported.
  options.allow_exact_search = false;
  Rng rng(seed);
  for (int trial = 0; trial < 4; ++trial) {
    RandomTableOptions topt;
    topt.num_tuples = 20 + static_cast<int>(rng.UniformUint64(180));
    topt.domain_size = 2 + static_cast<int>(rng.UniformUint64(4));
    topt.heavy_fraction = (trial % 2 == 0) ? 0.5 : 0.0;
    Rng table_rng = rng.Fork();
    Table table = RandomTable(named.parsed.schema, topt, &table_rng);

    auto reference = ReferenceComputeURepair(named.parsed.fds, table, options);
    ASSERT_TRUE(reference.ok()) << named.name << ": " << reference.status();
    auto live = ComputeURepair(named.parsed.fds, table, options);
    ASSERT_TRUE(live.ok()) << named.name << ": " << live.status();
    const std::string context =
        named.name + " trial " + std::to_string(trial);
    ExpectSameUpdate(reference->update, live->update, context);
    EXPECT_EQ(reference->distance, live->distance) << context;
    EXPECT_EQ(reference->optimal, live->optimal) << context;

    // The cell-edit pipeline at forced fan-out must replay to the same
    // update at every thread count.
    for (int threads : {2, 8}) {
      ThreadPool pool(threads);
      OptURepairOptions cell_options;
      cell_options.planner = options;
      cell_options.exec.pool = &pool;
      cell_options.exec.parallel_cutoff = 1;  // fan out any multi-row block
      auto cells =
          OptURepairCells(named.parsed.fds, table, cell_options, nullptr);
      ASSERT_TRUE(cells.ok()) << named.name << ": " << cells.status();
      ExpectSameUpdate(live->update, cells->update,
                       context + " threads " + std::to_string(threads));
      ExpectSameUpdate(live->update, ApplyCellEdits(table, *cells),
                       context + " threads " + std::to_string(threads));
      EXPECT_EQ(live->distance, cells->distance)
          << context << " threads " << threads;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    SetsAndSeeds, URepairSpanOracleTest,
    ::testing::Combine(
        ::testing::Range(0, static_cast<int>(AllNamedFdSets().size())),
        ::testing::Values(uint64_t{2027}, uint64_t{2029})));

}  // namespace
}  // namespace fdrepair
