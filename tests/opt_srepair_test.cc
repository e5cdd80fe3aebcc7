// Tests for OptSRepair (Algorithm 1): the Figure-1 example, each subroutine
// in isolation, weighted/duplicate support (Theorem 3.2), and the key
// property — on the tractable side it matches the exact branch-and-bound
// optimum on randomized instances.

#include <gtest/gtest.h>

#include "common/random.h"
#include "srepair/opt_srepair.h"
#include "srepair/osr_succeeds.h"
#include "srepair/srepair_exact.h"
#include "storage/consistency.h"
#include "storage/distance.h"
#include "workloads/example_fdsets.h"
#include "workloads/generators.h"
#include "workloads/office.h"

namespace fdrepair {
namespace {

TEST(OptSRepairTest, OfficeOptimumIsTwo) {
  OfficeExample office = MakeOfficeExample();
  auto repair = OptSRepair(office.fds, office.table);
  ASSERT_TRUE(repair.ok());
  EXPECT_TRUE(Satisfies(*repair, office.fds));
  EXPECT_DOUBLE_EQ(DistSubOrDie(*repair, office.table), 2);
}

TEST(OptSRepairTest, TrivialFdSetKeepsEverything) {
  OfficeExample office = MakeOfficeExample();
  auto repair = OptSRepair(FdSet(), office.table);
  ASSERT_TRUE(repair.ok());
  EXPECT_EQ(repair->num_tuples(), office.table.num_tuples());
}

TEST(OptSRepairTest, FailsOnHardSets) {
  ParsedFdSet hard = DeltaAtoBtoC();
  Table table(hard.schema);
  table.AddTuple({"a", "b", "c"});
  auto repair = OptSRepair(hard.fds, table);
  EXPECT_EQ(repair.status().code(), StatusCode::kFailedPrecondition);
}

TEST(OptSRepairTest, EmptyTable) {
  ParsedFdSet office = OfficeFds();
  Table table(office.schema);
  auto repair = OptSRepair(office.fds, table);
  ASSERT_TRUE(repair.ok());
  EXPECT_EQ(repair->num_tuples(), 0);
}

// ConsensusRep: ∅ -> A keeps the heaviest A-group.
TEST(OptSRepairTest, ConsensusKeepsHeaviestGroup) {
  ParsedFdSet parsed = ParseFdSetInferSchemaOrDie("{} -> A");
  Table table(parsed.schema);
  table.AddTuple({"x"}, 1);
  table.AddTuple({"y"}, 2);
  table.AddTuple({"x"}, 0.5);
  auto repair = OptSRepair(parsed.fds, table);
  ASSERT_TRUE(repair.ok());
  ASSERT_EQ(repair->num_tuples(), 1);
  EXPECT_EQ(repair->ValueText(0, 0), "y");
}

// CommonLHSRep: groups solved independently and unioned.
TEST(OptSRepairTest, CommonLhsPartitions) {
  ParsedFdSet parsed = ParseFdSetInferSchemaOrDie("A -> B");
  Table table(parsed.schema);
  table.AddTuple({"g1", "x"}, 1);
  table.AddTuple({"g1", "y"}, 3);
  table.AddTuple({"g2", "z"}, 1);
  auto repair = OptSRepair(parsed.fds, table);
  ASSERT_TRUE(repair.ok());
  // Keeps the weight-3 tuple of g1 and all of g2.
  EXPECT_DOUBLE_EQ(DistSubOrDie(*repair, table), 1);
  EXPECT_EQ(repair->num_tuples(), 2);
}

// MarriageRep: ∆A↔B→C — matching decides which (A, B) blocks survive.
TEST(OptSRepairTest, MarriageMatchingChoosesBestBlocks) {
  ParsedFdSet parsed = DeltaAKeyBToC();
  Table table(parsed.schema);
  // Block (a1, b1) weight 3 vs blocks (a1, b2) + (a2, b1) weight 2 each:
  // the matching must prefer the two lighter blocks (total 4 > 3).
  table.AddTuple({"a1", "b1", "c"}, 3);
  table.AddTuple({"a1", "b2", "c"}, 2);
  table.AddTuple({"a2", "b1", "c"}, 2);
  auto repair = OptSRepair(parsed.fds, table);
  ASSERT_TRUE(repair.ok());
  EXPECT_TRUE(Satisfies(*repair, parsed.fds));
  EXPECT_DOUBLE_EQ(DistSubOrDie(*repair, table), 3);
}

// The marriage subroutine must also enforce ∆ − X1X2 within blocks.
TEST(OptSRepairTest, MarriageRecursionInsideBlocks) {
  ParsedFdSet parsed = DeltaAKeyBToC();
  Table table(parsed.schema);
  table.AddTuple({"a", "b", "c1"}, 1);
  table.AddTuple({"a", "b", "c2"}, 1);  // violates {} -> C inside the block
  auto repair = OptSRepair(parsed.fds, table);
  ASSERT_TRUE(repair.ok());
  EXPECT_EQ(repair->num_tuples(), 1);
}

TEST(OptSRepairTest, DuplicatesSupported) {
  ParsedFdSet parsed = ParseFdSetInferSchemaOrDie("A -> B");
  Table table(parsed.schema);
  table.AddTuple({"a", "x"}, 1);
  table.AddTuple({"a", "x"}, 1);  // duplicate, distinct id
  table.AddTuple({"a", "y"}, 1);
  auto repair = OptSRepair(parsed.fds, table);
  ASSERT_TRUE(repair.ok());
  // Keeping both duplicates (weight 2) beats keeping "y" (weight 1).
  EXPECT_EQ(repair->num_tuples(), 2);
  EXPECT_DOUBLE_EQ(DistSubOrDie(*repair, table), 1);
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

// Property: on every tractable named FD set, OptSRepair equals the exact
// branch-and-bound optimum on random tables — weighted and unweighted.
class OptSRepairPropertyTest
    : public ::testing::TestWithParam<std::tuple<int, uint64_t>> {};

TEST_P(OptSRepairPropertyTest, MatchesExactOptimum) {
  const auto& [set_index, seed] = GetParam();
  NamedFdSet named = AllNamedFdSets()[set_index];
  Rng rng(seed);
  for (int trial = 0; trial < 12; ++trial) {
    RandomTableOptions options;
    options.num_tuples = 4 + static_cast<int>(rng.UniformUint64(10));
    options.domain_size = 2 + static_cast<int>(rng.UniformUint64(3));
    options.heavy_fraction = (trial % 2 == 0) ? 0.5 : 0.0;
    Rng table_rng = rng.Fork();
    Table table = RandomTable(named.parsed.schema, options, &table_rng);

    auto fast = OptSRepair(named.parsed.fds, table);
    ASSERT_TRUE(fast.ok()) << named.name << ": " << fast.status();
    EXPECT_TRUE(Satisfies(*fast, named.parsed.fds)) << named.name;
    double fast_distance = DistSubOrDie(*fast, table);

    auto exact = OptSRepairExact(named.parsed.fds, table);
    ASSERT_TRUE(exact.ok()) << named.name << ": " << exact.status();
    double exact_distance = DistSubOrDie(*exact, table);
    EXPECT_NEAR(fast_distance, exact_distance, 1e-9)
        << named.name << " trial " << trial << "\n"
        << table.ToString();
  }
}

INSTANTIATE_TEST_SUITE_P(
    SetsAndSeeds, OptSRepairPropertyTest,
    ::testing::Combine(::testing::ValuesIn(TractableSetIndices()),
                       ::testing::Values(uint64_t{91}, uint64_t{92})));

// Planted dirty tables: repairs stay consistent and cheap relative to the
// number of corruptions.
TEST(OptSRepairTest, PlantedTablesRepairable) {
  Rng rng(777);
  ParsedFdSet office = OfficeFds();
  PlantedTableOptions options;
  options.num_tuples = 60;
  options.corruptions = 8;
  Table table = PlantedDirtyTable(office.schema, office.fds, options, &rng);
  auto repair = OptSRepair(office.fds, table);
  ASSERT_TRUE(repair.ok());
  EXPECT_TRUE(Satisfies(*repair, office.fds));
  // Deleting every corrupted tuple would cost at most `corruptions` weight-1
  // tuples; the optimum cannot be worse.
  EXPECT_LE(DistSubOrDie(*repair, table), 8.0);
}

}  // namespace
}  // namespace fdrepair
