// The Figure 1 / Examples 2.1–2.3 regression suite: every number the paper
// states about the running example, checked end to end.

#include <gtest/gtest.h>

#include "oracles/table_predicates.h"
#include "srepair/planner.h"
#include "storage/consistency.h"
#include "storage/distance.h"
#include "urepair/planner.h"
#include "workloads/office.h"

namespace fdrepair {
namespace {

class OfficeTest : public ::testing::Test {
 protected:
  OfficeExample office_ = MakeOfficeExample();
};

TEST_F(OfficeTest, TableShapeMatchesFigure1a) {
  EXPECT_EQ(office_.table.num_tuples(), 4);
  EXPECT_EQ(office_.table.ValueText(0, 0), "HQ");
  EXPECT_EQ(office_.table.ValueText(0, 3), "Paris");
  EXPECT_EQ(office_.table.ValueText(3, 1), "B35");
  EXPECT_DOUBLE_EQ(office_.table.weight(0), 2);
  EXPECT_DOUBLE_EQ(office_.table.weight(1), 1);
  // Example 2.1: S2 duplicate free and unweighted; S1 not unweighted.
  EXPECT_TRUE(IsDuplicateFree(office_.subset_s2));
  EXPECT_TRUE(IsUnweighted(office_.subset_s2));
  EXPECT_FALSE(IsUnweighted(office_.subset_s1));
}

TEST_F(OfficeTest, TViolatesButRepairsSatisfy) {
  EXPECT_FALSE(Satisfies(office_.table, office_.fds));
  EXPECT_TRUE(Satisfies(office_.subset_s1, office_.fds));
  EXPECT_TRUE(Satisfies(office_.subset_s2, office_.fds));
  EXPECT_TRUE(Satisfies(office_.subset_s3, office_.fds));
  EXPECT_TRUE(Satisfies(office_.update_u1, office_.fds));
  EXPECT_TRUE(Satisfies(office_.update_u2, office_.fds));
  EXPECT_TRUE(Satisfies(office_.update_u3, office_.fds));
}

TEST_F(OfficeTest, Example23Distances) {
  EXPECT_DOUBLE_EQ(DistSubOrDie(office_.subset_s1, office_.table), 2);
  EXPECT_DOUBLE_EQ(DistSubOrDie(office_.subset_s2, office_.table), 2);
  EXPECT_DOUBLE_EQ(DistSubOrDie(office_.subset_s3, office_.table), 3);
  EXPECT_DOUBLE_EQ(DistUpdOrDie(office_.update_u1, office_.table), 2);
  EXPECT_DOUBLE_EQ(DistUpdOrDie(office_.update_u2, office_.table), 3);
  EXPECT_DOUBLE_EQ(DistUpdOrDie(office_.update_u3, office_.table), 4);
}

TEST_F(OfficeTest, S1AndS2AreOptimalSRepairs) {
  auto result = ComputeSRepair(office_.fds, office_.table);
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->optimal);
  EXPECT_EQ(result->algorithm, SRepairAlgorithm::kOptSRepair);
  EXPECT_DOUBLE_EQ(result->distance, 2);  // = dist(S1) = dist(S2)
  // S3 is 1.5-optimal, not optimal.
  EXPECT_DOUBLE_EQ(DistSubOrDie(office_.subset_s3, office_.table) /
                       result->distance,
                   1.5);
}

TEST_F(OfficeTest, U1IsOptimalURepair) {
  auto result = ComputeURepair(office_.fds, office_.table);
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->optimal);
  EXPECT_DOUBLE_EQ(result->distance,
                   DistUpdOrDie(office_.update_u1, office_.table));
}

TEST_F(OfficeTest, VerdictsMatchExample35AndExample47) {
  // Example 3.5: the office ∆ passes OSRSucceeds.
  SRepairVerdict verdict = ClassifySRepair(office_.fds);
  EXPECT_TRUE(verdict.polynomial);
  EXPECT_FALSE(verdict.hard_class.has_value());
  // Example 4.7: hence an optimal U-repair is polynomial too (common lhs).
  auto plan = PlanURepair(office_.fds);
  ASSERT_TRUE(plan.ok());
  EXPECT_EQ(plan->complexity, URepairComplexity::kPolynomial);
  ASSERT_EQ(plan->components.size(), 1u);
  EXPECT_EQ(plan->components[0].route, URepairRoute::kCommonLhsExact);
}

TEST_F(OfficeTest, DeltaIsAChain) {
  EXPECT_TRUE(office_.fds.IsChain());  // Example 2.2
}

}  // namespace
}  // namespace fdrepair
