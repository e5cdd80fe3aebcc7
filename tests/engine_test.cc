// The parallel repair engine: work-stealing pool, block partitioner,
// batch RepairEngine. The load-bearing properties:
//   - results are bit-identical for every thread count (1/2/8);
//   - per-job deadlines expire with kDeadlineExceeded and leak nothing;
//   - a mixed batch matches the sequential planner job for job.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <vector>

#include "common/random.h"
#include "engine/repair_engine.h"
#include "engine/thread_pool.h"
#include "oracles/block_partition.h"
#include "srepair/opt_srepair.h"
#include "srepair/planner.h"
#include "storage/consistency.h"
#include "workloads/example_fdsets.h"
#include "workloads/generators.h"

namespace fdrepair {
namespace {

std::vector<TupleId> Ids(const Table& table) {
  std::vector<TupleId> ids;
  for (int i = 0; i < table.num_tuples(); ++i) ids.push_back(table.id(i));
  return ids;
}

TEST(ThreadPoolTest, ParallelForCoversEveryIndexExactlyOnce) {
  ThreadPool pool(4);
  constexpr int kN = 1000;
  std::vector<std::atomic<int>> hits(kN);
  pool.ParallelFor(kN, [&](int i) { hits[i].fetch_add(1); });
  for (int i = 0; i < kN; ++i) EXPECT_EQ(hits[i].load(), 1) << i;
}

TEST(ThreadPoolTest, NestedParallelForDoesNotDeadlock) {
  ThreadPool pool(2);
  std::atomic<int> total{0};
  pool.ParallelFor(8, [&](int) {
    pool.ParallelFor(8, [&](int) { total.fetch_add(1); });
  });
  EXPECT_EQ(total.load(), 64);
}

TEST(ThreadPoolTest, SubmittedTasksAllRunBeforeDestruction) {
  std::atomic<int> ran{0};
  {
    ThreadPool pool(3);
    for (int i = 0; i < 200; ++i) {
      pool.Submit([&ran] { ran.fetch_add(1); });
    }
    // The destructor drains the queues: nothing may be leaked.
  }
  EXPECT_EQ(ran.load(), 200);
}

TEST(ThreadPoolTest, OneThreadPoolRunsInline) {
  ThreadPool pool(1);
  std::vector<int> order;
  pool.ParallelFor(5, [&](int i) { order.push_back(i); });
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(BlockPartitionerTest, MatchesTableViewGroupBy) {
  ParsedFdSet parsed = OfficeFds();
  Table table = ScalingFamilyTable(parsed, 500, 7);
  TableView view(table);
  AttrSet attrs = AttrSet::Singleton(0);
  BlockPartition partition = PartitionByAttrs(view, attrs);
  std::vector<TableView> groups = view.GroupBy(attrs);
  ASSERT_EQ(partition.blocks.size(), groups.size());
  for (size_t g = 0; g < groups.size(); ++g) {
    EXPECT_EQ(partition.blocks[g].view.rows(), groups[g].rows()) << g;
    // The stored key is the witness projection of the block.
    EXPECT_EQ(partition.blocks[g].key,
              ProjectTuple(groups[g].tuple(0), attrs));
  }
}

TEST(BlockPartitionerTest, MarriageEndpointsIndexDistinctProjections) {
  ParsedFdSet parsed = DeltaAKeyBToC();
  Table table = ScalingFamilyTable(parsed, 400, 9);
  TableView view(table);
  AttrSet x1 = AttrSet::Singleton(0);
  AttrSet x2 = AttrSet::Singleton(1);
  BlockPartition partition = PartitionForMarriage(view, x1, x2);
  ASSERT_GT(partition.blocks.size(), 0u);
  EXPECT_GT(partition.num_left, 0);
  EXPECT_GT(partition.num_right, 0);
  // Two blocks share a left endpoint iff they share the π_X1 projection
  // (and symmetrically on the right); endpoint ids are dense.
  for (const RepairBlock& a : partition.blocks) {
    EXPECT_GE(a.left, 0);
    EXPECT_LT(a.left, partition.num_left);
    EXPECT_GE(a.right, 0);
    EXPECT_LT(a.right, partition.num_right);
    for (const RepairBlock& b : partition.blocks) {
      ProjectionKey a1 = ProjectTuple(a.view.tuple(0), x1);
      ProjectionKey b1 = ProjectTuple(b.view.tuple(0), x1);
      EXPECT_EQ(a.left == b.left, a1 == b1);
    }
  }
}

TEST(ParallelOptSRepairTest, BitIdenticalAcrossThreadCounts) {
  for (const auto& [label, parsed] :
       {std::pair<std::string, ParsedFdSet>{"chain", OfficeFds()},
        {"marriage", DeltaAKeyBToC()},
        {"ssn", Example31Ssn()}}) {
    Table table = ScalingFamilyTable(parsed, 4096, 21);
    TableView view(table);
    SRepairPlanCache plan;
    auto sequential = OptSRepairRows(parsed.fds, view, {}, &plan);
    ASSERT_TRUE(sequential.ok()) << label << ": " << sequential.status();
    for (int threads : {2, 8}) {
      ThreadPool pool(threads);
      OptSRepairRowsOptions options;
      options.exec.pool = &pool;
      // Fan out at every step with a multi-row block — the top step
      // included, so the pool really runs blocks concurrently.
      options.exec.parallel_cutoff = 1;
      ASSERT_TRUE(options.exec.FansOut(plan.num_blocks(), view.num_tuples()))
          << label;
      auto parallel = OptSRepairRows(parsed.fds, view, options);
      ASSERT_TRUE(parallel.ok()) << label << ": " << parallel.status();
      EXPECT_EQ(*parallel, *sequential) << label << " threads=" << threads;
    }
  }
}

// The fan-out rule counts the rows beyond each block's first: one-row
// blocks end at the O(1) singleton shortcut, so a 2048-row marriage (≈ one
// row per block) stays sequential at the default cutoff, while the Office
// chain tables the engine bench times still fan out.
TEST(ParallelOptSRepairTest, FansOutOnlyWhereBlocksHoldWork) {
  struct Case {
    std::string label;
    ParsedFdSet parsed;
    int rows;
    int domain_divisor;
    bool fans_out;
  };
  const std::vector<Case> cases = {
      {"A<->B->C 2048", DeltaAKeyBToC(), 2048, 16, false},
      {"ssn 2048", Example31Ssn(), 2048, 16, false},
      {"office 8192 n/16", OfficeFds(), 8192, 16, true},
      {"chain 32768 n/512", OfficeFds(), 32768, 512, true},
  };
  const OptSRepairExec exec;  // the default cutoff
  for (const Case& c : cases) {
    for (uint64_t seed : {1, 2, 3}) {
      Table table =
          ScalingFamilyTable(c.parsed, c.rows, seed, c.domain_divisor);
      SRepairPlanCache plan;  // its block count is the top step's
      ASSERT_TRUE(
          OptSRepairRows(c.parsed.fds, TableView(table), {}, &plan).ok());
      ASSERT_TRUE(plan.spliceable) << c.label;
      EXPECT_EQ(exec.FansOut(plan.num_blocks(), c.rows), c.fans_out)
          << c.label << " seed " << seed << ": " << plan.num_blocks()
          << " blocks";
    }
  }
  EXPECT_FALSE(exec.FansOut(1, 1 << 20));  // one block never fans out
  EXPECT_TRUE(exec.FansOut(2, 2 + exec.parallel_cutoff));
  EXPECT_FALSE(exec.FansOut(2, 1 + exec.parallel_cutoff));
}

TEST(ParallelOptSRepairTest, DeadlineExpiresMidRecursion) {
  ParsedFdSet parsed = OfficeFds();
  Table table = ScalingFamilyTable(parsed, 1000, 33);
  OptSRepairRowsOptions options;
  options.exec.deadline =
      std::chrono::steady_clock::now() - std::chrono::seconds(1);
  auto result = OptSRepairRows(parsed.fds, TableView(table), options);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kDeadlineExceeded);
}

TEST(RepairEngineTest, ExpiredJobReportsDeadlineOthersServe) {
  ParsedFdSet parsed = OfficeFds();
  Table big = ScalingFamilyTable(parsed, 2000, 41);
  Table small = ScalingFamilyTable(parsed, 200, 43);
  std::vector<RepairJob> jobs(3);
  jobs[0].fds = parsed.fds;
  jobs[0].table = &big;
  jobs[0].deadline = std::chrono::milliseconds(0);  // expired at admission
  jobs[1].fds = parsed.fds;
  jobs[1].table = &small;
  jobs[2].fds = parsed.fds;
  jobs[2].table = &big;

  EngineOptions options;
  options.threads = 4;
  RepairEngine engine(options);
  for (int round = 0; round < 3; ++round) {
    auto results = engine.RepairBatch(jobs);
    ASSERT_EQ(results.size(), 3u);
    EXPECT_EQ(results[0].status().code(), StatusCode::kDeadlineExceeded);
    ASSERT_TRUE(results[1].ok()) << results[1].status();
    ASSERT_TRUE(results[2].ok()) << results[2].status();
    EXPECT_TRUE(Satisfies(results[2]->repair, parsed.fds));
  }
  // No tasks were leaked: the pool still runs fresh work to completion.
  std::atomic<int> ran{0};
  engine.pool()->ParallelFor(64, [&](int) { ran.fetch_add(1); });
  EXPECT_EQ(ran.load(), 64);
}

TEST(RepairEngineTest, DefaultDeadlineAppliesToJobsWithoutOne) {
  ParsedFdSet parsed = OfficeFds();
  Table table = ScalingFamilyTable(parsed, 1000, 47);
  EngineOptions options;
  options.threads = 2;
  options.default_deadline = std::chrono::milliseconds(0);
  RepairEngine engine(options);
  RepairJob job;
  job.fds = parsed.fds;
  job.table = &table;
  auto result = engine.Repair(job);
  EXPECT_EQ(result.status().code(), StatusCode::kDeadlineExceeded);
}

TEST(RepairEngineTest, BatchOf100MixedJobsMatchesSequentialPlanner) {
  ParsedFdSet chain = OfficeFds();
  ParsedFdSet marriage = DeltaAKeyBToC();
  ParsedFdSet hard = DeltaAtoBtoC();  // APX-complete: exact or 2-approx route

  std::vector<Table> tables;
  tables.reserve(100);
  std::vector<RepairJob> jobs;
  for (int j = 0; j < 100; ++j) {
    switch (j % 4) {
      case 0:
        tables.push_back(ScalingFamilyTable(chain, 300, 1000 + j));
        break;
      case 1:
        tables.push_back(ScalingFamilyTable(marriage, 200, 2000 + j));
        break;
      case 2:
        // Small hard instance: the exact branch-and-bound route.
        tables.push_back(ScalingFamilyTable(hard, 24, 3000 + j, 4));
        break;
      default:
        // Large hard instance: overflows exact_guard into the 2-approx.
        tables.push_back(ScalingFamilyTable(hard, 300, 4000 + j, 50));
        break;
    }
  }
  for (int j = 0; j < 100; ++j) {
    RepairJob job;
    job.fds = (j % 4 == 0)   ? chain.fds
              : (j % 4 == 1) ? marriage.fds
                             : hard.fds;
    job.table = &tables[j];
    job.options.exec.parallel_cutoff = 64;
    jobs.push_back(std::move(job));
  }

  EngineOptions options;
  options.threads = 8;
  RepairEngine engine(options);
  std::vector<StatusOr<SRepairResult>> batch = engine.RepairBatch(jobs);
  ASSERT_EQ(batch.size(), 100u);

  for (int j = 0; j < 100; ++j) {
    auto sequential = ComputeSRepair(jobs[j].fds, *jobs[j].table);
    ASSERT_TRUE(sequential.ok()) << j << ": " << sequential.status();
    ASSERT_TRUE(batch[j].ok()) << j << ": " << batch[j].status();
    EXPECT_EQ(batch[j]->algorithm, sequential->algorithm) << j;
    EXPECT_EQ(batch[j]->optimal, sequential->optimal) << j;
    EXPECT_EQ(batch[j]->distance, sequential->distance) << j;
    EXPECT_EQ(Ids(batch[j]->repair), Ids(sequential->repair)) << j;
  }
}

TEST(RepairEngineTest, ResultsOrderedByJobNotCompletion) {
  // Jobs of wildly different sizes: completion order differs from job
  // order, results must not.
  ParsedFdSet parsed = OfficeFds();
  std::vector<Table> tables;
  tables.reserve(10);
  std::vector<RepairJob> jobs;
  for (int j = 0; j < 10; ++j) {
    tables.push_back(ScalingFamilyTable(parsed, j % 2 == 0 ? 3000 : 50, 500 + j));
  }
  for (int j = 0; j < 10; ++j) {
    RepairJob job;
    job.fds = parsed.fds;
    job.table = &tables[j];
    jobs.push_back(std::move(job));
  }
  EngineOptions options;
  options.threads = 4;
  RepairEngine engine(options);
  auto results = engine.RepairBatch(jobs);
  ASSERT_EQ(results.size(), 10u);
  for (int j = 0; j < 10; ++j) {
    ASSERT_TRUE(results[j].ok()) << j;
    // Each result answers its own job: every kept id exists in job j's
    // table (tables have disjoint sizes, so mixups change num_tuples).
    EXPECT_LE(results[j]->repair.num_tuples(), tables[j].num_tuples());
    for (TupleId id : Ids(results[j]->repair)) {
      EXPECT_TRUE(tables[j].RowOf(id).ok());
    }
  }
}

TEST(ValuePoolConcurrencyTest, ConcurrentInternAndReadAreSafe) {
  // The audited contract from value_pool.h: readers and writers may run
  // concurrently (TSan exercises this leg in CI).
  ValuePool pool;
  ValueId warm = pool.Intern("warm");
  ThreadPool threads(4);
  threads.ParallelFor(256, [&](int i) {
    if (i % 2 == 0) {
      pool.Intern("value-" + std::to_string(i % 17));
    } else {
      EXPECT_EQ(pool.Text(warm), "warm");
      (void)pool.Lookup("value-" + std::to_string(i % 17));
      (void)pool.IsFresh(warm);
      (void)pool.size();
    }
  });
  EXPECT_EQ(pool.Text(warm), "warm");
  EXPECT_GE(pool.size(), 1);
}

}  // namespace
}  // namespace fdrepair
