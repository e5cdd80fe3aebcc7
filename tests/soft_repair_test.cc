// Soft (weighted) FDs end to end: the parser's @weight grammar, the
// weight-preserving canonical cover, the ω ≡ ∞ pin (soft with all-hard
// weights is bit-identical to the subset pipeline — the tentpole property),
// brute-force agreement of the soft planner, cost monotonicity in weights,
// and the serving layer's unified RepairOptions validation.

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "catalog/fd_parser.h"
#include "common/random.h"
#include "engine/thread_pool.h"
#include "service/repair_service.h"
#include "srepair/planner.h"
#include "srepair/soft_repair.h"
#include "srepair/solver_backend.h"
#include "storage/consistency.h"
#include "storage/table_view.h"
#include "workloads/example_fdsets.h"
#include "workloads/generators.h"

namespace fdrepair {
namespace {

RepairRequest Request(RepairMode mode, const FdSet& fds, const Table* table) {
  RepairRequest request;
  request.mode = mode;
  request.fds = fds;
  request.table = table;
  return request;
}

void ExpectSameRepair(const Table& a, const Table& b,
                      const std::string& label) {
  ASSERT_EQ(a.num_tuples(), b.num_tuples()) << label;
  for (int row = 0; row < a.num_tuples(); ++row) {
    EXPECT_EQ(a.id(row), b.id(row)) << label << " row " << row;
  }
}

// --------------------------------------------------------------------------
// Parser: the '@weight' suffix.
// --------------------------------------------------------------------------

TEST(SoftFdParseTest, WeightSuffixMarksFdsSoft) {
  Schema schema = Schema::MakeOrDie("R", {"A", "B", "C"});
  FdSet fds = ParseFdSetOrDie(schema, "A -> B @2.5; B -> C");
  ASSERT_EQ(fds.size(), 2);
  EXPECT_TRUE(fds.HasSoftFds());
  ASSERT_EQ(fds.SoftPart().size(), 1);
  EXPECT_DOUBLE_EQ(fds.SoftPart().fds()[0].weight, 2.5);
  EXPECT_EQ(fds.HardPart().size(), 1);
}

TEST(SoftFdParseTest, InfAndHardSpellingsStayHard) {
  Schema schema = Schema::MakeOrDie("R", {"A", "B", "C"});
  FdSet plain = ParseFdSetOrDie(schema, "A -> B; B -> C");
  FdSet inf = ParseFdSetOrDie(schema, "A -> B @inf; B -> C @hard");
  EXPECT_EQ(plain, inf);
  EXPECT_FALSE(inf.HasSoftFds());
}

TEST(SoftFdParseTest, WeightDistributesOverMultiRhs) {
  Schema schema = Schema::MakeOrDie("R", {"A", "B", "C"});
  FdSet fds = ParseFdSetOrDie(schema, "A -> B C @2");
  ASSERT_EQ(fds.size(), 2);
  for (const Fd& fd : fds.fds()) EXPECT_DOUBLE_EQ(fd.weight, 2.0);
}

// --------------------------------------------------------------------------
// Canonical cover: weight-preserving reductions only.
// --------------------------------------------------------------------------

TEST(SoftCanonicalCoverTest, ExactDuplicateSoftWeightsAdd) {
  Schema schema = Schema::MakeOrDie("R", {"A", "B"});
  FdSet fds = ParseFdSetOrDie(schema, "A -> B @2; A -> B @3");
  ASSERT_EQ(fds.size(), 1);
  EXPECT_DOUBLE_EQ(fds.fds()[0].weight, 5.0);
}

TEST(SoftCanonicalCoverTest, HardCopyDominatesSoftDuplicate) {
  Schema schema = Schema::MakeOrDie("R", {"A", "B"});
  FdSet fds = ParseFdSetOrDie(schema, "A -> B @2; A -> B");
  ASSERT_EQ(fds.size(), 1);
  EXPECT_TRUE(fds.fds()[0].IsHard());
}

TEST(SoftCanonicalCoverTest, SoftEntailedByHardCoverIsDropped) {
  Schema schema = Schema::MakeOrDie("R", {"A", "B", "C"});
  // A -> C is entailed by the hard part {A -> B, B -> C}: any pair
  // violating it violates a hard FD, so its penalty can never be paid.
  FdSet fds = ParseFdSetOrDie(schema, "A -> B; B -> C; A -> C @1.5");
  FdSet cover = fds.CanonicalCover();
  EXPECT_FALSE(cover.HasSoftFds());
  EXPECT_EQ(cover, ParseFdSetOrDie(schema, "A -> B; B -> C"));
}

TEST(SoftCanonicalCoverTest, TrivialSoftFdIsDropped) {
  Schema schema = Schema::MakeOrDie("R", {"A", "B"});
  FdSet fds = ParseFdSetOrDie(schema, "A B -> B @2; A -> B");
  FdSet cover = fds.CanonicalCover();
  EXPECT_FALSE(cover.HasSoftFds());
}

TEST(SoftCanonicalCoverTest, SoftFdsAreNeverLhsReduced) {
  Schema schema = Schema::MakeOrDie("R", {"A", "B", "C"});
  // Hard canonicalization would strip the extraneous B from "A B -> C"
  // given A -> B; the soft copy must keep its phrasing — it charges
  // different tuple pairs than "A -> C @2" would.
  FdSet fds = ParseFdSetOrDie(schema, "A -> B; A B -> C @2");
  FdSet cover = fds.CanonicalCover();
  ASSERT_EQ(cover.SoftPart().size(), 1);
  EXPECT_EQ(cover.SoftPart().fds()[0].lhs.size(), 2);
}

TEST(SoftCanonicalCoverTest, WithWeightsValidatesSizeAndPositivity) {
  Schema schema = Schema::MakeOrDie("R", {"A", "B", "C"});
  FdSet fds = ParseFdSetOrDie(schema, "A -> B; B -> C");
  EXPECT_FALSE(fds.WithWeights({1.0}).ok());
  EXPECT_FALSE(fds.WithWeights({1.0, -2.0}).ok());
  EXPECT_FALSE(fds.WithWeights({0.0, 1.0}).ok());
  auto weighted = fds.WithWeights({2.0, kHardFdWeight});
  ASSERT_TRUE(weighted.ok());
  EXPECT_EQ(weighted->SoftPart().size(), 1);
  EXPECT_EQ(weighted->HardPart().size(), 1);
}

// --------------------------------------------------------------------------
// The ω ≡ ∞ pin: soft repair with every weight infinite IS the subset
// planner, bit for bit — across FD sets, thread hints, and backends.
// --------------------------------------------------------------------------

class SoftPinTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(SoftPinTest, AllHardComputeSoftRepairMatchesComputeSRepair) {
  // One SRepairOptions object goes to both planners: the defaults, each
  // soft-capable backend, and a 4-thread pool fanning out at every step
  // with a multi-row block (12 rows over a domain of 3 nearly always have
  // one).
  ThreadPool pool(4);
  std::vector<std::pair<std::string, SRepairOptions>> configs;
  configs.emplace_back("default", SRepairOptions{});
  for (const char* backend : {kSolverLocalRatio, kSolverBnb, kSolverIlp}) {
    SRepairOptions with_backend;
    with_backend.backend = backend;
    configs.emplace_back(backend, with_backend);
  }
  SRepairOptions fan_out;
  fan_out.exec.pool = &pool;
  fan_out.exec.parallel_cutoff = 1;
  configs.emplace_back("pool4-cutoff1", fan_out);

  Rng rng(GetParam());
  for (const NamedFdSet& named : AllNamedFdSets()) {
    RandomTableOptions options;
    options.num_tuples = 12;
    options.domain_size = 3;
    options.heavy_fraction = 0.4;
    Rng table_rng = rng.Fork();
    Table table = RandomTable(named.parsed.schema, options, &table_rng);
    std::vector<double> all_inf(named.parsed.fds.size(), kHardFdWeight);
    auto pinned_fds = named.parsed.fds.WithWeights(all_inf);
    ASSERT_TRUE(pinned_fds.ok()) << named.name;

    for (const auto& [config, soptions] : configs) {
      const std::string label = named.name + " " + config;
      auto hard = ComputeSRepair(named.parsed.fds, table, soptions);
      ASSERT_TRUE(hard.ok()) << label << ": " << hard.status();
      auto soft = ComputeSoftRepair(named.parsed.fds, table, soptions);
      ASSERT_TRUE(soft.ok()) << label << ": " << soft.status();
      ExpectSameRepair(soft->repair, hard->repair, label);
      EXPECT_NEAR(soft->cost, hard->distance, 1e-12) << label;
      EXPECT_DOUBLE_EQ(soft->violation_cost, 0) << label;
      EXPECT_EQ(soft->optimal, hard->optimal) << label;
      EXPECT_EQ(soft->backend, hard->backend) << label;
      EXPECT_EQ(soft->route, std::string("soft[") +
                                 SRepairAlgorithmToString(hard->algorithm) +
                                 "]")
          << label;

      // Re-weighting every FD to ∞ explicitly is the same thing.
      auto pinned = ComputeSoftRepair(*pinned_fds, table, soptions);
      ASSERT_TRUE(pinned.ok()) << label << ": " << pinned.status();
      ExpectSameRepair(pinned->repair, hard->repair, label);
    }
  }
}

TEST_P(SoftPinTest, ServiceSoftModeAllHardIsBitIdenticalToSubsetMode) {
  Rng rng(GetParam() + 1);
  for (const NamedFdSet& named : AllNamedFdSets()) {
    RandomTableOptions toptions;
    toptions.num_tuples = 12;
    toptions.domain_size = 3;
    Rng table_rng = rng.Fork();
    Table table = RandomTable(named.parsed.schema, toptions, &table_rng);
    for (int threads : {1, 2, 8}) {
      for (const char* backend : {"", kSolverLocalRatio, kSolverBnb}) {
        RepairService service;
        RepairRequest subset =
            Request(RepairMode::kSubset, named.parsed.fds, &table);
        subset.options.threads = threads;
        subset.options.backend = backend;
        RepairRequest soft =
            Request(RepairMode::kSoft, named.parsed.fds, &table);
        soft.options.threads = threads;
        soft.options.backend = backend;
        // An all-∞ profile must serve identically to no profile.
        soft.options.soft_weights.assign(named.parsed.fds.size(),
                                         kHardFdWeight);

        std::string label = named.name + " threads=" +
                            std::to_string(threads) + " backend=" + backend;
        auto subset_response = service.Serve(subset);
        ASSERT_TRUE(subset_response.ok())
            << label << ": " << subset_response.status();
        auto soft_response = service.Serve(soft);
        ASSERT_TRUE(soft_response.ok())
            << label << ": " << soft_response.status();
        ExpectSameRepair(soft_response->repair, subset_response->repair,
                         label);
        EXPECT_NEAR(soft_response->distance, subset_response->distance,
                    1e-12)
            << label;
        EXPECT_EQ(soft_response->route, "soft[" + subset_response->route + "]")
            << label;
        EXPECT_NE(soft_response->cache_key, subset_response->cache_key)
            << label << ": modes must never share a cache entry";
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SoftPinTest,
                         ::testing::Values(101, 202, 303));

// --------------------------------------------------------------------------
// Soft planner correctness against exhaustive search.
// --------------------------------------------------------------------------

/// min over subsets J satisfying the hard part of: deleted weight +
/// soft-violation cost of J.
double BruteForceSoftCost(const FdSet& fds, const Table& table) {
  const FdSet hard = fds.HardPart();
  int n = table.num_tuples();
  double best = std::numeric_limits<double>::infinity();
  for (uint64_t mask = 0; mask < (uint64_t{1} << n); ++mask) {
    std::vector<int> rows;
    double deleted = 0;
    for (int row = 0; row < n; ++row) {
      if ((mask >> row) & 1) {
        rows.push_back(row);
      } else {
        deleted += table.weight(row);
      }
    }
    Table subset = table.SubsetByRows(rows);
    if (!Satisfies(subset, hard)) continue;
    double cost = deleted + SoftViolationCost(fds, TableView(subset));
    if (cost < best) best = cost;
  }
  return best;
}

class SoftOracleTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(SoftOracleTest, MatchesBruteForceOnMixedWeightSets) {
  Rng rng(GetParam());
  for (const NamedFdSet& named : AllNamedFdSets()) {
    // Alternate finite and infinite weights over the set's FDs.
    std::vector<double> weights;
    for (int i = 0; i < named.parsed.fds.size(); ++i) {
      weights.push_back(i % 2 == 0 ? 0.75 + 0.5 * i : kHardFdWeight);
    }
    auto weighted = named.parsed.fds.WithWeights(weights);
    ASSERT_TRUE(weighted.ok()) << named.name;
    for (int trial = 0; trial < 3; ++trial) {
      RandomTableOptions options;
      options.num_tuples = 9;
      options.domain_size = 2;
      options.heavy_fraction = 0.3;
      Rng table_rng = rng.Fork();
      Table table = RandomTable(named.parsed.schema, options, &table_rng);
      auto result = ComputeSoftRepair(*weighted, table);
      ASSERT_TRUE(result.ok()) << named.name << ": " << result.status();
      EXPECT_TRUE(Satisfies(result->repair, weighted->HardPart()))
          << named.name;
      EXPECT_NEAR(result->cost,
                  result->deleted_weight + result->violation_cost, 1e-9)
          << named.name;
      double oracle = BruteForceSoftCost(*weighted, table);
      if (result->optimal) {
        EXPECT_NEAR(result->cost, oracle, 1e-9)
            << named.name << " trial " << trial << "\n" << table.ToString();
      } else {
        EXPECT_GE(result->cost, oracle - 1e-9) << named.name;
        EXPECT_LE(result->cost, result->ratio_bound * oracle + 1e-9)
            << named.name;
      }
    }
  }
}

TEST_P(SoftOracleTest, SoftCostNeverExceedsHardOptimum) {
  // Keeping the hard-optimal repair is always feasible for the soft
  // objective (zero violations), so the soft optimum is at most the hard
  // one — softening constraints can only help.
  Rng rng(GetParam() + 7);
  for (const NamedFdSet& named : AllNamedFdSets()) {
    std::vector<double> weights(named.parsed.fds.size(), 1.25);
    auto weighted = named.parsed.fds.WithWeights(weights);
    ASSERT_TRUE(weighted.ok()) << named.name;
    RandomTableOptions options;
    options.num_tuples = 10;
    options.domain_size = 2;
    Rng table_rng = rng.Fork();
    Table table = RandomTable(named.parsed.schema, options, &table_rng);
    auto hard = ComputeSRepair(named.parsed.fds, table);
    ASSERT_TRUE(hard.ok()) << named.name;
    auto soft = ComputeSoftRepair(*weighted, table);
    ASSERT_TRUE(soft.ok()) << named.name;
    if (soft->optimal && hard->optimal) {
      EXPECT_LE(soft->cost, hard->distance + 1e-9) << named.name;
    }
  }
}

TEST_P(SoftOracleTest, RaisingAViolatedWeightNeverDecreasesCost) {
  // The objective is pointwise non-decreasing in every ω, so the optimal
  // cost is monotone in each weight.
  Rng rng(GetParam() + 13);
  for (const NamedFdSet& named : AllNamedFdSets()) {
    RandomTableOptions options;
    options.num_tuples = 9;
    options.domain_size = 2;
    Rng table_rng = rng.Fork();
    Table table = RandomTable(named.parsed.schema, options, &table_rng);
    for (int target = 0; target < named.parsed.fds.size(); ++target) {
      std::vector<double> low(named.parsed.fds.size(), kHardFdWeight);
      low[target] = 0.5;
      std::vector<double> high = low;
      high[target] = 2.0;
      auto low_fds = named.parsed.fds.WithWeights(low);
      auto high_fds = named.parsed.fds.WithWeights(high);
      ASSERT_TRUE(low_fds.ok() && high_fds.ok()) << named.name;
      auto low_result = ComputeSoftRepair(*low_fds, table);
      auto high_result = ComputeSoftRepair(*high_fds, table);
      ASSERT_TRUE(low_result.ok()) << named.name << low_result.status();
      ASSERT_TRUE(high_result.ok()) << named.name << high_result.status();
      if (!low_result->optimal || !high_result->optimal) continue;
      EXPECT_GE(high_result->cost, low_result->cost - 1e-9)
          << named.name << " fd " << target;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SoftOracleTest,
                         ::testing::Values(404, 505, 606));

// --------------------------------------------------------------------------
// Soft mode through the serving layer: finite weights, caching, keying.
// --------------------------------------------------------------------------

TEST(SoftServiceTest, FiniteWeightsServeAndReplayBitIdentically) {
  Schema schema = Schema::MakeOrDie("R", {"A", "B"});
  FdSet fds = ParseFdSetOrDie(schema, "A -> B @0.25");
  Table table(schema);
  // Two cheap conflicting pairs: deleting costs 1 per tuple, keeping a
  // violated pair costs 0.25 — the soft optimum keeps everything.
  table.AddTuple({"a", "x"}, 1.0);
  table.AddTuple({"a", "y"}, 1.0);
  table.AddTuple({"b", "x"}, 1.0);
  table.AddTuple({"b", "z"}, 1.0);
  RepairService service;
  RepairRequest request = Request(RepairMode::kSoft, fds, &table);
  auto miss = service.Serve(request);
  ASSERT_TRUE(miss.ok()) << miss.status();
  EXPECT_FALSE(miss->cache_hit);
  EXPECT_EQ(miss->repair.num_tuples(), 4);
  EXPECT_NEAR(miss->distance, 0.5, 1e-12);  // two violated pairs à 0.25
  EXPECT_TRUE(miss->optimal);
  auto direct = ComputeSoftRepair(fds, table);
  ASSERT_TRUE(direct.ok());
  EXPECT_NEAR(direct->cost, miss->distance, 1e-12);

  auto hit = service.Serve(request);
  ASSERT_TRUE(hit.ok()) << hit.status();
  EXPECT_TRUE(hit->cache_hit);
  EXPECT_EQ(hit->cache_key, miss->cache_key);
  ASSERT_EQ(hit->repair.num_tuples(), miss->repair.num_tuples());
  for (int row = 0; row < hit->repair.num_tuples(); ++row) {
    EXPECT_EQ(hit->repair.id(row), miss->repair.id(row));
  }
}

TEST(SoftServiceTest, SoftCoresTakeOnlyThePerRequestBackend) {
  // The service-wide backend need not be soft-capable ("lp-rounding" is
  // not): soft cores take only the request's backend, while the
  // service-wide exact_guard still routes them (0 sends every core to the
  // LP-bounded "ilp" instead of "bnb").
  Schema schema = Schema::MakeOrDie("R", {"A", "B"});
  FdSet fds = ParseFdSetOrDie(schema, "A -> B @0.25");
  Table table(schema);
  table.AddTuple({"a", "x"}, 1.0);
  table.AddTuple({"a", "y"}, 1.0);
  table.AddTuple({"b", "x"}, 1.0);
  table.AddTuple({"b", "z"}, 1.0);
  RepairServiceOptions options;
  options.srepair.backend = kSolverLpRounding;
  options.srepair.exact_guard = 0;
  RepairService service(options);

  auto response = service.Serve(Request(RepairMode::kSoft, fds, &table));
  ASSERT_TRUE(response.ok()) << response.status();
  EXPECT_EQ(response->backend, kSolverIlp);
  SRepairOptions direct_options;
  direct_options.exact_guard = 0;
  auto direct = ComputeSoftRepair(fds, table, direct_options);
  ASSERT_TRUE(direct.ok()) << direct.status();
  ExpectSameRepair(response->repair, direct->repair, "soft");
  EXPECT_NEAR(response->distance, direct->cost, 1e-12);

  // Subset requests on the same service still run the service-wide one.
  FdSet hard = ParseFdSetOrDie(schema, "A -> B");
  auto subset = service.Serve(Request(RepairMode::kSubset, hard, &table));
  ASSERT_TRUE(subset.ok()) << subset.status();
  EXPECT_EQ(subset->backend, kSolverLpRounding);
}

TEST(SoftServiceTest, WeightProfilesKeySeparately) {
  Schema schema = Schema::MakeOrDie("R", {"A", "B"});
  FdSet fds = ParseFdSetOrDie(schema, "A -> B");
  Table table(schema);
  table.AddTuple({"a", "x"}, 1.0);
  table.AddTuple({"a", "y"}, 3.0);
  RepairService service;

  RepairRequest cheap = Request(RepairMode::kSoft, fds, &table);
  cheap.options.soft_weights = {0.5};  // keep both, pay 0.5
  RepairRequest dear = Request(RepairMode::kSoft, fds, &table);
  dear.options.soft_weights = {10.0};  // delete the light tuple, pay 1

  auto cheap_response = service.Serve(cheap);
  auto dear_response = service.Serve(dear);
  ASSERT_TRUE(cheap_response.ok() && dear_response.ok());
  EXPECT_NE(cheap_response->cache_key, dear_response->cache_key);
  EXPECT_FALSE(dear_response->cache_hit);
  EXPECT_NEAR(cheap_response->distance, 0.5, 1e-12);
  EXPECT_EQ(cheap_response->repair.num_tuples(), 2);
  EXPECT_NEAR(dear_response->distance, 1.0, 1e-12);
  EXPECT_EQ(dear_response->repair.num_tuples(), 1);
}

// --------------------------------------------------------------------------
// The central validator: every mode/option mismatch fails with
// kInvalidArgument before any work happens.
// --------------------------------------------------------------------------

class SoftValidationTest : public ::testing::Test {
 protected:
  SoftValidationTest()
      : schema_(Schema::MakeOrDie("R", {"A", "B"})),
        fds_(ParseFdSetOrDie(schema_, "A -> B")),
        table_(schema_) {
    table_.AddTuple({"a", "x"}, 1.0);
    table_.AddTuple({"a", "y"}, 1.0);
  }

  Schema schema_;
  FdSet fds_;
  Table table_;
  RepairService service_;
};

TEST_F(SoftValidationTest, SoftWeightsRejectedOutsideSoftMode) {
  RepairRequest request = Request(RepairMode::kSubset, fds_, &table_);
  request.options.soft_weights = {2.0};
  auto response = service_.Serve(request);
  EXPECT_EQ(response.status().code(), StatusCode::kInvalidArgument);
}

TEST_F(SoftValidationTest, SoftFdsRejectedOutsideSoftMode) {
  FdSet soft = ParseFdSetOrDie(schema_, "A -> B @2");
  for (RepairMode mode : {RepairMode::kSubset, RepairMode::kUpdate}) {
    RepairRequest request = Request(mode, soft, &table_);
    auto response = service_.Serve(request);
    EXPECT_EQ(response.status().code(), StatusCode::kInvalidArgument)
        << RepairModeToString(mode);
  }
}

TEST_F(SoftValidationTest, WrongSizeWeightProfileRejected) {
  RepairRequest request = Request(RepairMode::kSoft, fds_, &table_);
  request.options.soft_weights = {1.0, 2.0};  // fds has one FD
  auto response = service_.Serve(request);
  EXPECT_EQ(response.status().code(), StatusCode::kInvalidArgument);
}

TEST_F(SoftValidationTest, NonSoftCapableBackendRejectedOnSoftCore) {
  FdSet soft = ParseFdSetOrDie(schema_, "A -> B @2");
  RepairRequest request = Request(RepairMode::kSoft, soft, &table_);
  request.options.backend = kSolverLpRounding;
  auto response = service_.Serve(request);
  EXPECT_EQ(response.status().code(), StatusCode::kInvalidArgument);
}

TEST_F(SoftValidationTest, UnknownBackendRejected) {
  RepairRequest request = Request(RepairMode::kSubset, fds_, &table_);
  request.options.backend = "no-such-solver";
  auto response = service_.Serve(request);
  EXPECT_EQ(response.status().code(), StatusCode::kInvalidArgument);
}

TEST_F(SoftValidationTest, BackendAndMaxRatioRejectedInUpdateMode) {
  RepairRequest with_backend = Request(RepairMode::kUpdate, fds_, &table_);
  with_backend.options.backend = kSolverBnb;
  EXPECT_EQ(service_.Serve(with_backend).status().code(),
            StatusCode::kInvalidArgument);
  RepairRequest with_ratio = Request(RepairMode::kUpdate, fds_, &table_);
  with_ratio.options.max_ratio = 2.0;
  EXPECT_EQ(service_.Serve(with_ratio).status().code(),
            StatusCode::kInvalidArgument);
}

TEST_F(SoftValidationTest, DeltaWithBypassCacheRejectedExplicitly) {
  // Incremental replay is defined by cached state; silently ignoring the
  // combination (the historical behavior) masked caller bugs.
  TableDelta delta;
  delta.base_hash = 1;
  delta.result_hash = 2;
  RepairRequest request = Request(RepairMode::kSubset, fds_, &table_);
  request.delta = &delta;
  request.options.bypass_cache = true;
  auto response = service_.Serve(request);
  ASSERT_EQ(response.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(response.status().message().find("bypass_cache"),
            std::string::npos);
}

TEST_F(SoftValidationTest, DeltaRejectedInSoftMode) {
  TableDelta delta;
  delta.base_hash = 1;
  delta.result_hash = 2;
  RepairRequest request = Request(RepairMode::kSoft, fds_, &table_);
  request.delta = &delta;
  auto response = service_.Serve(request);
  EXPECT_EQ(response.status().code(), StatusCode::kInvalidArgument);
}

TEST_F(SoftValidationTest, NegativeKnobsRejected) {
  RepairRequest ratio = Request(RepairMode::kSubset, fds_, &table_);
  ratio.options.max_ratio = -1.0;
  EXPECT_EQ(service_.Serve(ratio).status().code(),
            StatusCode::kInvalidArgument);
  RepairRequest threads = Request(RepairMode::kSubset, fds_, &table_);
  threads.options.threads = -2;
  EXPECT_EQ(service_.Serve(threads).status().code(),
            StatusCode::kInvalidArgument);
}

}  // namespace
}  // namespace fdrepair
