// Incremental repair under mutation: TableDelta content-hash identities,
// ValidateDelta and DeltaBuilder collapse semantics, Table::EraseRow
// invariants, BaseBlockIndex clean/dirty classification, plan capture +
// dirty-block splicing in OptSRepair, and the end-to-end property that
// RepairService::ApplyDelta is bit-identical to a cold full re-plan over
// random mutation sequences, across thread counts and solver backends.

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <limits>
#include <set>
#include <string>
#include <vector>

#include "catalog/fd_parser.h"
#include "common/random.h"
#include "engine/block_partitioner.h"
#include "engine/thread_pool.h"
#include "service/repair_service.h"
#include "srepair/opt_srepair.h"
#include "srepair/planner.h"
#include "srepair/solver_backend.h"
#include "storage/consistency.h"
#include "storage/table.h"
#include "storage/table_delta.h"
#include "storage/table_hash.h"
#include "storage/table_io.h"
#include "storage/table_view.h"
#include "urepair/opt_urepair.h"
#include "urepair/planner.h"
#include "workloads/example_fdsets.h"
#include "workloads/generators.h"

namespace fdrepair {
namespace {

/// A deep copy with its own Schema and ValuePool: only *content* matches,
/// which is exactly what a cold request for the mutated state looks like.
Table CopyContent(const Table& src) {
  std::vector<std::string> attrs;
  for (int c = 0; c < src.schema().arity(); ++c) {
    attrs.push_back(src.schema().AttributeName(c));
  }
  Table out(Schema::MakeOrDie("Copy", attrs));
  for (int row = 0; row < src.num_tuples(); ++row) {
    std::vector<std::string> values;
    for (int c = 0; c < src.schema().arity(); ++c) {
      values.push_back(src.ValueText(row, c));
    }
    EXPECT_TRUE(out.AddTupleWithId(src.id(row), values, src.weight(row)).ok());
  }
  return out;
}

RepairRequest Request(RepairMode mode, const FdSet& fds, const Table* table) {
  RepairRequest request;
  request.mode = mode;
  request.fds = fds;
  request.table = table;
  return request;
}

void ExpectSameRepair(const Table& a, const Table& b) {
  ASSERT_EQ(a.num_tuples(), b.num_tuples());
  for (int row = 0; row < a.num_tuples(); ++row) {
    EXPECT_EQ(a.id(row), b.id(row)) << row;
    EXPECT_EQ(a.weight(row), b.weight(row)) << row;
    for (int c = 0; c < a.schema().arity(); ++c) {
      EXPECT_EQ(a.ValueText(row, c), b.ValueText(row, c))
          << "row " << row << " col " << c;
    }
  }
}

Table SmallTable(int n) {
  Table table(Schema::MakeOrDie("T", {"a", "b"}));
  for (int i = 0; i < n; ++i) {
    table.AddTuple({"x" + std::to_string(i % 3), "y" + std::to_string(i)},
                   1.0 + i);
  }
  return table;
}

/// One random edit batch against the builder, in generator-style domains.
/// Returns after at least one edit (so the emitted delta is never empty).
void RandomBatch(DeltaBuilder* builder, int updates, int inserts, int erases,
                 int domain, Rng* rng) {
  const int arity = builder->table().schema().arity();
  auto value = [&](Rng* r) {
    return "v" + std::to_string(r->UniformInt(0, domain - 1));
  };
  for (int u = 0; u < updates && builder->table().num_tuples() > 0; ++u) {
    int row = static_cast<int>(rng->UniformIndex(
        static_cast<size_t>(builder->table().num_tuples())));
    TupleId id = builder->table().id(row);
    AttrId attr = static_cast<AttrId>(rng->UniformIndex(arity));
    ASSERT_TRUE(builder->Update(id, attr, value(rng)).ok());
  }
  for (int i = 0; i < inserts; ++i) {
    std::vector<std::string> values;
    for (int c = 0; c < arity; ++c) values.push_back(value(rng));
    builder->Insert(values, 1.0 + rng->UniformInt(0, 3));
  }
  for (int e = 0; e < erases && builder->table().num_tuples() > 1; ++e) {
    int row = static_cast<int>(rng->UniformIndex(
        static_cast<size_t>(builder->table().num_tuples())));
    ASSERT_TRUE(builder->Erase(builder->table().id(row)).ok());
  }
}

// --------------------------------------------------------------------------
// TableDelta + DeltaBuilder
// --------------------------------------------------------------------------

TEST(TableDeltaTest, BuilderChainsOffBaseContentHash) {
  Table base = SmallTable(6);
  DeltaBuilder builder(base);
  ASSERT_TRUE(builder.Update(2, 1, "rewritten").ok());
  TableDelta delta = builder.Finish();

  EXPECT_EQ(delta.base_hash, TableContentHash(base));
  EXPECT_EQ(delta.updated, std::vector<TupleId>{2});
  EXPECT_EQ(delta.result_hash, TableContentHash(builder.table()));
  EXPECT_EQ(delta.result_hash, TableContentHash(CopyContent(builder.table())));
  EXPECT_TRUE(ValidateDelta(delta, builder.table()).ok());
}

TEST(TableDeltaTest, ChainComposesThroughContentHashes) {
  Table base = SmallTable(5);
  DeltaBuilder builder(base);
  ASSERT_TRUE(builder.Update(1, 0, "m0").ok());
  TableDelta first = builder.Finish();
  builder.Insert({"x9", "y9"}, 2.0);
  TableDelta second = builder.Finish();

  EXPECT_EQ(second.base_hash, first.result_hash);
  EXPECT_NE(first.result_hash, second.result_hash);
  // Each state's one identity is its content hash: a delta-reached state
  // and a cold copy of it name the same cache entry.
  EXPECT_EQ(second.result_hash, TableContentHash(builder.table()));
  EXPECT_EQ(second.result_hash, TableContentHash(CopyContent(builder.table())));
  EXPECT_TRUE(ValidateDelta(second, builder.table()).ok());
}

TEST(TableDeltaTest, EditsCollapseToNetEffect) {
  Table base = SmallTable(4);

  {  // an update of a row inserted by the same delta is not listed.
    DeltaBuilder builder(base);
    const TupleId id = *builder.Insert({"x7", "y7"});
    ASSERT_TRUE(builder.Update(id, 0, "x8").ok());
    TableDelta delta = builder.Finish();
    EXPECT_TRUE(delta.updated.empty());
    EXPECT_NE(delta.result_hash, delta.base_hash);
    EXPECT_TRUE(ValidateDelta(delta, builder.table()).ok());
  }
  {  // insert + erase nets out to nothing.
    DeltaBuilder builder(base);
    const TupleId id = *builder.Insert({"x7", "y7"});
    ASSERT_TRUE(builder.Erase(id).ok());
    TableDelta delta = builder.Finish();
    EXPECT_TRUE(delta.updated.empty());
    // The state really is the base state, and its hash says so.
    EXPECT_EQ(delta.result_hash, delta.base_hash);
    EXPECT_TRUE(ValidateDelta(delta, builder.table()).ok());
  }
  {  // update + erase is an erase: the id is not listed.
    DeltaBuilder builder(base);
    ASSERT_TRUE(builder.Update(1, 1, "gone").ok());
    ASSERT_TRUE(builder.Update(2, 1, "kept").ok());
    ASSERT_TRUE(builder.Erase(1).ok());
    TableDelta delta = builder.Finish();
    EXPECT_EQ(delta.updated, std::vector<TupleId>{2});
    EXPECT_TRUE(ValidateDelta(delta, builder.table()).ok());
  }
}

// A rejected Insert returns a Status and leaves the working table, and so
// the next delta, as they were.
void ExpectInsertRejected(DeltaBuilder* builder,
                          const std::vector<std::string>& values,
                          double weight, StatusCode code) {
  const uint64_t before = TableContentHash(builder->table());
  const int rows = builder->table().num_tuples();
  StatusOr<TupleId> id = builder->Insert(values, weight);
  ASSERT_FALSE(id.ok());
  EXPECT_EQ(id.status().code(), code) << id.status();
  EXPECT_EQ(builder->table().num_tuples(), rows);
  TableDelta delta = builder->Finish();
  EXPECT_EQ(delta.result_hash, before);
  EXPECT_TRUE(ValidateDelta(delta, builder->table()).ok());
}

TEST(TableDeltaTest, InsertRejectsWrongArity) {
  DeltaBuilder builder(SmallTable(3));
  ExpectInsertRejected(&builder, {"only one"}, 1.0,
                       StatusCode::kInvalidArgument);
  ExpectInsertRejected(&builder, {"a", "b", "c"}, 1.0,
                       StatusCode::kInvalidArgument);
}

TEST(TableDeltaTest, InsertRejectsNonPositiveOrNanWeight) {
  DeltaBuilder builder(SmallTable(3));
  for (double weight : {0.0, -1.0, std::numeric_limits<double>::quiet_NaN()}) {
    ExpectInsertRejected(&builder, {"x", "y"}, weight,
                         StatusCode::kInvalidArgument);
  }
  EXPECT_TRUE(builder.Insert({"x", "y"}, 0.5).ok());  // still usable
}

TEST(TableDeltaTest, InsertRejectsAnExhaustedIdSpace) {
  Table base = SmallTable(2);
  const TupleId largest = std::numeric_limits<TupleId>::max() - 1;
  ASSERT_TRUE(base.AddTupleWithId(largest, {"x", "y"}, 1.0).ok());
  DeltaBuilder builder(base);
  ExpectInsertRejected(&builder, {"x", "z"}, 1.0,
                       StatusCode::kResourceExhausted);
}

TEST(TableDeltaTest, ResultHashBindsNewContent) {
  Table base = SmallTable(4);

  // Same edit shape, different new content: different result hashes.
  DeltaBuilder a(base);
  ASSERT_TRUE(a.Update(1, 0, "left").ok());
  DeltaBuilder b(base);
  ASSERT_TRUE(b.Update(1, 0, "right").ok());
  EXPECT_NE(a.Finish().result_hash, b.Finish().result_hash);
}

/// Seeded corruptions of DeltaBuilder chains at random sizes: each one
/// alone makes ValidateDelta return kInvalidArgument (never abort), and
/// the uncorrupted delta validates.
TEST(TableDeltaTest, ValidationRejectsMalformedDeltas) {
  for (uint64_t seed = 1; seed <= 12; ++seed) {
    Rng rng(seed);
    const Table base = SmallTable(static_cast<int>(rng.UniformInt(2, 60)));
    DeltaBuilder builder(base);
    for (int step = 0; step < 6; ++step) {
      SCOPED_TRACE("seed " + std::to_string(seed) + " step " +
                   std::to_string(step));
      RandomBatch(&builder, static_cast<int>(rng.UniformInt(0, 6)),
                  static_cast<int>(rng.UniformInt(0, 2)),
                  static_cast<int>(rng.UniformInt(0, 2)), /*domain=*/9, &rng);
      const TableDelta delta = builder.Finish();
      const Table& mutated = builder.table();
      ASSERT_TRUE(ValidateDelta(delta, mutated).ok());
      auto expect_rejected = [&](const TableDelta& bad, const char* what) {
        EXPECT_EQ(ValidateDelta(bad, mutated).code(),
                  StatusCode::kInvalidArgument)
            << what;
      };
      // Listed ids out of order, or twice.
      const TupleId present = mutated.id(
          static_cast<int>(rng.UniformIndex(mutated.num_tuples())));
      TableDelta duplicated = delta;
      if (duplicated.updated.empty()) duplicated.updated = {present};
      const size_t k = rng.UniformIndex(duplicated.updated.size());
      const TupleId repeated = duplicated.updated[k];
      duplicated.updated.insert(duplicated.updated.begin() + k, repeated);
      expect_rejected(duplicated, "duplicated");
      if (delta.updated.size() >= 2) {
        TableDelta unsorted = delta;
        std::swap(unsorted.updated.front(), unsorted.updated.back());
        expect_rejected(unsorted, "unsorted");
      }
      // An id the mutated table does not hold (past every id, so the list
      // stays sorted).
      TableDelta absent = delta;
      absent.updated.push_back(INT64_MAX - 1);
      expect_rejected(absent, "absent id");
      // A flipped result_hash bit.
      TableDelta flipped = delta;
      flipped.result_hash ^= uint64_t{1} << rng.UniformIndex(64);
      expect_rejected(flipped, "flipped result_hash");
      // A later edit to the table, to a row the delta may not list.
      switch (rng.UniformIndex(3)) {
        case 0:
          ASSERT_TRUE(
              builder.Update(present, 0, "later" + std::to_string(step)).ok());
          break;
        case 1:
          builder.Insert({"later", "later"});
          break;
        default:
          if (mutated.num_tuples() > 1) {
            ASSERT_TRUE(builder.Erase(mutated.id(0)).ok());
          } else {
            builder.Insert({"later", "later"});
          }
      }
      expect_rejected(delta, "later edit");
      builder.Finish();
    }
  }
}

// --------------------------------------------------------------------------
// Table::EraseRow / EraseTuple
// --------------------------------------------------------------------------

TEST(TableEraseTest, EraseRowPreservesSurvivorOrderAndIndex) {
  Table table = SmallTable(5);  // ids 1..5 in row order
  table.EraseRow(1);            // removes the tuple with id 2
  ASSERT_EQ(table.num_tuples(), 4);
  const std::vector<TupleId> want = {1, 3, 4, 5};
  for (int row = 0; row < table.num_tuples(); ++row) {
    EXPECT_EQ(table.id(row), want[row]) << row;
    auto back = table.RowOf(table.id(row));
    ASSERT_TRUE(back.ok());
    EXPECT_EQ(*back, row);
  }
  EXPECT_FALSE(table.RowOf(2).ok());
  EXPECT_EQ(table.EraseTuple(2).code(), StatusCode::kNotFound);
  EXPECT_TRUE(table.EraseTuple(4).ok());
  EXPECT_FALSE(table.RowOf(4).ok());
  // Erased identifiers are never recycled: the next insert gets a fresh id.
  EXPECT_EQ(table.AddTuple({"x0", "fresh"}, 1.0), 6);
}

// --------------------------------------------------------------------------
// BaseBlockIndex
// --------------------------------------------------------------------------

TEST(BaseBlockIndexTest, MatchesOnlyIdenticalSequences) {
  BaseBlockIndex index;
  const std::vector<TupleId> b0 = {1, 2, 3};
  const std::vector<TupleId> b1 = {4};
  const std::vector<TupleId> b2 = {5, 6};
  index.Add(b0.data(), 3);
  index.Add(b1.data(), 1);
  index.Add(b2.data(), 2);
  ASSERT_EQ(index.num_blocks(), 3);

  const TupleId seq0[] = {1, 2, 3};
  const TupleId seq1[] = {4};
  const TupleId seq2[] = {5, 6};
  const TupleId grown[] = {5, 6, 7};
  const TupleId shrunk[] = {1, 3};
  const TupleId reordered[] = {1, 3, 2};
  const TupleId fresh[] = {7, 8};

  EXPECT_EQ(index.Match(seq0, 3), 0);
  EXPECT_EQ(index.Match(seq1, 1), 1);
  EXPECT_EQ(index.Match(seq2, 2), 2);
  EXPECT_EQ(index.Match(grown, 3), -1);      // size mismatch
  EXPECT_EQ(index.Match(shrunk, 2), -1);     // sequence mismatch
  EXPECT_EQ(index.Match(reordered, 3), -1);  // order matters
  EXPECT_EQ(index.Match(fresh, 2), -1);      // unknown first id
}

// --------------------------------------------------------------------------
// OptSRepair capture + splice
// --------------------------------------------------------------------------

TEST(PlanCaptureTest, CaptureOverloadIsBitIdenticalAndCoversTheTable) {
  ParsedFdSet parsed = OfficeFds();
  Table table = ScalingFamilyTable(parsed, 240, 5);
  const TableView view(table);

  auto plain = OptSRepairRows(parsed.fds, view);
  ASSERT_TRUE(plain.ok()) << plain.status();

  SRepairPlanCache plan;
  auto captured = OptSRepairRows(parsed.fds, view, OptSRepairRowsOptions(), &plan);
  ASSERT_TRUE(captured.ok()) << captured.status();
  EXPECT_EQ(*plain, *captured);

  ASSERT_TRUE(plan.spliceable);
  EXPECT_EQ(plan.top_kind, SimplificationKind::kCommonLhs);
  // The top-level blocks partition the table; the kept positions (each a
  // valid index into its block's id sequence) union to the repair.
  const int num_blocks = plan.num_blocks();
  ASSERT_GT(num_blocks, 0);
  ASSERT_EQ(plan.kept_ends.size(), static_cast<size_t>(num_blocks));
  ASSERT_EQ(plan.weights.size(), static_cast<size_t>(num_blocks));
  size_t members = 0, kept = 0;
  for (int b = 0; b < num_blocks; ++b) {
    members += plan.block_ids(b).size();
    kept += plan.block_kept(b).size();
    for (int p : plan.block_kept(b)) {
      ASSERT_GE(p, 0);
      ASSERT_LT(p, static_cast<int>(plan.block_ids(b).size()));
    }
  }
  EXPECT_EQ(members, static_cast<size_t>(table.num_tuples()));
  EXPECT_EQ(members, plan.ids.size());
  EXPECT_EQ(kept, captured->size());
  EXPECT_EQ(kept, plan.kept_pos.size());
}

TEST(PlanCaptureTest, SpliceIsBitIdenticalAcrossChainedMutations) {
  ParsedFdSet parsed = OfficeFds();
  Table base = ScalingFamilyTable(parsed, 400, 9);

  SRepairPlanCache plan;
  ASSERT_TRUE(OptSRepairRows(parsed.fds, TableView(base), OptSRepairRowsOptions(), &plan).ok());
  ASSERT_TRUE(plan.spliceable);

  Rng rng(77);
  DeltaBuilder builder(base);
  for (int step = 0; step < 4; ++step) {
    RandomBatch(&builder, /*updates=*/3, /*inserts=*/1, /*erases=*/1,
                /*domain=*/25, &rng);
    TableDelta delta = builder.Finish();
    const TableView view(builder.table());

    // Refresh the plan in place (capture aliases the base — the documented
    // chained-delta calling convention).
    SRepairSpliceStats stats;
    OptSRepairRowsOptions splice_options;
    splice_options.delta_base = &plan;
    splice_options.delta_updated_ids = &delta.updated;
    splice_options.splice_stats = &stats;
    auto spliced = OptSRepairRows(parsed.fds, view, splice_options, &plan);
    ASSERT_TRUE(spliced.ok()) << spliced.status();
    auto cold = OptSRepairRows(parsed.fds, view);
    ASSERT_TRUE(cold.ok()) << cold.status();
    EXPECT_EQ(*spliced, *cold) << "mutation step " << step;

    EXPECT_GT(stats.blocks_total, 0);
    EXPECT_EQ(stats.blocks_clean + stats.blocks_dirty, stats.blocks_total);
    // A 5-edit batch against 25 facility blocks must leave most blocks
    // untouched — the whole point of the splice.
    EXPECT_GT(stats.blocks_clean, stats.blocks_dirty) << "step " << step;
    ASSERT_TRUE(plan.spliceable);
  }
}

/// Field-by-field equality of two captured plans, weights compared bitwise.
void ExpectSamePlan(const SRepairPlanCache& got, const SRepairPlanCache& want,
                    const std::string& context) {
  EXPECT_EQ(got.spliceable, want.spliceable) << context;
  EXPECT_EQ(got.top_kind, want.top_kind) << context;
  EXPECT_EQ(got.ids, want.ids) << context;
  EXPECT_EQ(got.block_ends, want.block_ends) << context;
  EXPECT_EQ(got.kept_pos, want.kept_pos) << context;
  EXPECT_EQ(got.kept_ends, want.kept_ends) << context;
  ASSERT_EQ(got.weights.size(), want.weights.size()) << context;
  for (size_t b = 0; b < got.weights.size(); ++b) {
    EXPECT_EQ(std::bit_cast<uint64_t>(got.weights[b]),
              std::bit_cast<uint64_t>(want.weights[b]))
        << context << " block " << b;
  }
}

// The plan a splice refreshes is exactly the plan a cold capture of the
// mutated table records — so chained deltas never drift from cold state —
// on all three top-level routes, sequentially and with every step fanned
// out on a pool.
TEST(PlanCaptureTest, RefreshedPlanEqualsColdCaptureAcrossChainedDeltas) {
  struct Case {
    std::string label;
    ParsedFdSet parsed;
    SimplificationKind kind;
    Table base;
  };
  std::vector<Case> cases;
  {
    ParsedFdSet office = OfficeFds();
    Table base = ScalingFamilyTable(office, 400, 9);
    cases.push_back({"office", office, SimplificationKind::kCommonLhs,
                     std::move(base)});
  }
  {
    ParsedFdSet consensus = ParseFdSetInferSchemaOrDie("{} -> A; B -> C");
    Rng rng(13);
    RandomTableOptions options;
    options.num_tuples = 150;
    options.domain_size = 4;
    options.heavy_fraction = 0.3;
    Table base = RandomTable(consensus.schema, options, &rng);
    cases.push_back({"consensus", consensus, SimplificationKind::kConsensus,
                     std::move(base)});
  }
  {
    ParsedFdSet marriage = DeltaAKeyBToC();
    Table base = ScalingFamilyTable(marriage, 400, 5);
    cases.push_back({"A<->B->C", marriage, SimplificationKind::kLhsMarriage,
                     std::move(base)});
  }

  ThreadPool pool(4);
  for (const Case& c : cases) {
    for (ThreadPool* exec_pool : {static_cast<ThreadPool*>(nullptr), &pool}) {
      OptSRepairRowsOptions cold_options;
      cold_options.exec.pool = exec_pool;
      cold_options.exec.parallel_cutoff = 1;
      SRepairPlanCache plan;
      ASSERT_TRUE(OptSRepairRows(c.parsed.fds, TableView(c.base),
                                 cold_options, &plan)
                      .ok());
      ASSERT_TRUE(plan.spliceable) << c.label;
      EXPECT_EQ(plan.top_kind, c.kind) << c.label;

      Rng rng(29);
      DeltaBuilder builder(c.base);
      int clean_total = 0;
      for (int step = 0; step < 4; ++step) {
        const std::string context = c.label + " step " +
                                    std::to_string(step) +
                                    (exec_pool ? " pool" : " sequential");
        RandomBatch(&builder, /*updates=*/3, /*inserts=*/1, /*erases=*/1,
                    /*domain=*/25, &rng);
        TableDelta delta = builder.Finish();
        const TableView view(builder.table());

        OptSRepairRowsOptions splice_options = cold_options;
        splice_options.delta_base = &plan;
        splice_options.delta_updated_ids = &delta.updated;
        SRepairSpliceStats stats;
        splice_options.splice_stats = &stats;
        auto spliced = OptSRepairRows(c.parsed.fds, view, splice_options,
                                      &plan);  // refreshed in place
        ASSERT_TRUE(spliced.ok()) << context << ": " << spliced.status();

        SRepairPlanCache cold_plan;
        auto cold = OptSRepairRows(c.parsed.fds, view, cold_options,
                                   &cold_plan);
        ASSERT_TRUE(cold.ok()) << context << ": " << cold.status();
        EXPECT_EQ(*spliced, *cold) << context;
        ExpectSamePlan(plan, cold_plan, context);

        // Every refreshed block reports the base block it replayed, or -1.
        ASSERT_EQ(stats.base_block.size(),
                  static_cast<size_t>(plan.num_blocks()))
            << context;
        int replayed = 0;
        for (int m : stats.base_block) replayed += m >= 0 ? 1 : 0;
        EXPECT_EQ(replayed, stats.blocks_clean) << context;
        clean_total += stats.blocks_clean;
      }
      // The chain really replayed cached blocks, not only re-solved ones.
      EXPECT_GT(clean_total, 0) << c.label;
    }
  }
}

/// A splice and a cold run of OptURepairCells on the same table agree on
/// every output: edits (id, attribute, text, fresh flag, written id), the
/// bits of the distance, and the materialized update cell for cell.
void ExpectSameCells(const OptURepairResult& spliced,
                     const OptURepairResult& cold,
                     const std::string& context) {
  ASSERT_EQ(spliced.edits.size(), cold.edits.size()) << context;
  ASSERT_EQ(spliced.values, cold.values) << context;
  for (size_t e = 0; e < cold.edits.size(); ++e) {
    const std::string at = context + " edit " + std::to_string(e);
    EXPECT_EQ(spliced.edits[e].id, cold.edits[e].id) << at;
    EXPECT_EQ(spliced.edits[e].attr, cold.edits[e].attr) << at;
    EXPECT_EQ(spliced.edits[e].text, cold.edits[e].text) << at;
    EXPECT_EQ(spliced.edits[e].fresh, cold.edits[e].fresh) << at;
  }
  EXPECT_EQ(std::bit_cast<uint64_t>(spliced.distance),
            std::bit_cast<uint64_t>(cold.distance))
      << context;
  ExpectSameRepair(spliced.update, cold.update);
}

// The update route's common-lhs splice over chained deltas: the inner
// S-splice replays clean blocks, and every output — edits, distance bits,
// the materialized update, the refreshed inner S-plans — equals a cold run
// with a cold capture.
TEST(PlanCaptureTest, UpdateSpliceReusesCleanBlocksAndMatchesColdEdits) {
  ParsedFdSet parsed = OfficeFds();
  Table base = ScalingFamilyTable(parsed, 400, 9);
  URepairPlanCache plan;
  ASSERT_TRUE(OptURepairCells(parsed.fds, base, {}, &plan).ok());
  ASSERT_TRUE(plan.spliceable);

  Rng rng(61);
  DeltaBuilder builder(base);
  for (int step = 0; step < 4; ++step) {
    const std::string context = "step " + std::to_string(step);
    RandomBatch(&builder, /*updates=*/3, /*inserts=*/1, /*erases=*/1,
                /*domain=*/25, &rng);
    TableDelta delta = builder.Finish();

    SRepairSpliceStats stats;
    OptURepairOptions options;
    options.delta_base = &plan;
    options.delta_updated_ids = &delta.updated;
    options.splice_stats = &stats;
    URepairPlanCache refreshed;
    auto spliced =
        OptURepairCells(parsed.fds, builder.table(), options, &refreshed);
    ASSERT_TRUE(spliced.ok()) << spliced.status();
    URepairPlanCache cold_plan;
    auto cold = OptURepairCells(parsed.fds, builder.table(), {}, &cold_plan);
    ASSERT_TRUE(cold.ok()) << cold.status();
    ExpectSameCells(*spliced, *cold, context);
    EXPECT_GT(stats.blocks_clean, 0) << context;

    ASSERT_TRUE(refreshed.spliceable);
    ASSERT_EQ(refreshed.components.size(), cold_plan.components.size());
    for (size_t c = 0; c < cold_plan.components.size(); ++c) {
      EXPECT_EQ(refreshed.components[c].cover, cold_plan.components[c].cover)
          << context;
      ExpectSamePlan(refreshed.components[c].splan,
                     cold_plan.components[c].splan, context);
    }
    plan = std::move(refreshed);
  }
}

/// The ⊥-collision delta: `base`'s content rebuilt on a private pool, plus
/// one inserted row whose freshened cell holds the ⊥ text that `base`'s
/// update repair writes into a deleted tuple, every other cell distinct.
/// On the mutated table that text is user data, so a run there must
/// disambiguate the deleted tuple's ⊥ with "'" — a clean block of the
/// pre-mutation plan included.
DeltaBuilder CollidingInsert(const FdSet& fds, const Table& base) {
  DeltaBuilder builder(CopyContent(base));
  auto cells = OptURepairCells(fds, base);
  const URepairCellEdit* freshened = nullptr;
  for (size_t e = 0; cells.ok() && e < cells->edits.size(); ++e) {
    if (cells->edits[e].text.rfind("⊥t", 0) == 0) {
      freshened = &cells->edits[e];
      break;
    }
  }
  if (freshened == nullptr) {
    ADD_FAILURE() << "the base repair freshens no cell";
    return builder;
  }
  std::vector<std::string> values;
  for (AttrId attr = 0; attr < base.schema().arity(); ++attr) {
    values.push_back(attr == freshened->attr
                         ? freshened->text
                         : "inserted." + std::to_string(attr));
  }
  builder.Insert(values);
  return builder;
}

// A splice onto a pool whose user data holds a deleted tuple's ⊥ name must
// write what a cold run there writes: the "'"-disambiguated name.
TEST(PlanCaptureTest, UpdateSpliceDisambiguatesFreshNamesHeldByUserData) {
  ParsedFdSet parsed = OfficeFds();
  Table base = ScalingFamilyTable(parsed, 256, 9);
  URepairPlanCache plan;
  ASSERT_TRUE(OptURepairCells(parsed.fds, base, {}, &plan).ok());
  ASSERT_TRUE(plan.spliceable);

  DeltaBuilder builder = CollidingInsert(parsed.fds, base);
  TableDelta delta = builder.Finish();
  SRepairSpliceStats stats;
  OptURepairOptions options;
  options.delta_base = &plan;
  options.delta_updated_ids = &delta.updated;
  options.splice_stats = &stats;
  auto spliced = OptURepairCells(parsed.fds, builder.table(), options);
  ASSERT_TRUE(spliced.ok()) << spliced.status();
  EXPECT_GT(stats.blocks_clean, 0);
  auto cold = OptURepairCells(parsed.fds, builder.table());
  ASSERT_TRUE(cold.ok()) << cold.status();
  ExpectSameCells(*spliced, *cold, "colliding insert");
  EXPECT_TRUE(Satisfies(spliced->update, parsed.fds));
}

TEST(PlanCaptureTest, ConsensusAndMarriageTopKindsSplice) {
  struct Case {
    ParsedFdSet parsed;
    SimplificationKind kind;
  };
  std::vector<Case> cases;
  cases.push_back({ParseFdSetInferSchemaOrDie("{} -> A; B -> C"),
                   SimplificationKind::kConsensus});
  cases.push_back({Example31Ssn(), SimplificationKind::kLhsMarriage});

  for (const Case& c : cases) {
    Rng rng(13);
    RandomTableOptions options;
    options.num_tuples = 120;
    options.domain_size = 3;
    options.heavy_fraction = 0.3;
    Table base = RandomTable(c.parsed.schema, options, &rng);

    SRepairPlanCache plan;
    ASSERT_TRUE(OptSRepairRows(c.parsed.fds, TableView(base), OptSRepairRowsOptions(), &plan).ok());
    ASSERT_TRUE(plan.spliceable);
    EXPECT_EQ(plan.top_kind, c.kind);

    DeltaBuilder builder(base);
    RandomBatch(&builder, /*updates=*/4, /*inserts=*/1, /*erases=*/1,
                /*domain=*/3, &rng);
    TableDelta delta = builder.Finish();
    const TableView view(builder.table());

    SRepairSpliceStats stats;
    OptSRepairRowsOptions splice_options;
    splice_options.delta_base = &plan;
    splice_options.delta_updated_ids = &delta.updated;
    splice_options.splice_stats = &stats;
    auto spliced = OptSRepairRows(c.parsed.fds, view, splice_options);
    ASSERT_TRUE(spliced.ok()) << spliced.status();
    auto cold = OptSRepairRows(c.parsed.fds, view);
    ASSERT_TRUE(cold.ok()) << cold.status();
    EXPECT_EQ(*spliced, *cold);
    EXPECT_GT(stats.blocks_total, 0);
  }
}

TEST(PlanCaptureTest, NonSpliceableBasesFailPrecondition) {
  ParsedFdSet parsed = OfficeFds();
  Table table = ScalingFamilyTable(parsed, 64, 3);

  SRepairPlanCache never_captured;  // spliceable defaults to false
  OptSRepairRowsOptions never_options;
  never_options.delta_base = &never_captured;
  EXPECT_EQ(
      OptSRepairRows(parsed.fds, TableView(table), never_options)
          .status()
          .code(),
      StatusCode::kFailedPrecondition);

  // A single-tuple table cannot decompose into blocks either.
  Table tiny(parsed.schema);
  tiny.AddTuple({"f", "r", "fl", "c"}, 1.0);
  SRepairPlanCache plan;
  ASSERT_TRUE(OptSRepairRows(parsed.fds, TableView(table), OptSRepairRowsOptions(), &plan).ok());
  OptSRepairRowsOptions tiny_options;
  tiny_options.delta_base = &plan;
  EXPECT_EQ(OptSRepairRows(parsed.fds, TableView(tiny), tiny_options)
                .status()
                .code(),
            StatusCode::kFailedPrecondition);
}

TEST(PlanCaptureTest, ComputeSRepairSplicesWithoutUpdatedIds) {
  // An insert/erase-only delta has no in-place edits, so a null
  // delta_updated_ids must mean exactly that — as it does one layer down in
  // OptSRepairRows — and splice, not abort.
  ParsedFdSet parsed = OfficeFds();
  Table base = ScalingFamilyTable(parsed, 400, 9);
  SRepairPlanCache plan;
  SRepairOptions capture_options;
  capture_options.capture = &plan;
  ASSERT_TRUE(ComputeSRepair(parsed.fds, base, capture_options).ok());
  ASSERT_TRUE(plan.spliceable);

  Rng rng(91);
  DeltaBuilder builder(base);
  RandomBatch(&builder, /*updates=*/0, /*inserts=*/2, /*erases=*/2,
              /*domain=*/25, &rng);
  TableDelta delta = builder.Finish();
  ASSERT_TRUE(delta.updated.empty());

  SRepairSpliceStats stats;
  SRepairOptions splice_options;
  splice_options.delta_base = &plan;
  splice_options.splice_stats = &stats;
  auto spliced = ComputeSRepair(parsed.fds, builder.table(), splice_options);
  ASSERT_TRUE(spliced.ok()) << spliced.status();
  auto cold = ComputeSRepair(parsed.fds, builder.table());
  ASSERT_TRUE(cold.ok()) << cold.status();
  ExpectSameRepair(spliced->repair, cold->repair);
  EXPECT_EQ(spliced->distance, cold->distance);
  // It really spliced: the base plan's untouched blocks were replayed.
  EXPECT_GT(stats.blocks_total, 0);
  EXPECT_GT(stats.blocks_clean, 0);
}

// A splice can refresh its own base: `capture` aliases `delta_base`, and
// the splice still reads the intact base while it runs. Two chained deltas,
// each spliced into its own base, each equal to a cold run.
TEST(PlanCaptureTest, UpdateSpliceRefreshesItsBaseInPlace) {
  ParsedFdSet parsed = OfficeFds();
  Table base = ScalingFamilyTable(parsed, 256, 9);
  URepairPlanCache plan;
  ASSERT_TRUE(OptURepairCells(parsed.fds, base, {}, &plan).ok());
  ASSERT_TRUE(plan.spliceable);

  Rng rng(71);
  DeltaBuilder builder(base);
  for (int step = 0; step < 2; ++step) {
    RandomBatch(&builder, /*updates=*/1, /*inserts=*/0, /*erases=*/0,
                /*domain=*/16, &rng);
    TableDelta delta = builder.Finish();
    SRepairSpliceStats stats;
    OptURepairOptions options;
    options.delta_base = &plan;
    options.delta_updated_ids = &delta.updated;
    options.splice_stats = &stats;
    auto spliced = OptURepairCells(parsed.fds, builder.table(), options, &plan);
    ASSERT_TRUE(spliced.ok()) << spliced.status();
    EXPECT_GT(stats.blocks_clean, 0) << "step " << step;

    URepairPlanCache cold_plan;
    auto cold = OptURepairCells(parsed.fds, builder.table(), {}, &cold_plan);
    ASSERT_TRUE(cold.ok()) << cold.status();
    ExpectSameCells(*spliced, *cold, "step " + std::to_string(step));
    ASSERT_TRUE(plan.spliceable);
    ASSERT_EQ(plan.components.size(), cold_plan.components.size());
    for (size_t c = 0; c < plan.components.size(); ++c) {
      ExpectSamePlan(plan.components[c].splan, cold_plan.components[c].splan,
                     "step " + std::to_string(step));
    }
  }
}

// A splice fans its dirty blocks out to the pool once they hold enough
// work. With the cutoff at 1 and chained deltas dirtying many blocks, the
// pooled splice equals the sequential splice and a cold run, and both
// refreshed plans equal a cold capture.
TEST(PlanCaptureTest, SpliceFansOutDirtyBlocksBitIdentically) {
  ThreadPool pool(4);
  OptSRepairRowsOptions sequential;
  OptSRepairRowsOptions pooled;
  pooled.exec.pool = &pool;
  pooled.exec.parallel_cutoff = 1;
  for (const ParsedFdSet& parsed : {OfficeFds(), DeltaAKeyBToC()}) {
    const std::string label = parsed.fds.ToString();
    Table base = ScalingFamilyTable(parsed, 600, 9);
    SRepairPlanCache sequential_plan;
    SRepairPlanCache pooled_plan;
    ASSERT_TRUE(OptSRepairRows(parsed.fds, TableView(base), sequential,
                               &sequential_plan)
                    .ok());
    ASSERT_TRUE(
        OptSRepairRows(parsed.fds, TableView(base), pooled, &pooled_plan)
            .ok());

    Rng rng(43);
    DeltaBuilder builder(base);
    for (int step = 0; step < 3; ++step) {
      const std::string context = label + " step " + std::to_string(step);
      RandomBatch(&builder, /*updates=*/40, /*inserts=*/4, /*erases=*/4,
                  /*domain=*/37, &rng);
      TableDelta delta = builder.Finish();
      const TableView view(builder.table());

      auto splice = [&](OptSRepairRowsOptions options, SRepairPlanCache* plan,
                        SRepairSpliceStats* stats) {
        options.delta_base = plan;
        options.delta_updated_ids = &delta.updated;
        options.splice_stats = stats;
        return OptSRepairRows(parsed.fds, view, options, plan);
      };
      SRepairSpliceStats sequential_stats;
      SRepairSpliceStats pooled_stats;
      auto by_thread = splice(sequential, &sequential_plan, &sequential_stats);
      auto by_pool = splice(pooled, &pooled_plan, &pooled_stats);
      ASSERT_TRUE(by_thread.ok()) << context << ": " << by_thread.status();
      ASSERT_TRUE(by_pool.ok()) << context << ": " << by_pool.status();
      SRepairPlanCache cold_plan;
      auto cold = OptSRepairRows(parsed.fds, view, sequential, &cold_plan);
      ASSERT_TRUE(cold.ok()) << context << ": " << cold.status();
      EXPECT_EQ(*by_pool, *by_thread) << context;
      EXPECT_EQ(*by_pool, *cold) << context;
      ExpectSamePlan(pooled_plan, cold_plan, context);
      ExpectSamePlan(sequential_plan, cold_plan, context);

      // The dirty blocks really held enough work to fan out, and clean
      // blocks were still replayed.
      int dirty_rows = 0;
      for (int b = 0; b < pooled_plan.num_blocks(); ++b) {
        if (pooled_stats.base_block[b] < 0) {
          dirty_rows += static_cast<int>(pooled_plan.block_ids(b).size());
        }
      }
      EXPECT_GT(pooled_stats.blocks_dirty, 1) << context;
      EXPECT_GT(pooled_stats.blocks_clean, 0) << context;
      EXPECT_TRUE(pooled.exec.FansOut(pooled_stats.blocks_dirty, dirty_rows))
          << context;
    }
  }

  // At the default cutoff, a 1% update batch on 8192-row Office dirties
  // too little work to fan out: the splice stays on the calling thread.
  ParsedFdSet office = OfficeFds();
  Table base = ScalingFamilyTable(office, 8192, 5);
  SRepairPlanCache plan;
  ASSERT_TRUE(OptSRepairRows(office.fds, TableView(base), {}, &plan).ok());
  Rng rng(4242);
  DeltaBuilder builder(base);
  RandomBatch(&builder, /*updates=*/82, /*inserts=*/0, /*erases=*/0,
              /*domain=*/512, &rng);
  TableDelta delta = builder.Finish();
  OptSRepairRowsOptions options;
  options.exec.pool = &pool;
  options.delta_base = &plan;
  options.delta_updated_ids = &delta.updated;
  SRepairSpliceStats stats;
  options.splice_stats = &stats;
  SRepairPlanCache refreshed;
  ASSERT_TRUE(OptSRepairRows(office.fds, TableView(builder.table()), options,
                             &refreshed)
                  .ok());
  int dirty_rows = 0;
  for (int b = 0; b < refreshed.num_blocks(); ++b) {
    if (stats.base_block[b] < 0) {
      dirty_rows += static_cast<int>(refreshed.block_ids(b).size());
    }
  }
  EXPECT_GT(stats.blocks_dirty, 1);
  EXPECT_FALSE(options.exec.FansOut(stats.blocks_dirty, dirty_rows))
      << stats.blocks_dirty << " dirty blocks, " << dirty_rows << " rows";
}

// --------------------------------------------------------------------------
// RepairService::ApplyDelta
// --------------------------------------------------------------------------

TEST(ServiceDeltaTest, ApplyDeltaValidatesItsDeltaRequest) {
  ParsedFdSet parsed = OfficeFds();
  Table table = ScalingFamilyTable(parsed, 32, 2);
  RepairService service;

  RepairRequest missing = Request(RepairMode::kSubset, parsed.fds, &table);
  EXPECT_EQ(service.ApplyDelta(missing).status().code(),
            StatusCode::kInvalidArgument);
  RepairRequest missing_update =
      Request(RepairMode::kUpdate, parsed.fds, &table);
  EXPECT_EQ(service.ApplyDelta(missing_update).status().code(),
            StatusCode::kInvalidArgument);

  // Update-mode deltas are first-class: a valid delta with no cached base
  // plan is served as a full re-plan, not rejected.
  DeltaBuilder builder(table);
  const TupleId victim = table.id(0);
  ASSERT_TRUE(builder.Update(victim, 0, "zz").ok());
  TableDelta delta = builder.Finish();
  RepairRequest update_mode =
      Request(RepairMode::kUpdate, parsed.fds, &builder.table());
  update_mode.delta = &delta;
  ASSERT_TRUE(service.ApplyDelta(update_mode).ok());
  EXPECT_EQ(service.stats().udelta_requests, 1u);
  EXPECT_EQ(service.stats().udelta_full_replans, 1u);

  // A stale delta (a listed row mutated past it) is rejected, not
  // mis-served.
  RepairRequest stale =
      Request(RepairMode::kSubset, parsed.fds, &builder.table());
  stale.delta = &delta;
  ASSERT_TRUE(builder.Update(victim, 1, "later").ok());
  EXPECT_EQ(service.ApplyDelta(stale).status().code(),
            StatusCode::kInvalidArgument);

  // So is one whose table changed, after Finish(), in a row it does not
  // list: the result hash names the whole table's content.
  TableDelta next = builder.Finish();
  ASSERT_EQ(next.updated, std::vector<TupleId>{victim});
  stale.delta = &next;
  ASSERT_TRUE(service.ApplyDelta(stale).ok());
  ASSERT_TRUE(builder.Update(table.id(1), 1, "unlisted").ok());
  EXPECT_EQ(service.ApplyDelta(stale).status().code(),
            StatusCode::kInvalidArgument);
}

/// A state has one identity, its content hash, whichever way it arrives.
TEST(ServiceDeltaTest, DeltaAndColdArrivalsShareOneEntry) {
  ParsedFdSet parsed = OfficeFds();
  Table base = ScalingFamilyTable(parsed, 300, 5);
  RepairService service;
  ASSERT_TRUE(
      service.Serve(Request(RepairMode::kSubset, parsed.fds, &base)).ok());

  // (a) A state reached by a delta answers a later plain request for it.
  Rng rng(8);
  DeltaBuilder builder(base);
  RandomBatch(&builder, /*updates=*/3, /*inserts=*/1, /*erases=*/1,
              /*domain=*/37, &rng);
  TableDelta delta = builder.Finish();
  RepairRequest incremental =
      Request(RepairMode::kSubset, parsed.fds, &builder.table());
  incremental.delta = &delta;
  auto spliced = service.ApplyDelta(incremental);
  ASSERT_TRUE(spliced.ok()) << spliced.status();
  EXPECT_FALSE(spliced->cache_hit);
  auto plain = service.Serve(
      Request(RepairMode::kSubset, parsed.fds, &builder.table()));
  ASSERT_TRUE(plain.ok()) << plain.status();
  EXPECT_TRUE(plain->cache_hit);
  EXPECT_EQ(plain->cache_key, spliced->cache_key);
  ExpectSameRepair(spliced->repair, plain->repair);

  // (b) A state first served cold answers a later delta that reaches it:
  // a hit, counted as a delta request but neither a splice nor a re-plan.
  RandomBatch(&builder, /*updates=*/3, /*inserts=*/1, /*erases=*/1,
              /*domain=*/37, &rng);
  const Table copy = CopyContent(builder.table());
  auto cold = service.Serve(Request(RepairMode::kSubset, parsed.fds, &copy));
  ASSERT_TRUE(cold.ok()) << cold.status();
  EXPECT_FALSE(cold->cache_hit);
  const RepairServiceStats before = service.stats();
  TableDelta next = builder.Finish();
  incremental.delta = &next;
  auto hit = service.ApplyDelta(incremental);
  ASSERT_TRUE(hit.ok()) << hit.status();
  EXPECT_TRUE(hit->cache_hit);
  EXPECT_EQ(hit->cache_key, cold->cache_key);
  ExpectSameRepair(cold->repair, hit->repair);
  const RepairServiceStats after = service.stats();
  EXPECT_EQ(after.hits, before.hits + 1);
  EXPECT_EQ(after.delta_requests, before.delta_requests + 1);
  EXPECT_EQ(after.delta_splices, before.delta_splices);
  EXPECT_EQ(after.delta_full_replans, before.delta_full_replans);
}

TEST(ServiceDeltaTest, SpliceServesBitIdenticalAndCountsBlocks) {
  ParsedFdSet parsed = OfficeFds();
  Table base = ScalingFamilyTable(parsed, 600, 11);
  RepairService service;

  RepairRequest cold = Request(RepairMode::kSubset, parsed.fds, &base);
  ASSERT_TRUE(service.Serve(cold).ok());

  Rng rng(3);
  DeltaBuilder builder(base);
  RandomBatch(&builder, /*updates=*/3, /*inserts=*/0, /*erases=*/0,
              /*domain=*/37, &rng);
  TableDelta delta = builder.Finish();

  RepairRequest incremental =
      Request(RepairMode::kSubset, parsed.fds, &builder.table());
  incremental.delta = &delta;
  auto served = service.ApplyDelta(incremental);
  ASSERT_TRUE(served.ok()) << served.status();
  EXPECT_FALSE(served->cache_hit);

  // Bit-identical to a cold full re-plan of the mutated state.
  Table copy = CopyContent(builder.table());
  RepairService fresh;
  auto reference =
      fresh.Serve(Request(RepairMode::kSubset, parsed.fds, &copy));
  ASSERT_TRUE(reference.ok()) << reference.status();
  ExpectSameRepair(reference->repair, served->repair);
  EXPECT_EQ(reference->distance, served->distance);
  EXPECT_EQ(reference->optimal, served->optimal);

  RepairServiceStats stats = service.stats();
  EXPECT_EQ(stats.delta_requests, 1u);
  EXPECT_EQ(stats.delta_splices, 1u);
  EXPECT_EQ(stats.delta_full_replans, 0u);
  EXPECT_GT(stats.delta_blocks_clean, 0u);
  EXPECT_GT(stats.delta_blocks_dirty, 0u);

  // The delta-keyed entry is now cached: re-serving the same request is a
  // plain O(result) hit.
  auto replay = service.ApplyDelta(incremental);
  ASSERT_TRUE(replay.ok()) << replay.status();
  EXPECT_TRUE(replay->cache_hit);
  ExpectSameRepair(served->repair, replay->repair);
  EXPECT_EQ(service.stats().hits, 1u);
}

TEST(ServiceDeltaTest, MissingBasePlanFallsBackToFullReplan) {
  ParsedFdSet parsed = OfficeFds();
  Table base = ScalingFamilyTable(parsed, 300, 17);
  RepairService service;
  ASSERT_TRUE(
      service.Serve(Request(RepairMode::kSubset, parsed.fds, &base)).ok());
  service.InvalidateCache();  // the pre-mutation entry (and its plan) is gone

  DeltaBuilder builder(base);
  ASSERT_TRUE(builder.Update(base.id(0), 0, "moved").ok());
  TableDelta delta = builder.Finish();
  RepairRequest incremental =
      Request(RepairMode::kSubset, parsed.fds, &builder.table());
  incremental.delta = &delta;
  auto served = service.ApplyDelta(incremental);
  ASSERT_TRUE(served.ok()) << served.status();

  Table copy = CopyContent(builder.table());
  RepairService fresh;
  auto reference =
      fresh.Serve(Request(RepairMode::kSubset, parsed.fds, &copy));
  ASSERT_TRUE(reference.ok()) << reference.status();
  ExpectSameRepair(reference->repair, served->repair);

  RepairServiceStats stats = service.stats();
  EXPECT_EQ(stats.delta_requests, 1u);
  EXPECT_EQ(stats.delta_splices, 0u);
  EXPECT_EQ(stats.delta_full_replans, 1u);
}

// Tuple ids need not be dense or positive: a CSV may carry any id. A delta
// that updates a negative id must splice safely (the updated-id set once
// indexed a flag vector by id) and serve exactly what a cold re-plan does.
TEST(ServiceDeltaTest, NegativeTupleIdsSpliceSafely) {
  auto table = TableFromCsv("id,A,B\n-7,a,x\n-3,a,y\n2,b,z\n5,c,w\n");
  ASSERT_TRUE(table.ok()) << table.status();
  FdSet fds = ParseFdSetOrDie(table->schema(), "A -> B");
  RepairService service;
  ASSERT_TRUE(service.Serve(Request(RepairMode::kSubset, fds, &*table)).ok());

  DeltaBuilder builder(*table);
  ASSERT_TRUE(builder.Update(-7, 1, "q").ok());
  TableDelta delta = builder.Finish();
  RepairRequest incremental =
      Request(RepairMode::kSubset, fds, &builder.table());
  incremental.delta = &delta;
  auto served = service.ApplyDelta(incremental);
  ASSERT_TRUE(served.ok()) << served.status();
  EXPECT_EQ(service.stats().delta_splices, 1u);

  Table copy = CopyContent(builder.table());
  RepairService fresh;
  auto reference = fresh.Serve(Request(RepairMode::kSubset, fds, &copy));
  ASSERT_TRUE(reference.ok()) << reference.status();
  ExpectSameRepair(reference->repair, served->repair);
  EXPECT_EQ(reference->distance, served->distance);
}

// The service-level twin of UpdateSpliceDisambiguatesFreshNamesHeldByUserData:
// the delta's base state was served on another pool, and the mutated
// table's pool holds a deleted tuple's ⊥ name as user data. The spliced
// response must satisfy ∆ and equal a direct run on a copy.
TEST(ServiceDeltaTest, UpdateSpliceOnAPoolHoldingTheFreshNamesMatchesCold) {
  ParsedFdSet parsed = OfficeFds();
  Table base = ScalingFamilyTable(parsed, 256, 9);
  RepairService service;
  ASSERT_TRUE(
      service.Serve(Request(RepairMode::kUpdate, parsed.fds, &base)).ok());

  DeltaBuilder builder = CollidingInsert(parsed.fds, base);
  TableDelta delta = builder.Finish();
  RepairRequest incremental =
      Request(RepairMode::kUpdate, parsed.fds, &builder.table());
  incremental.delta = &delta;
  auto served = service.ApplyDelta(incremental);
  ASSERT_TRUE(served.ok()) << served.status();
  EXPECT_EQ(service.stats().udelta_splices, 1u);
  EXPECT_TRUE(Satisfies(served->repair, parsed.fds));

  const Table copy = CopyContent(builder.table());
  auto direct = ComputeURepair(parsed.fds, copy);
  ASSERT_TRUE(direct.ok()) << direct.status();
  ExpectSameRepair(direct->update, served->repair);
  EXPECT_EQ(direct->distance, served->distance);
}

/// The headline property: over random mutation sequences, ApplyDelta is
/// bit-identical to a cold full re-plan of the mutated state — for every
/// engine thread count, with the repair itself also identical across
/// thread counts.
TEST(ServiceDeltaTest, PropertyRandomMutationSequencesAcrossThreadCounts) {
  ParsedFdSet parsed = OfficeFds();
  Table base = ScalingFamilyTable(parsed, 500, 23);
  constexpr int kRounds = 4;

  std::vector<Table> witness;  // per-round repair from the 1-thread service
  for (int threads : {1, 2, 8}) {
    RepairServiceOptions options;
    options.threads = threads;
    RepairService service(options);
    ASSERT_TRUE(
        service.Serve(Request(RepairMode::kSubset, parsed.fds, &base)).ok());

    Rng rng(101);  // same seed per thread count: identical mutation chains
    DeltaBuilder builder(base);
    for (int round = 0; round < kRounds; ++round) {
      RandomBatch(&builder, /*updates=*/6, /*inserts=*/2, /*erases=*/2,
                  /*domain=*/31, &rng);
      TableDelta delta = builder.Finish();

      RepairRequest incremental =
          Request(RepairMode::kSubset, parsed.fds, &builder.table());
      incremental.delta = &delta;
      auto served = service.ApplyDelta(incremental);
      ASSERT_TRUE(served.ok())
          << served.status() << " threads " << threads << " round " << round;

      Table copy = CopyContent(builder.table());
      RepairService fresh;
      auto reference =
          fresh.Serve(Request(RepairMode::kSubset, parsed.fds, &copy));
      ASSERT_TRUE(reference.ok()) << reference.status();
      ExpectSameRepair(reference->repair, served->repair);
      EXPECT_EQ(reference->distance, served->distance);

      if (threads == 1) {
        witness.push_back(CopyContent(served->repair));
      } else {
        ExpectSameRepair(witness[round], served->repair);
      }
    }
    RepairServiceStats stats = service.stats();
    EXPECT_EQ(stats.delta_requests, static_cast<uint64_t>(kRounds));
    EXPECT_EQ(stats.delta_splices + stats.delta_full_replans,
              static_cast<uint64_t>(kRounds));
    // Chained small batches against a warm service should mostly splice.
    EXPECT_GT(stats.delta_splices, 0u) << "threads " << threads;
  }
}

/// Update-mode twin of the headline property: ApplyDelta on kUpdate
/// requests is bit-identical to a cold update re-plan of the mutated
/// state — for every engine thread count. The reference service owns a
/// private ValuePool, so this also exercises the deterministic
/// fresh-constant names: "⊥t<id>.<attr>" depends only on (TupleId, attr),
/// which CopyContent preserves, so both pools spell ⊥ cells identically.
TEST(ServiceDeltaTest, PropertyUpdateModeMutationSequencesAcrossThreadCounts) {
  ParsedFdSet parsed = OfficeFds();
  Table base = ScalingFamilyTable(parsed, 500, 23);
  constexpr int kRounds = 4;

  std::vector<Table> witness;  // per-round repair from the 1-thread service
  for (int threads : {1, 2, 8}) {
    RepairServiceOptions options;
    options.threads = threads;
    RepairService service(options);
    ASSERT_TRUE(
        service.Serve(Request(RepairMode::kUpdate, parsed.fds, &base)).ok());

    Rng rng(101);  // same seed per thread count: identical mutation chains
    DeltaBuilder builder(base);
    for (int round = 0; round < kRounds; ++round) {
      RandomBatch(&builder, /*updates=*/6, /*inserts=*/2, /*erases=*/2,
                  /*domain=*/31, &rng);
      TableDelta delta = builder.Finish();

      RepairRequest incremental =
          Request(RepairMode::kUpdate, parsed.fds, &builder.table());
      incremental.delta = &delta;
      auto served = service.ApplyDelta(incremental);
      ASSERT_TRUE(served.ok())
          << served.status() << " threads " << threads << " round " << round;

      Table copy = CopyContent(builder.table());
      RepairService fresh;
      auto reference =
          fresh.Serve(Request(RepairMode::kUpdate, parsed.fds, &copy));
      ASSERT_TRUE(reference.ok()) << reference.status();
      ExpectSameRepair(reference->repair, served->repair);
      EXPECT_EQ(reference->distance, served->distance);

      if (threads == 1) {
        witness.push_back(CopyContent(served->repair));
      } else {
        ExpectSameRepair(witness[round], served->repair);
      }
    }
    RepairServiceStats stats = service.stats();
    EXPECT_EQ(stats.udelta_requests, static_cast<uint64_t>(kRounds));
    EXPECT_EQ(stats.udelta_splices + stats.udelta_full_replans,
              static_cast<uint64_t>(kRounds));
    // OfficeFds routes through the common-lhs exact path, which captures a
    // spliceable U-plan: chained batches against a warm service must splice.
    EXPECT_GT(stats.udelta_splices, 0u) << "threads " << threads;
  }
}

/// Solver backends compose with the delta path: explicit-backend requests
/// capture no plan (hard-route results are not spliceable), so a delta
/// request keyed to them re-plans in full — and must still be
/// bit-identical to a cold request for the mutated state.
TEST(ServiceDeltaTest, PropertyHoldsForEveryRegisteredSolverBackend) {
  ParsedFdSet parsed = OfficeFds();
  Table base = ScalingFamilyTable(parsed, 30, 29);

  for (const SolverBackend* backend : AllSolverBackends()) {
    RepairService service;
    RepairRequest cold = Request(RepairMode::kSubset, parsed.fds, &base);
    cold.options.backend = backend->name();
    ASSERT_TRUE(service.Serve(cold).ok()) << backend->name();

    Rng rng(7);
    DeltaBuilder builder(base);
    RandomBatch(&builder, /*updates=*/2, /*inserts=*/1, /*erases=*/1,
                /*domain=*/4, &rng);
    TableDelta delta = builder.Finish();

    RepairRequest incremental =
        Request(RepairMode::kSubset, parsed.fds, &builder.table());
    incremental.delta = &delta;
    incremental.options.backend = backend->name();
    auto served = service.ApplyDelta(incremental);
    ASSERT_TRUE(served.ok()) << served.status() << " " << backend->name();
    EXPECT_EQ(served->backend, backend->name());

    Table copy = CopyContent(builder.table());
    RepairService fresh;
    RepairRequest reference_request =
        Request(RepairMode::kSubset, parsed.fds, &copy);
    reference_request.options.backend = backend->name();
    auto reference = fresh.Serve(reference_request);
    ASSERT_TRUE(reference.ok()) << reference.status();
    ExpectSameRepair(reference->repair, served->repair);
    EXPECT_EQ(reference->distance, served->distance);

    RepairServiceStats stats = service.stats();
    EXPECT_EQ(stats.delta_requests, 1u) << backend->name();
    EXPECT_EQ(stats.delta_splices, 0u) << backend->name();
    EXPECT_EQ(stats.delta_full_replans, 1u) << backend->name();
  }
}

}  // namespace
}  // namespace fdrepair
