// Incremental repair under mutation: TableDelta chain hashes and
// DeltaBuilder collapse semantics, Table::EraseRow invariants,
// BaseBlockIndex clean/dirty classification, plan capture + dirty-block
// splicing in OptSRepair, and the end-to-end property that
// RepairService::ApplyDelta is bit-identical to a cold full re-plan over
// random mutation sequences, across thread counts and solver backends.

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "catalog/fd_parser.h"
#include "common/random.h"
#include "engine/block_partitioner.h"
#include "service/repair_service.h"
#include "srepair/opt_srepair.h"
#include "srepair/planner.h"
#include "srepair/solver_backend.h"
#include "storage/table.h"
#include "storage/table_delta.h"
#include "storage/table_hash.h"
#include "storage/table_view.h"
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
  EXPECT_EQ(delta.inserted, std::vector<TupleId>{});
  EXPECT_EQ(delta.updated, std::vector<TupleId>{2});
  EXPECT_EQ(delta.deleted, std::vector<TupleId>{});

  auto hash = DeltaChainHash(delta, builder.table());
  ASSERT_TRUE(hash.ok()) << hash.status();
  EXPECT_EQ(*hash, delta.result_hash);
  EXPECT_TRUE(ValidateDelta(delta, builder.table()).ok());
}

TEST(TableDeltaTest, ChainComposesAndDiffersFromContentHash) {
  Table base = SmallTable(5);
  DeltaBuilder builder(base);
  ASSERT_TRUE(builder.Update(1, 0, "m0").ok());
  TableDelta first = builder.Finish();
  builder.Insert({"x9", "y9"}, 2.0);
  TableDelta second = builder.Finish();

  EXPECT_EQ(second.base_hash, first.result_hash);
  EXPECT_NE(first.result_hash, second.result_hash);
  // Chain identity is deliberately distinct from the mutated state's
  // content identity (delta-keyed and cold-keyed entries never alias).
  EXPECT_NE(second.result_hash, TableContentHash(builder.table()));
  EXPECT_TRUE(ValidateDelta(second, builder.table()).ok());
}

TEST(TableDeltaTest, EditsCollapseToNetEffect) {
  Table base = SmallTable(4);

  {  // insert + update stays an insert.
    DeltaBuilder builder(base);
    TupleId id = builder.Insert({"x7", "y7"});
    ASSERT_TRUE(builder.Update(id, 0, "x8").ok());
    TableDelta delta = builder.Finish();
    EXPECT_EQ(delta.inserted, std::vector<TupleId>{id});
    EXPECT_TRUE(delta.updated.empty());
  }
  {  // insert + erase nets out to nothing.
    DeltaBuilder builder(base);
    TupleId id = builder.Insert({"x7", "y7"});
    ASSERT_TRUE(builder.Erase(id).ok());
    TableDelta delta = builder.Finish();
    EXPECT_TRUE(delta.empty());
    // An empty delta still advances nothing: its chain hash is a pure
    // function of the base hash, and the state really is the base state.
    EXPECT_TRUE(ValidateDelta(delta, builder.table()).ok());
  }
  {  // update + erase is an erase.
    DeltaBuilder builder(base);
    ASSERT_TRUE(builder.Update(1, 1, "gone").ok());
    ASSERT_TRUE(builder.Erase(1).ok());
    TableDelta delta = builder.Finish();
    EXPECT_TRUE(delta.updated.empty());
    EXPECT_EQ(delta.deleted, std::vector<TupleId>{1});
    EXPECT_TRUE(ValidateDelta(delta, builder.table()).ok());
  }
}

TEST(TableDeltaTest, HashBindsContentAndSectionFraming) {
  Table base = SmallTable(4);

  // Same edit shape, different new content: different chains.
  DeltaBuilder a(base);
  ASSERT_TRUE(a.Update(1, 0, "left").ok());
  DeltaBuilder b(base);
  ASSERT_TRUE(b.Update(1, 0, "right").ok());
  EXPECT_NE(a.Finish().result_hash, b.Finish().result_hash);

  // The same row reported as inserted vs updated must hash differently,
  // even though the mixed row bytes are identical (section framing).
  Table mutated = SmallTable(4);
  TableDelta as_inserted;
  as_inserted.base_hash = 42;
  as_inserted.inserted = {2};
  TableDelta as_updated;
  as_updated.base_hash = 42;
  as_updated.updated = {2};
  auto ih = DeltaChainHash(as_inserted, mutated);
  auto uh = DeltaChainHash(as_updated, mutated);
  ASSERT_TRUE(ih.ok() && uh.ok());
  EXPECT_NE(*ih, *uh);
}

TEST(TableDeltaTest, ValidationRejectsMalformedDeltas) {
  Table mutated = SmallTable(4);

  TableDelta unsorted;
  unsorted.updated = {3, 1};
  EXPECT_EQ(DeltaChainHash(unsorted, mutated).status().code(),
            StatusCode::kInvalidArgument);

  TableDelta overlapping;
  overlapping.inserted = {1};
  overlapping.updated = {1};
  EXPECT_EQ(ValidateDelta(overlapping, mutated).code(),
            StatusCode::kInvalidArgument);

  TableDelta still_present;
  still_present.deleted = {2};  // id 2 exists in `mutated`
  EXPECT_EQ(ValidateDelta(still_present, mutated).code(),
            StatusCode::kInvalidArgument);

  TableDelta unknown;
  unknown.updated = {99};
  EXPECT_EQ(DeltaChainHash(unknown, mutated).status().code(),
            StatusCode::kInvalidArgument);

  DeltaBuilder builder(mutated);
  ASSERT_TRUE(builder.Update(1, 0, "zz").ok());
  TableDelta stale = builder.Finish();
  stale.result_hash ^= 1;  // corrupt the chain
  EXPECT_EQ(ValidateDelta(stale, builder.table()).code(),
            StatusCode::kInvalidArgument);
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
  index.Add(b0);
  index.Add(b1);
  index.Add(b2);
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
  size_t members = 0, kept = 0;
  for (const auto& block : plan.blocks) {
    members += block->ids.size();
    kept += block->kept_pos.size();
    for (int p : block->kept_pos) {
      ASSERT_GE(p, 0);
      ASSERT_LT(p, static_cast<int>(block->ids.size()));
    }
  }
  EXPECT_EQ(members, static_cast<size_t>(table.num_tuples()));
  EXPECT_EQ(kept, captured->size());
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
  // mis-served. Staleness of *unlisted* rows is intentionally not caught —
  // that is the O(|delta|) validation tradeoff.
  RepairRequest stale =
      Request(RepairMode::kSubset, parsed.fds, &builder.table());
  stale.delta = &delta;
  ASSERT_TRUE(builder.Update(victim, 1, "later").ok());
  EXPECT_EQ(service.ApplyDelta(stale).status().code(),
            StatusCode::kInvalidArgument);
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
    options.engine.threads = threads;
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
    options.engine.threads = threads;
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
