// The serving layer: canonicalized cache keys, bit-identical cached
// replays, LRU eviction, single-flight dedup, and admission control
// (kDeadlineExceeded / kUnavailable instead of stalling).

#include <gtest/gtest.h>

#include <chrono>
#include <condition_variable>
#include <memory>
#include <mutex>
#include <optional>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "catalog/fd_parser.h"
#include "service/repair_service.h"
#include "srepair/planner.h"
#include "srepair/solver_backend.h"
#include "storage/consistency.h"
#include "storage/table_hash.h"
#include "storage/table_io.h"
#include "urepair/fresh.h"
#include "urepair/opt_urepair.h"
#include "urepair/planner.h"
#include "workloads/example_fdsets.h"
#include "workloads/generators.h"

namespace fdrepair {
namespace {

using std::chrono::milliseconds;

/// An in-memory deep copy with its own Schema and ValuePool (and a
/// different relation name): only *content* matches the source. CSV is not
/// used here because weight printing is 6-significant-digit lossy.
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

RepairRequest Request(RepairMode mode, const FdSet& fds,
                      const Table* table) {
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

TEST(TableHashTest, EqualContentHashesEqualAcrossPools) {
  ParsedFdSet parsed = OfficeFds();
  Table a = ScalingFamilyTable(parsed, 64, 7);
  Table b = CopyContent(a);
  EXPECT_EQ(TableContentHash(a), TableContentHash(b));
}

TEST(TableHashTest, ValueWeightAndIdChangesChangeTheHash) {
  Table base(Schema::MakeOrDie("T", {"a", "b"}));
  base.AddTuple({"x", "y"}, 1.0);
  uint64_t h0 = TableContentHash(base);

  Table value_differs(Schema::MakeOrDie("T", {"a", "b"}));
  value_differs.AddTuple({"x", "z"}, 1.0);
  EXPECT_NE(TableContentHash(value_differs), h0);

  Table weight_differs(Schema::MakeOrDie("T", {"a", "b"}));
  weight_differs.AddTuple({"x", "y"}, 2.0);
  EXPECT_NE(TableContentHash(weight_differs), h0);

  Table id_differs(Schema::MakeOrDie("T", {"a", "b"}));
  ASSERT_TRUE(id_differs.AddTupleWithId(7, {"x", "y"}, 1.0).ok());
  EXPECT_NE(TableContentHash(id_differs), h0);

  // Concatenation framing: ("xy", "") must not collide with ("x", "y").
  Table framing(Schema::MakeOrDie("T", {"a", "b"}));
  framing.AddTuple({"xy", ""}, 1.0);
  EXPECT_NE(TableContentHash(framing), h0);

  // A value moved to another column.
  Table moved(Schema::MakeOrDie("T", {"a", "b"}));
  moved.AddTuple({"y", "x"}, 1.0);
  EXPECT_NE(TableContentHash(moved), h0);

  // Two rows swapped: row order is part of the content.
  Table two(Schema::MakeOrDie("T", {"a", "b"}));
  ASSERT_TRUE(two.AddTupleWithId(1, {"x", "y"}, 1.0).ok());
  ASSERT_TRUE(two.AddTupleWithId(2, {"x", "z"}, 1.0).ok());
  Table swapped(Schema::MakeOrDie("T", {"a", "b"}));
  ASSERT_TRUE(swapped.AddTupleWithId(2, {"x", "z"}, 1.0).ok());
  ASSERT_TRUE(swapped.AddTupleWithId(1, {"x", "y"}, 1.0).ok());
  EXPECT_NE(TableContentHash(swapped), TableContentHash(two));
}

TEST(CanonicalCoverTest, NormalizesPhrasingsAndStaysEquivalent) {
  Schema schema = Schema::MakeOrDie("R", {"A", "B", "C"});
  FdSet minimal = ParseFdSetOrDie(schema, "A -> B; B -> C");
  // Inflated lhs (A B -> C has extraneous B) and an implied FD (A -> C).
  FdSet inflated = ParseFdSetOrDie(schema, "A -> B; B -> C; A B -> C");
  FdSet implied = ParseFdSetOrDie(schema, "A -> B; B -> C; A -> C");
  EXPECT_EQ(minimal.CanonicalCover(), minimal);
  EXPECT_EQ(inflated.CanonicalCover(), minimal);
  EXPECT_EQ(implied.CanonicalCover(), minimal);
  EXPECT_TRUE(inflated.CanonicalCover().EquivalentTo(inflated));

  // A cyclic equivalence class must keep its cycle (equivalence, not just
  // minimality, is the load-bearing property).
  FdSet cycle = ParseFdSetOrDie(schema, "A -> B; B -> C; C -> A");
  EXPECT_TRUE(cycle.CanonicalCover().EquivalentTo(cycle));
}

TEST(RepairServiceTest, SubsetHitAndMissAreBitIdenticalToPlanner) {
  ParsedFdSet parsed = OfficeFds();
  Table table = ScalingFamilyTable(parsed, 600, 11);
  RepairService service;
  RepairRequest request = Request(RepairMode::kSubset, parsed.fds, &table);

  auto miss = service.Serve(request);
  ASSERT_TRUE(miss.ok()) << miss.status();
  EXPECT_FALSE(miss->cache_hit);
  auto hit = service.Serve(request);
  ASSERT_TRUE(hit.ok()) << hit.status();
  EXPECT_TRUE(hit->cache_hit);
  EXPECT_EQ(miss->cache_key, hit->cache_key);

  auto direct = ComputeSRepair(parsed.fds, table);
  ASSERT_TRUE(direct.ok()) << direct.status();
  ExpectSameRepair(direct->repair, miss->repair);
  ExpectSameRepair(direct->repair, hit->repair);
  EXPECT_EQ(miss->distance, direct->distance);
  EXPECT_EQ(hit->distance, direct->distance);
  EXPECT_EQ(hit->optimal, direct->optimal);

  RepairServiceStats stats = service.stats();
  EXPECT_EQ(stats.lookups, 2u);
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.entries, 1u);
}

TEST(RepairServiceTest, UpdateHitAndMissAreBitIdenticalToPlanner) {
  ParsedFdSet parsed = OfficeFds();
  Rng rng(13);
  PlantedTableOptions options;
  options.num_tuples = 80;
  options.corruptions = 12;
  Table table = PlantedDirtyTable(parsed.schema, parsed.fds, options, &rng);
  // The direct run uses a content-identical copy with its own ValuePool.
  // Fresh-constant names are deterministic ("⊥t<id>.<attr>", derived from
  // the cell, not from pool counters), so a shared pool would also work —
  // the private pool is kept to pin exactly that cross-pool agreement.
  auto copy = TableFromCsv(TableToCsv(table));
  ASSERT_TRUE(copy.ok()) << copy.status();
  FdSet copy_fds = ParseFdSetOrDie(
      copy->schema(), "facility -> city; facility room -> floor");

  RepairService service;
  RepairRequest request = Request(RepairMode::kUpdate, parsed.fds, &table);
  auto miss = service.Serve(request);
  ASSERT_TRUE(miss.ok()) << miss.status();
  EXPECT_FALSE(miss->cache_hit);
  auto hit = service.Serve(request);
  ASSERT_TRUE(hit.ok()) << hit.status();
  EXPECT_TRUE(hit->cache_hit);

  auto direct = ComputeURepair(copy_fds, *copy);
  ASSERT_TRUE(direct.ok()) << direct.status();
  ExpectSameRepair(direct->update, miss->repair);
  ExpectSameRepair(direct->update, hit->repair);
  EXPECT_EQ(miss->distance, direct->distance);
  EXPECT_EQ(hit->distance, direct->distance);
}

/// An update hit must be bit-identical, by text and distance, to a direct
/// run on `table` itself: ComputeURepair on the canonical cover, which
/// works on a clone sharing the table's pool.
void ExpectUpdateHitMatchesDirect(const RepairResponse& hit, const FdSet& fds,
                                  const Table& table) {
  EXPECT_TRUE(hit.cache_hit);
  auto direct = ComputeURepair(fds.CanonicalCover(), table);
  ASSERT_TRUE(direct.ok()) << direct.status();
  ExpectSameRepair(direct->update, hit.repair);
  EXPECT_EQ(hit.distance, direct->distance);
}

Table PlantedOffice(const ParsedFdSet& parsed, int tuples, uint64_t seed) {
  Rng rng(seed);
  PlantedTableOptions options;
  options.num_tuples = tuples;
  options.corruptions = tuples / 6;
  return PlantedDirtyTable(parsed.schema, parsed.fds, options, &rng);
}

// A hit on the leader's own pool writes the ids it recorded; a hit on a
// content-identical table with a private pool interns the texts. Both must
// match the direct path.
TEST(RepairServiceTest, UpdateHitOnSameTableAndPrivatePoolCopyMatchDirect) {
  ParsedFdSet parsed = OfficeFds();
  Table table = PlantedOffice(parsed, 120, 41);
  Table copy = CopyContent(table);
  RepairService service;
  auto miss = service.Serve(Request(RepairMode::kUpdate, parsed.fds, &table));
  ASSERT_TRUE(miss.ok()) << miss.status();
  ASSERT_FALSE(miss->cache_hit);

  // (a) the same Table object: same pool, so the very same ValueIds.
  auto same = service.Serve(Request(RepairMode::kUpdate, parsed.fds, &table));
  ASSERT_TRUE(same.ok()) << same.status();
  ExpectUpdateHitMatchesDirect(*same, parsed.fds, table);
  for (int row = 0; row < table.num_tuples(); ++row) {
    EXPECT_EQ(same->repair.tuple(row), miss->repair.tuple(row)) << row;
  }

  // (b) a content-identical copy on a private pool.
  auto copied = service.Serve(Request(RepairMode::kUpdate, parsed.fds, &copy));
  ASSERT_TRUE(copied.ok()) << copied.status();
  EXPECT_EQ(copied->repair.pool(), copy.pool());
  ExpectUpdateHitMatchesDirect(*copied, parsed.fds, copy);
  EXPECT_EQ(service.stats().misses, 1u);
}

// (c) Once the leader's table, its responses and every table derived from
// them are gone, the pool the entry recorded ids for has expired: a hit on
// a copy interns exactly the edit texts its own pool lacks.
TEST(RepairServiceTest, UpdateHitAfterTheLeadersPoolExpiredInternsTheTexts) {
  ParsedFdSet parsed = OfficeFds();
  RepairService service;
  std::weak_ptr<ValuePool> origin_pool;
  std::optional<Table> copy;
  {
    Table origin = PlantedOffice(parsed, 120, 43);
    copy = CopyContent(origin);
    origin_pool = origin.pool();
    auto miss =
        service.Serve(Request(RepairMode::kUpdate, parsed.fds, &origin));
    ASSERT_TRUE(miss.ok()) << miss.status();
    auto hit = service.Serve(Request(RepairMode::kUpdate, parsed.fds, &origin));
    ASSERT_TRUE(hit.ok()) << hit.status();
    ASSERT_TRUE(hit->cache_hit);
    Table derived = hit->repair.SubsetByRows({0, 1});
    Table clone = miss->repair.Clone();
  }
  ASSERT_TRUE(origin_pool.expired());

  const Table reference = CopyContent(*copy);
  auto cells = OptURepairCells(parsed.fds.CanonicalCover(), reference);
  ASSERT_TRUE(cells.ok()) << cells.status();
  std::set<std::string> missing;
  for (const URepairCellEdit& edit : cells->edits) {
    if (!copy->pool()->Lookup(edit.text).ok()) missing.insert(edit.text);
  }
  EXPECT_FALSE(missing.empty());
  const int64_t before = copy->pool()->size();
  auto hit = service.Serve(Request(RepairMode::kUpdate, parsed.fds, &*copy));
  ASSERT_TRUE(hit.ok()) << hit.status();
  EXPECT_EQ(copy->pool()->size(),
            before + static_cast<int64_t>(missing.size()));
  ExpectUpdateHitMatchesDirect(*hit, parsed.fds, *copy);
  EXPECT_EQ(service.stats().misses, 1u);
}

// (d) User data already holds the fresh names the repair would pick, so the
// pool disambiguates them with "'": the recorded ids and the re-interned
// texts must both carry the disambiguated names.
TEST(RepairServiceTest, UpdateHitReplaysFreshNamesDisambiguatedFromUserData) {
  ParsedFdSet office = OfficeFds();
  Table planted = PlantedOffice(office, 120, 47);
  Schema schema = Schema::MakeOrDie(
      "OfficeNotes", {"facility", "room", "floor", "city", "note"});
  Table table(schema);
  for (int row = 0; row < planted.num_tuples(); ++row) {
    std::vector<std::string> values;
    for (AttrId attr = 0; attr < 4; ++attr) {
      values.push_back(planted.ValueText(row, attr));
    }
    // Every attribute's per-cell fresh name of this tuple, in turn.
    values.push_back(FreshCellName(planted.id(row), row % 4));
    ASSERT_TRUE(
        table.AddTupleWithId(planted.id(row), values, planted.weight(row))
            .ok());
  }
  FdSet fds =
      ParseFdSetOrDie(schema, "facility -> city; facility room -> floor");
  Table copy = CopyContent(table);

  RepairService service;
  auto miss = service.Serve(Request(RepairMode::kUpdate, fds, &table));
  ASSERT_TRUE(miss.ok()) << miss.status();
  int disambiguated = 0;
  for (int row = 0; row < table.num_tuples(); ++row) {
    for (AttrId attr = 0; attr < 4; ++attr) {
      const std::string& text = miss->repair.ValueText(row, attr);
      if (text.rfind("⊥t", 0) == 0 && text.back() == '\'') ++disambiguated;
    }
  }
  EXPECT_GT(disambiguated, 0);

  auto same = service.Serve(Request(RepairMode::kUpdate, fds, &table));
  ASSERT_TRUE(same.ok()) << same.status();
  ExpectUpdateHitMatchesDirect(*same, fds, table);
  auto copied = service.Serve(Request(RepairMode::kUpdate, fds, &copy));
  ASSERT_TRUE(copied.ok()) << copied.status();
  ExpectUpdateHitMatchesDirect(*copied, fds, copy);
  ExpectSameRepair(miss->repair, copied->repair);
}

// (e) The hit's pool already holds, as user data of another table, a ⊥ name
// the leader wrote on its private pool. The replay must manufacture that
// edit as a fresh value — "'"-disambiguated, as a direct run on the hit's
// pool does — instead of interning the leader's text as the user value.
TEST(RepairServiceTest, UpdateHitOnAPoolHoldingTheFreshNamesAsUserData) {
  ParsedFdSet parsed = OfficeFds();
  Table leader = PlantedOffice(parsed, 120, 59);
  RepairService service;
  auto miss = service.Serve(Request(RepairMode::kUpdate, parsed.fds, &leader));
  ASSERT_TRUE(miss.ok()) << miss.status();
  int fresh_row = -1;
  AttrId fresh_attr = 0;
  for (int row = 0; row < leader.num_tuples() && fresh_row < 0; ++row) {
    for (AttrId attr = 0; attr < leader.schema().arity(); ++attr) {
      if (miss->repair.ValueText(row, attr).rfind("⊥t", 0) == 0) {
        fresh_row = row;
        fresh_attr = attr;
        break;
      }
    }
  }
  ASSERT_GE(fresh_row, 0);
  const std::string name = miss->repair.ValueText(fresh_row, fresh_attr);

  auto pool = std::make_shared<ValuePool>();
  Table other(parsed.schema, pool);
  other.AddTuple({name, "room", "floor", "city"});
  Table copy(parsed.schema, pool);
  for (int row = 0; row < leader.num_tuples(); ++row) {
    std::vector<std::string> values;
    for (AttrId attr = 0; attr < leader.schema().arity(); ++attr) {
      values.push_back(leader.ValueText(row, attr));
    }
    ASSERT_TRUE(
        copy.AddTupleWithId(leader.id(row), values, leader.weight(row)).ok());
  }

  auto hit = service.Serve(Request(RepairMode::kUpdate, parsed.fds, &copy));
  ASSERT_TRUE(hit.ok()) << hit.status();
  EXPECT_EQ(hit->repair.ValueText(fresh_row, fresh_attr), name + "'");
  EXPECT_TRUE(pool->IsFresh(hit->repair.value(fresh_row, fresh_attr)));
  const Table clone = copy.Clone();
  ExpectUpdateHitMatchesDirect(*hit, parsed.fds, clone);
  EXPECT_EQ(service.stats().misses, 1u);
}

// (f) The exact search copies a ⊥ the input already holds: fresh on the
// leader's pool (an earlier repair's output), user data on the hit's pool
// (the same content reloaded). The edit is a copy, not a manufactured
// value, so the hit must write the hit table's own value, as a direct run
// there does; replaying it as fresh would break A -> B.
TEST(RepairServiceTest, UpdateHitCopiesAHeldFreshValueAsTableData) {
  ParsedFdSet parsed = ParseFdSetInferSchemaOrDie("A -> B; C -> A");
  Table leader(parsed.schema);
  leader.AddTuple({"a1", "b1", "c1"});
  leader.AddTuple({"a1", "b1", "c1"});
  leader.AddTuple({"a1", "b2", "c1"});
  const ValueId held = leader.FreshValueNamed("⊥0");
  leader.SetValue(0, 1, held);
  leader.SetValue(1, 1, held);
  const std::string text = leader.pool()->Text(held);
  // The one cost-1 repair: row 2 copies the held ⊥ into B (changing A
  // breaks C -> A).
  auto cells = OptURepairCells(parsed.fds.CanonicalCover(), leader);
  ASSERT_TRUE(cells.ok()) << cells.status();
  ASSERT_EQ(cells->plan.components.size(), 1u);
  ASSERT_EQ(cells->plan.components[0].route, URepairRoute::kExactSearch);
  ASSERT_EQ(cells->edits.size(), 1u);
  EXPECT_EQ(cells->edits[0].attr, 1);
  EXPECT_EQ(cells->edits[0].text, text);
  EXPECT_FALSE(cells->edits[0].fresh);

  RepairService service;
  auto miss = service.Serve(Request(RepairMode::kUpdate, parsed.fds, &leader));
  ASSERT_TRUE(miss.ok()) << miss.status();
  ASSERT_FALSE(miss->cache_hit);
  Table copy = CopyContent(leader);
  ASSERT_FALSE(copy.pool()->IsFresh(copy.value(0, 1)));
  auto hit = service.Serve(Request(RepairMode::kUpdate, parsed.fds, &copy));
  ASSERT_TRUE(hit.ok()) << hit.status();
  EXPECT_EQ(hit->repair.value(2, 1), copy.value(0, 1));
  EXPECT_TRUE(Satisfies(hit->repair, parsed.fds));
  ExpectUpdateHitMatchesDirect(*hit, parsed.fds, copy);
  EXPECT_EQ(service.stats().misses, 1u);
}

// Two threads replay one update entry onto its own pool while a third
// interns into that pool: the recorded ids stay valid (pools are
// append-only) and no replay races the interner.
TEST(RepairServiceTest, ConcurrentUpdateHitsWhileThePoolGrows) {
  ParsedFdSet parsed = OfficeFds();
  Table table = PlantedOffice(parsed, 200, 53);
  RepairService service;
  auto miss = service.Serve(Request(RepairMode::kUpdate, parsed.fds, &table));
  ASSERT_TRUE(miss.ok()) << miss.status();

  constexpr int kHits = 20;
  std::vector<std::vector<RepairResponse>> responses(2);
  std::vector<std::thread> threads;
  for (int t = 0; t < 2; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kHits; ++i) {
        auto hit =
            service.Serve(Request(RepairMode::kUpdate, parsed.fds, &table));
        if (hit.ok()) responses[t].push_back(std::move(*hit));
      }
    });
  }
  threads.emplace_back([&] {
    for (int i = 0; i < 2000; ++i) {
      table.pool()->Intern("noise-" + std::to_string(i));
    }
  });
  for (std::thread& thread : threads) thread.join();

  for (const std::vector<RepairResponse>& hits : responses) {
    ASSERT_EQ(hits.size(), static_cast<size_t>(kHits));
    for (const RepairResponse& hit : hits) {
      EXPECT_TRUE(hit.cache_hit);
      ExpectSameRepair(miss->repair, hit.repair);
      EXPECT_EQ(hit.distance, miss->distance);
    }
  }
  ExpectUpdateHitMatchesDirect(responses[0].back(), parsed.fds, table);
}

TEST(RepairServiceTest, EquivalentFdPhrasingsShareOneCacheEntry) {
  ParsedFdSet parsed = OfficeFds();
  Table table = ScalingFamilyTable(parsed, 200, 17);
  RepairService service;

  RepairRequest minimal = Request(RepairMode::kSubset, parsed.fds, &table);
  auto first = service.Serve(minimal);
  ASSERT_TRUE(first.ok()) << first.status();

  // Same FDs plus an implied one, listed in a different order: the
  // canonical cover collapses both phrasings to one key.
  FdSet rephrased = ParseFdSetOrDie(
      parsed.schema,
      "facility room -> floor; facility -> city; facility room -> city");
  RepairRequest equivalent = Request(RepairMode::kSubset, rephrased, &table);
  auto second = service.Serve(equivalent);
  ASSERT_TRUE(second.ok()) << second.status();
  EXPECT_TRUE(second->cache_hit);
  EXPECT_EQ(first->cache_key, second->cache_key);
  ExpectSameRepair(first->repair, second->repair);
  EXPECT_EQ(service.stats().misses, 1u);
  EXPECT_EQ(service.stats().hits, 1u);
}

TEST(RepairServiceTest, ContentIdenticalTablesShareOneCacheEntry) {
  ParsedFdSet parsed = OfficeFds();
  Table original = ScalingFamilyTable(parsed, 150, 19);
  Table copy = CopyContent(original);

  RepairService service;
  auto first =
      service.Serve(Request(RepairMode::kSubset, parsed.fds, &original));
  ASSERT_TRUE(first.ok()) << first.status();
  // The copy lives in its own Table/ValuePool under another relation name;
  // only content matches. The FD set is re-parsed against the copy's
  // schema (same attribute order).
  FdSet copy_fds = ParseFdSetOrDie(
      copy.schema(), "facility -> city; facility room -> floor");
  auto second =
      service.Serve(Request(RepairMode::kSubset, copy_fds, &copy));
  ASSERT_TRUE(second.ok()) << second.status();
  EXPECT_TRUE(second->cache_hit);
  ExpectSameRepair(first->repair, second->repair);
}

TEST(RepairServiceTest, LruEvictsBeyondCapacity) {
  ParsedFdSet parsed = OfficeFds();
  std::vector<Table> tables;
  for (int i = 0; i < 3; ++i) {
    tables.push_back(ScalingFamilyTable(parsed, 100 + 10 * i, 100 + i));
  }
  RepairServiceOptions options;
  options.cache_capacity = 2;
  RepairService service(options);

  for (const Table& table : tables) {
    auto response =
        service.Serve(Request(RepairMode::kSubset, parsed.fds, &table));
    ASSERT_TRUE(response.ok()) << response.status();
  }
  RepairServiceStats stats = service.stats();
  EXPECT_EQ(stats.misses, 3u);
  EXPECT_EQ(stats.evictions, 1u);
  EXPECT_EQ(stats.entries, 2u);

  // tables[0] was least recently used: it recomputes; tables[2] still hits.
  auto evicted =
      service.Serve(Request(RepairMode::kSubset, parsed.fds, &tables[0]));
  ASSERT_TRUE(evicted.ok()) << evicted.status();
  EXPECT_FALSE(evicted->cache_hit);
  auto kept =
      service.Serve(Request(RepairMode::kSubset, parsed.fds, &tables[2]));
  ASSERT_TRUE(kept.ok()) << kept.status();
  EXPECT_TRUE(kept->cache_hit);
}

TEST(RepairServiceTest, CapacityZeroDisablesCachingButStillServes) {
  ParsedFdSet parsed = OfficeFds();
  Table table = ScalingFamilyTable(parsed, 120, 23);
  RepairServiceOptions options;
  options.cache_capacity = 0;
  RepairService service(options);
  RepairRequest request = Request(RepairMode::kSubset, parsed.fds, &table);
  auto first = service.Serve(request);
  ASSERT_TRUE(first.ok()) << first.status();
  auto second = service.Serve(request);
  ASSERT_TRUE(second.ok()) << second.status();
  EXPECT_FALSE(second->cache_hit);
  ExpectSameRepair(first->repair, second->repair);
  RepairServiceStats stats = service.stats();
  EXPECT_EQ(stats.misses, 2u);
  EXPECT_EQ(stats.entries, 0u);
}

TEST(RepairServiceTest, BypassCacheNeitherReadsNorStores) {
  ParsedFdSet parsed = OfficeFds();
  Table table = ScalingFamilyTable(parsed, 120, 29);
  RepairService service;
  RepairRequest request = Request(RepairMode::kSubset, parsed.fds, &table);
  request.options.bypass_cache = true;
  auto first = service.Serve(request);
  ASSERT_TRUE(first.ok()) << first.status();
  EXPECT_FALSE(first->cache_hit);
  RepairServiceStats stats = service.stats();
  EXPECT_EQ(stats.hits, 0u);
  EXPECT_EQ(stats.misses, 0u);
  EXPECT_EQ(stats.entries, 0u);
}

TEST(RepairServiceTest, SequentialThreadHintMatchesParallelResult) {
  ParsedFdSet parsed = Example31Ssn();
  Table table = ScalingFamilyTable(parsed, 800, 31);
  RepairService service;
  RepairRequest parallel = Request(RepairMode::kSubset, parsed.fds, &table);
  auto from_pool = service.Serve(parallel);
  ASSERT_TRUE(from_pool.ok()) << from_pool.status();

  RepairService fresh;  // separate service: no cache reuse across the two
  RepairRequest sequential = Request(RepairMode::kSubset, parsed.fds, &table);
  sequential.options.threads = 1;
  auto inline_run = fresh.Serve(sequential);
  ASSERT_TRUE(inline_run.ok()) << inline_run.status();
  ExpectSameRepair(from_pool->repair, inline_run->repair);
}

TEST(RepairServiceTest, SingleFlightDeduplicatesConcurrentIdenticalRequests) {
  ParsedFdSet parsed = OfficeFds();
  Table table = ScalingFamilyTable(parsed, 20000, 37);
  RepairService service;
  constexpr int kClients = 6;
  std::vector<StatusOr<RepairResponse>> responses(
      kClients, Status::Internal("never ran"));
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      responses[c] =
          service.Serve(Request(RepairMode::kSubset, parsed.fds, &table));
    });
  }
  for (std::thread& t : clients) t.join();

  for (int c = 0; c < kClients; ++c) {
    ASSERT_TRUE(responses[c].ok()) << c << ": " << responses[c].status();
    ExpectSameRepair(responses[0]->repair, responses[c]->repair);
  }
  RepairServiceStats stats = service.stats();
  // Exactly one execution; everyone else was served from it — either by
  // waiting on the in-flight computation (counted in single_flight_waits
  // AND in hits once served) or by finding the finished entry.
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.hits, static_cast<uint64_t>(kClients - 1));
  EXPECT_LE(stats.single_flight_waits, static_cast<uint64_t>(kClients - 1));
}

/// A solver backend that parks in SolveCover until the test opens its
/// gate, then answers like local-ratio. A request routed to it holds its
/// execution slot for exactly as long as the test needs, on any machine.
/// Fail() opens the gate with a verdict instead: the parked solve returns
/// that status, once, the way a solver's cooperative deadline check would.
class GateBackend : public SolverBackend {
 public:
  static constexpr char kName[] = "test-gate";

  const char* name() const override { return kName; }
  bool exact() const override { return false; }
  StatusOr<SolverCover> SolveCover(const NodeWeightedGraph& graph,
                                   const SolverExec& exec) const override {
    std::unique_lock<std::mutex> lock(mutex_);
    entered_ = true;
    changed_.notify_all();
    changed_.wait(lock, [this] { return open_; });
    if (!verdict_.ok()) {
      Status verdict = verdict_;
      verdict_ = Status::OK();
      return verdict;
    }
    return FindSolverBackend(kSolverLocalRatio)->SolveCover(graph, exec);
  }

  void WaitEntered() const {
    std::unique_lock<std::mutex> lock(mutex_);
    changed_.wait(lock, [this] { return entered_; });
  }
  void Open() const { Fail(Status::OK()); }
  void Fail(Status verdict) const {
    std::lock_guard<std::mutex> lock(mutex_);
    verdict_ = std::move(verdict);
    open_ = true;
    changed_.notify_all();
  }

 private:
  mutable std::mutex mutex_;
  mutable std::condition_variable changed_;
  mutable bool entered_ = false;
  mutable bool open_ = false;
  mutable Status verdict_;
};

/// Registers a fresh gate (later registrations shadow earlier ones, so
/// every test — and every --gtest_repeat iteration — gets its own).
const GateBackend& RegisterGate() {
  auto owned = std::make_unique<GateBackend>();
  const GateBackend& gate = *owned;
  RegisterSolverBackend(std::move(owned));
  return gate;
}

TEST(RepairServiceTest, DeadlineAndCapacityRejectionUnderFullQueue) {
  // The occupant holds the single execution slot until the test releases
  // it: a small hard-∆ table routed to the gate backend, which blocks
  // inside SolveCover.
  const GateBackend& gate = RegisterGate();
  ParsedFdSet hard = DeltaAtoBtoC();
  Table occupant_table = ScalingFamilyTable(hard, 64, 41);
  ParsedFdSet parsed = Example31Ssn();
  Table small_a = ScalingFamilyTable(parsed, 50, 43);
  Table small_b = ScalingFamilyTable(parsed, 60, 47);

  RepairServiceOptions options;
  options.threads = 1;
  options.max_inflight = 1;
  options.max_queue = 1;
  RepairService service(options);

  // Occupy the single execution slot until the gate opens.
  std::thread occupant([&] {
    RepairRequest request =
        Request(RepairMode::kSubset, hard.fds, &occupant_table);
    request.options.backend = GateBackend::kName;
    auto response = service.Serve(request);
    EXPECT_TRUE(response.ok()) << response.status();
  });
  gate.WaitEntered();

  // Fill the one queue slot with a request that will time out waiting.
  std::thread queued([&] {
    RepairRequest request = Request(RepairMode::kSubset, parsed.fds, &small_a);
    request.options.deadline = milliseconds(300);
    auto response = service.Serve(request);
    ASSERT_FALSE(response.ok());
    EXPECT_EQ(response.status().code(), StatusCode::kDeadlineExceeded);
  });
  while (service.stats().queued == 0 &&
         service.stats().rejected_deadline == 0) {
    std::this_thread::sleep_for(milliseconds(1));
  }

  // Queue full: the next distinct request is rejected immediately.
  if (service.stats().queued > 0) {
    RepairRequest request = Request(RepairMode::kSubset, parsed.fds, &small_b);
    auto response = service.Serve(request);
    ASSERT_FALSE(response.ok());
    EXPECT_EQ(response.status().code(), StatusCode::kUnavailable);
    EXPECT_GE(service.stats().rejected_unavailable, 1u);
  }

  queued.join();
  gate.Open();
  occupant.join();
  EXPECT_GE(service.stats().rejected_deadline, 1u);

  // The slot drained: a fresh request serves normally again.
  auto after =
      service.Serve(Request(RepairMode::kSubset, parsed.fds, &small_b));
  EXPECT_TRUE(after.ok()) << after.status();
}

TEST(RepairServiceTest, ExpiredDeadlineRejectsBeforeExecution) {
  ParsedFdSet parsed = OfficeFds();
  Table table = ScalingFamilyTable(parsed, 5000, 53);
  RepairService service;
  RepairRequest request = Request(RepairMode::kSubset, parsed.fds, &table);
  request.options.deadline = milliseconds(0);
  auto response = service.Serve(request);
  ASSERT_FALSE(response.ok());
  EXPECT_EQ(response.status().code(), StatusCode::kDeadlineExceeded);
  EXPECT_EQ(service.stats().rejected_deadline, 1u);
  // The failure was not cached: a follow-up without a deadline succeeds.
  request.options.deadline.reset();
  auto retry = service.Serve(request);
  ASSERT_TRUE(retry.ok()) << retry.status();
  EXPECT_FALSE(retry->cache_hit);
}

TEST(RepairServiceTest, ExpiredDeadlineFailsEvenOnACacheHit) {
  // A request whose deadline has passed when its lookup completes fails on
  // every path — a ready cache entry does not rescue it.
  ParsedFdSet parsed = OfficeFds();
  Table table = ScalingFamilyTable(parsed, 500, 59);
  RepairService service;
  RepairRequest request = Request(RepairMode::kSubset, parsed.fds, &table);
  auto primed = service.Serve(request);
  ASSERT_TRUE(primed.ok()) << primed.status();

  request.options.deadline = milliseconds(0);
  auto expired = service.Serve(request);
  ASSERT_FALSE(expired.ok());
  EXPECT_EQ(expired.status().code(), StatusCode::kDeadlineExceeded);
  RepairServiceStats stats = service.stats();
  EXPECT_EQ(stats.rejected_deadline, 1u);
  EXPECT_EQ(stats.hits, 0u);
  EXPECT_EQ(stats.entries, 1u);  // the entry itself is untouched

  // Any deadline that has not passed is answered from the cache.
  request.options.deadline = std::chrono::hours(1);
  auto hit = service.Serve(request);
  ASSERT_TRUE(hit.ok()) << hit.status();
  EXPECT_TRUE(hit->cache_hit);
  ExpectSameRepair(primed->repair, hit->repair);
}

TEST(RepairServiceTest, FollowerDoesNotInheritLeaderDeadlineFailure) {
  // A follower coalesced onto a leader whose own deadline kills the
  // computation must not be handed that kDeadlineExceeded: deadline and
  // capacity failures are the leader's circumstances, so the follower
  // retries as the new leader. The interleaving is forced, not raced: the
  // leader parks in the gate backend until the follower is waiting on it,
  // then the gate fails the leader's solve with kDeadlineExceeded.
  const GateBackend& gate = RegisterGate();
  ParsedFdSet hard = DeltaAtoBtoC();
  Table table = ScalingFamilyTable(hard, 64, 61);
  RepairService service;
  RepairRequest request = Request(RepairMode::kSubset, hard.fds, &table);
  request.options.backend = GateBackend::kName;

  StatusOr<RepairResponse> leader = Status::Internal("never ran");
  StatusOr<RepairResponse> follower = Status::Internal("never ran");
  std::thread leader_client([&] { leader = service.Serve(request); });
  gate.WaitEntered();
  std::thread follower_client([&] { follower = service.Serve(request); });
  while (service.stats().single_flight_waits == 0) {
    std::this_thread::sleep_for(milliseconds(1));
  }
  gate.Fail(Status::DeadlineExceeded("leader deadline expired mid-solve"));
  leader_client.join();
  follower_client.join();

  ASSERT_FALSE(leader.ok());
  EXPECT_EQ(leader.status().code(), StatusCode::kDeadlineExceeded);
  ASSERT_TRUE(follower.ok()) << follower.status();
  EXPECT_FALSE(follower->cache_hit);  // it re-ran as the new leader
  RepairServiceStats stats = service.stats();
  EXPECT_EQ(stats.misses, 2u);
  EXPECT_EQ(stats.single_flight_waits, 1u);
  EXPECT_EQ(stats.rejected_deadline, 1u);

  // The gate is open now, so a direct run through it is the reference.
  SRepairOptions direct_options;
  direct_options.backend = GateBackend::kName;
  auto direct = ComputeSRepair(hard.fds, table, direct_options);
  ASSERT_TRUE(direct.ok()) << direct.status();
  ExpectSameRepair(direct->repair, follower->repair);
}

TEST(RepairServiceTest, BackendSelectionRoundTripsAndKeysTheCache) {
  // The 3-way A->B violation clique: any repair keeps one tuple. The exact
  // backends prove distance 2; the fused local-ratio route certifies only
  // the a-priori factor 2 against its packing bound of 1.
  ParsedFdSet parsed = DeltaAtoBtoC();
  Table table(parsed.schema);
  table.AddTuple({"a", "x", "p"});
  table.AddTuple({"a", "y", "q"});
  table.AddTuple({"a", "z", "r"});
  RepairService service;

  RepairRequest exact = Request(RepairMode::kSubset, parsed.fds, &table);
  exact.options.backend = kSolverIlp;
  auto miss = service.Serve(exact);
  ASSERT_TRUE(miss.ok()) << miss.status();
  EXPECT_FALSE(miss->cache_hit);
  EXPECT_EQ(miss->backend, kSolverIlp);
  EXPECT_EQ(miss->route, "ilp-branch-and-bound");
  EXPECT_TRUE(miss->optimal);
  EXPECT_DOUBLE_EQ(miss->distance, 2.0);
  EXPECT_DOUBLE_EQ(miss->lower_bound, 2.0);
  EXPECT_DOUBLE_EQ(miss->achieved_ratio, 1.0);

  // The cached replay carries the full solver provenance.
  auto hit = service.Serve(exact);
  ASSERT_TRUE(hit.ok()) << hit.status();
  EXPECT_TRUE(hit->cache_hit);
  EXPECT_EQ(hit->cache_key, miss->cache_key);
  EXPECT_EQ(hit->backend, miss->backend);
  EXPECT_EQ(hit->lower_bound, miss->lower_bound);
  EXPECT_EQ(hit->achieved_ratio, miss->achieved_ratio);
  ExpectSameRepair(miss->repair, hit->repair);

  // Same table, different backend: a distinct key, never an aliased hit.
  RepairRequest approx = Request(RepairMode::kSubset, parsed.fds, &table);
  approx.options.backend = kSolverLocalRatio;
  auto other = service.Serve(approx);
  ASSERT_TRUE(other.ok()) << other.status();
  EXPECT_FALSE(other->cache_hit);
  EXPECT_NE(other->cache_key, miss->cache_key);
  EXPECT_EQ(other->backend, kSolverLocalRatio);
  EXPECT_FALSE(other->optimal);
  EXPECT_DOUBLE_EQ(other->ratio_bound, 2.0);
  EXPECT_DOUBLE_EQ(other->lower_bound, 1.0);
  EXPECT_DOUBLE_EQ(other->achieved_ratio, 2.0);
  EXPECT_EQ(service.stats().misses, 2u);
}

TEST(RepairServiceTest, MaxRatioGateSurfacesAndIsKeyedSeparately) {
  ParsedFdSet parsed = DeltaAtoBtoC();
  Table table(parsed.schema);
  table.AddTuple({"a", "x", "p"});
  table.AddTuple({"a", "y", "q"});
  table.AddTuple({"a", "z", "r"});
  RepairService service;

  // The fused approx route certifies only ratio 2 here, so a 1.5 gate
  // rejects with kResourceExhausted — surfaced verbatim by the service.
  RepairRequest gated = Request(RepairMode::kSubset, parsed.fds, &table);
  gated.options.backend = kSolverLocalRatio;
  gated.options.max_ratio = 1.5;
  auto rejected = service.Serve(gated);
  ASSERT_FALSE(rejected.ok());
  EXPECT_EQ(rejected.status().code(), StatusCode::kResourceExhausted);

  // The failure was not cached, and the ungated request has its own key:
  // it executes and succeeds.
  RepairRequest ungated = Request(RepairMode::kSubset, parsed.fds, &table);
  ungated.options.backend = kSolverLocalRatio;
  auto accepted = service.Serve(ungated);
  ASSERT_TRUE(accepted.ok()) << accepted.status();
  EXPECT_FALSE(accepted->cache_hit);

  // An exact backend passes the same gate (certified ratio 1).
  RepairRequest exact_gated = Request(RepairMode::kSubset, parsed.fds, &table);
  exact_gated.options.backend = kSolverBnb;
  exact_gated.options.max_ratio = 1.5;
  auto proved = service.Serve(exact_gated);
  ASSERT_TRUE(proved.ok()) << proved.status();
  EXPECT_TRUE(proved->optimal);
  EXPECT_EQ(proved->backend, kSolverBnb);
}

TEST(RepairServiceTest, SolverKnobsRejectedForUpdateMode) {
  ParsedFdSet parsed = OfficeFds();
  Table table = ScalingFamilyTable(parsed, 50, 67);
  RepairService service;

  RepairRequest with_backend = Request(RepairMode::kUpdate, parsed.fds, &table);
  with_backend.options.backend = kSolverIlp;
  EXPECT_EQ(service.Serve(with_backend).status().code(),
            StatusCode::kInvalidArgument);

  RepairRequest with_ratio = Request(RepairMode::kUpdate, parsed.fds, &table);
  with_ratio.options.max_ratio = 1.5;
  EXPECT_EQ(service.Serve(with_ratio).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(RepairServiceTest, InvalidateCacheForcesRecomputation) {
  ParsedFdSet parsed = OfficeFds();
  Table table = ScalingFamilyTable(parsed, 100, 59);
  RepairService service;
  RepairRequest request = Request(RepairMode::kSubset, parsed.fds, &table);
  ASSERT_TRUE(service.Serve(request).ok());
  service.InvalidateCache();
  EXPECT_EQ(service.stats().entries, 0u);
  auto again = service.Serve(request);
  ASSERT_TRUE(again.ok()) << again.status();
  EXPECT_FALSE(again->cache_hit);
}

}  // namespace
}  // namespace fdrepair
