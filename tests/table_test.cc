// Tests for the storage layer: ValuePool, Table, TableView, consistency
// checks, distances, CSV I/O, and table identity (value digests and the
// memoized TableContentHash).

#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <utility>
#include <vector>

#include "catalog/fd_parser.h"
#include "storage/consistency.h"
#include "storage/distance.h"
#include "storage/table.h"
#include "storage/table_hash.h"
#include "storage/table_io.h"
#include "storage/table_view.h"

namespace fdrepair {
namespace {

Table MakeOfficeT() {
  Schema schema =
      Schema::MakeOrDie("Office", {"facility", "room", "floor", "city"});
  Table table(schema);
  EXPECT_TRUE(table.AddTupleWithId(1, {"HQ", "322", "3", "Paris"}, 2).ok());
  EXPECT_TRUE(table.AddTupleWithId(2, {"HQ", "322", "30", "Madrid"}, 1).ok());
  EXPECT_TRUE(table.AddTupleWithId(3, {"HQ", "122", "1", "Madrid"}, 1).ok());
  EXPECT_TRUE(table.AddTupleWithId(4, {"Lab1", "B35", "3", "London"}, 2).ok());
  return table;
}

FdSet OfficeDelta(const Schema& schema) {
  return ParseFdSetOrDie(schema, "facility -> city; facility room -> floor");
}

/// A deep copy with its own Schema and ValuePool, built through the
/// append path: its hash is computed from scratch, never memoized.
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

/// The memo (if filled) must agree with a from-scratch hash of the content.
void ExpectHashIsFresh(const Table& table) {
  EXPECT_EQ(TableContentHash(table), TableContentHash(CopyContent(table)));
}

TEST(ValuePoolTest, InternIsIdempotent) {
  ValuePool pool;
  ValueId a = pool.Intern("Paris");
  EXPECT_EQ(pool.Intern("Paris"), a);
  EXPECT_NE(pool.Intern("Madrid"), a);
  EXPECT_EQ(pool.Text(a), "Paris");
  EXPECT_TRUE(pool.Lookup("Paris").ok());
  EXPECT_FALSE(pool.Lookup("Rome").ok());
}

TEST(ValuePoolTest, FreshValuesAreDistinct) {
  ValuePool pool;
  pool.Intern("⊥0");  // adversarial: user data colliding with fresh names
  ValueId f1 = pool.FreshValue();
  ValueId f2 = pool.FreshValue();
  EXPECT_NE(f1, f2);
  EXPECT_TRUE(pool.IsFresh(f1));
  EXPECT_FALSE(pool.IsFresh(pool.Intern("Paris")));
  EXPECT_NE(pool.Text(f1), "⊥0");  // skipped the collision
}

TEST(ValuePoolTest, DigestDependsOnlyOnText) {
  ValuePool a;
  ValuePool b;
  b.Intern("padding");
  const ValueId in_a = a.Intern("Paris");
  const ValueId in_b = b.Intern("Paris");
  ASSERT_NE(in_a, in_b);
  EXPECT_EQ(a.digests()[in_a], b.digests()[in_b]);
  EXPECT_EQ(a.digests()[in_a], ValueDigest("Paris"));
  EXPECT_NE(ValueDigest("Paris"), ValueDigest("Madrid"));
  // Length-seeded: zero padding of the last word is unambiguous.
  EXPECT_NE(ValueDigest(""), ValueDigest(std::string(1, '\0')));
  EXPECT_NE(ValueDigest("abcdefgh"),
            ValueDigest("abcdefgh" + std::string(1, '\0')));
  // Pinned values: the digest is specified byte for byte (little-endian
  // words, murmur3 finalizer), so it is the same on every host.
  EXPECT_EQ(ValueDigest(""), 0x9ca066f1a4ab2eeaULL);
  EXPECT_EQ(ValueDigest("Paris"), 0xc73e633368fea138ULL);
  EXPECT_EQ(ValueDigest("facility room"), 0xb133d066e90d20f0ULL);
}

TEST(TableHashTest, MemoMatchesAFreshCopyAfterEveryMutator) {
  Table table = MakeOfficeT();  // AddTupleWithId
  uint64_t previous = TableContentHash(table);
  ExpectHashIsFresh(table);
  auto expect_changed = [&](const char* mutator) {
    const uint64_t now = TableContentHash(table);
    EXPECT_NE(now, previous) << mutator;
    ExpectHashIsFresh(table);
    previous = now;
  };

  table.AddTuple({"Lab2", "C1", "2", "Rome"});
  expect_changed("AddTuple");
  table.AddTuple({"Lab2", "C2", "2", "Rome"}, 3.0);
  expect_changed("AddTuple(weight)");
  ASSERT_TRUE(table.AddTupleWithId(40, {"Lab3", "D1", "1", "Oslo"}, 1).ok());
  expect_changed("AddTupleWithId");
  Tuple interned = table.tuple(0);
  ASSERT_TRUE(table.AddInternedTupleWithId(41, interned, 0.5).ok());
  expect_changed("AddInternedTupleWithId");
  table.SetValue(1, 2, table.Intern("31"));
  expect_changed("SetValue");
  table.EraseRow(0);
  expect_changed("EraseRow");
  ASSERT_TRUE(table.EraseTuple(40).ok());
  expect_changed("EraseTuple");

  // Failed mutators change nothing, including the hash.
  EXPECT_FALSE(table.AddTupleWithId(41, {"a", "b", "c", "d"}, 1).ok());
  EXPECT_FALSE(table.EraseTuple(999).ok());
  EXPECT_EQ(TableContentHash(table), previous);
  ExpectHashIsFresh(table);
}

TEST(TableHashTest, CloneCopyMoveAndSubsetHashCorrectly) {
  Table table = MakeOfficeT();
  const uint64_t hash = TableContentHash(table);  // memo filled

  Table clone = table.Clone();
  EXPECT_EQ(TableContentHash(clone), hash);
  clone.SetValue(0, 3, clone.Intern("Rome"));
  EXPECT_NE(TableContentHash(clone), hash);
  ExpectHashIsFresh(clone);
  EXPECT_EQ(TableContentHash(table), hash);  // the source keeps its memo

  Table copy(table);
  EXPECT_EQ(TableContentHash(copy), hash);
  copy = clone;
  EXPECT_EQ(TableContentHash(copy), TableContentHash(clone));
  Table moved(std::move(copy));
  EXPECT_EQ(TableContentHash(moved), TableContentHash(clone));
  Table assigned = MakeOfficeT();
  assigned = std::move(moved);
  EXPECT_EQ(TableContentHash(assigned), TableContentHash(clone));

  std::vector<Table> tables;
  for (int i = 0; i < 8; ++i) tables.push_back(table);  // reallocations move
  for (const Table& t : tables) EXPECT_EQ(TableContentHash(t), hash);

  Table subset = table.SubsetByRows({3, 1});
  EXPECT_NE(TableContentHash(subset), hash);
  ExpectHashIsFresh(subset);
  EXPECT_EQ(TableContentHash(table.SubsetByRows({0, 1, 2, 3})), hash);
}

TEST(TableHashTest, PoolsInterningInDifferentOrdersAgree) {
  const Schema schema = Schema::MakeOrDie("T", {"a", "b"});
  Table forward(schema);
  Table backward(schema);
  // The second pool sees every text first, in reverse, plus others: its
  // ids differ from the first pool's for every cell.
  for (const char* text : {"zeta", "y", "x", "w", "unused"}) {
    backward.Intern(text);
  }
  for (Table* t : {&forward, &backward}) {
    t->AddTuple({"w", "x"}, 1.0);
    t->AddTuple({"y", "zeta"}, 2.0);
  }
  EXPECT_NE(forward.value(0, 0), backward.value(0, 0));
  EXPECT_EQ(TableContentHash(forward), TableContentHash(backward));
}

TEST(TableHashTest, ConcurrentFirstHashAgreesInEveryThread) {
  Table table(Schema::MakeOrDie("T", {"a", "b", "c"}));
  for (int row = 0; row < 4096; ++row) {
    const std::string a = "a" + std::to_string(row % 97);
    const std::string b = "b" + std::to_string(row);
    const std::string c = "c" + std::to_string(row % 5);
    table.AddTuple({a, b, c}, 1.0 + row % 3);
  }
  const uint64_t expected = TableContentHash(CopyContent(table));

  constexpr int kThreads = 8;
  std::vector<uint64_t> seen(kThreads, 0);
  std::atomic<int> ready{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      // Start together, so several threads find the memo empty.
      ready.fetch_add(1);
      while (ready.load() < kThreads) std::this_thread::yield();
      seen[t] = TableContentHash(table);
    });
  }
  for (std::thread& thread : threads) thread.join();
  for (int t = 0; t < kThreads; ++t) EXPECT_EQ(seen[t], expected) << t;
  EXPECT_EQ(TableContentHash(table), expected);
}

TEST(TableTest, BasicAccessors) {
  Table table = MakeOfficeT();
  EXPECT_EQ(table.num_tuples(), 4);
  EXPECT_EQ(table.id(0), 1);
  EXPECT_EQ(table.weight(0), 2);
  EXPECT_EQ(table.ValueText(1, 3), "Madrid");
  EXPECT_EQ(*table.RowOf(4), 3);
  EXPECT_FALSE(table.RowOf(99).ok());
  EXPECT_DOUBLE_EQ(table.TotalWeight(), 6);
  EXPECT_FALSE(table.IsUnweighted());
  EXPECT_TRUE(table.IsDuplicateFree());
}

TEST(TableTest, DuplicatesAndWeights) {
  Table table(Schema::Anonymous(2));
  table.AddTuple({"x", "y"});
  table.AddTuple({"x", "y"});
  EXPECT_FALSE(table.IsDuplicateFree());
  EXPECT_TRUE(table.IsUnweighted());
  EXPECT_FALSE(table.AddTupleWithId(1, {"a", "b"}, 1).ok());  // id taken
  EXPECT_FALSE(table.AddTupleWithId(9, {"a", "b"}, 0).ok());  // zero weight
  EXPECT_FALSE(table.AddTupleWithId(9, {"a"}, 1).ok());       // arity
}

TEST(TableTest, SubsetPreservesIdsAndWeights) {
  Table table = MakeOfficeT();
  Table subset = table.SubsetByRows({1, 3});
  EXPECT_EQ(subset.num_tuples(), 2);
  EXPECT_EQ(subset.id(0), 2);
  EXPECT_EQ(subset.weight(1), 2);
  EXPECT_EQ(subset.pool(), table.pool());
}

TEST(TableTest, CloneAndSetValue) {
  Table table = MakeOfficeT();
  Table clone = table.Clone();
  clone.SetValue(0, 3, clone.Intern("Rome"));
  EXPECT_EQ(clone.ValueText(0, 3), "Rome");
  EXPECT_EQ(table.ValueText(0, 3), "Paris");  // original untouched
}

// The column-store invariant: Column(a)[r] == value(r, a) after EVERY
// mutator, including the failure paths. This is the audit for the hybrid
// layout — a stale column view (columns disagreeing with rows) must be
// impossible no matter which mutation path ran.
TEST(TableTest, ColumnStoreStaysInSyncThroughEveryMutator) {
  Table table = MakeOfficeT();  // AddTupleWithId path
  EXPECT_TRUE(table.ColumnStoreConsistent());
  ASSERT_EQ(table.Column(3).size(), 4);
  EXPECT_EQ(table.Column(3)[1], table.value(1, 3));

  // Failed appends (duplicate id, bad weight, arity mismatch) must leave
  // both representations untouched.
  EXPECT_FALSE(table.AddTupleWithId(1, {"a", "b", "c", "d"}, 1).ok());
  EXPECT_FALSE(table.AddTupleWithId(9, {"a", "b", "c", "d"}, -1).ok());
  EXPECT_FALSE(table.AddTupleWithId(9, {"a"}, 1).ok());
  EXPECT_EQ(table.num_tuples(), 4);
  EXPECT_EQ(table.Column(0).size(), 4);
  EXPECT_TRUE(table.ColumnStoreConsistent());

  // AddTuple (auto id) path.
  table.AddTuple({"Lab2", "C1", "2", "Rome"}, 3.0);
  EXPECT_TRUE(table.ColumnStoreConsistent());
  EXPECT_EQ(table.Column(0).size(), 5);

  // SetValue (the urepair cell-edit replay path).
  table.SetValue(2, 3, table.Intern("Lisbon"));
  EXPECT_EQ(table.Column(3)[2], *table.pool()->Lookup("Lisbon"));
  EXPECT_TRUE(table.ColumnStoreConsistent());

  // SubsetByRows and Clone build their mirrors from scratch.
  Table subset = table.SubsetByRows({4, 0, 2});
  EXPECT_TRUE(subset.ColumnStoreConsistent());
  EXPECT_EQ(subset.Column(3)[0], table.Column(3)[4]);
  EXPECT_EQ(subset.Column(3)[2], table.Column(3)[2]);
  Table clone = table.Clone();
  EXPECT_TRUE(clone.ColumnStoreConsistent());
  clone.SetValue(0, 0, clone.Intern("Annex"));
  EXPECT_TRUE(clone.ColumnStoreConsistent());
  EXPECT_TRUE(table.ColumnStoreConsistent());  // original untouched
  EXPECT_NE(clone.Column(0)[0], table.Column(0)[0]);

  // CSV load (TableFromCsv goes through the append paths).
  std::string csv = TableToCsv(table);
  auto loaded = TableFromCsv(csv, table.schema().relation_name());
  ASSERT_TRUE(loaded.ok());
  EXPECT_TRUE(loaded->ColumnStoreConsistent());
  EXPECT_EQ(loaded->num_tuples(), table.num_tuples());
}

TEST(TableViewTest, GroupByPartitions) {
  Table table = MakeOfficeT();
  TableView view(table);
  auto facility = *table.schema().AttributeId("facility");
  std::vector<TableView> groups = view.GroupBy(AttrSet::Of({facility}));
  ASSERT_EQ(groups.size(), 2u);  // HQ and Lab1
  EXPECT_EQ(groups[0].num_tuples() + groups[1].num_tuples(), 4);
  EXPECT_DOUBLE_EQ(view.TotalWeight(), 6);
}

TEST(TableViewTest, GroupByAllAttrsSeparatesDistinctRows) {
  Table table = MakeOfficeT();
  TableView view(table);
  EXPECT_EQ(view.GroupBy(table.schema().AllAttrs()).size(), 4u);
  EXPECT_EQ(view.GroupBy(AttrSet()).size(), 1u);  // one trivial group
}

TEST(ConsistencyTest, OfficeViolations) {
  Table table = MakeOfficeT();
  FdSet fds = OfficeDelta(table.schema());
  EXPECT_FALSE(Satisfies(table, fds));
  // Tuple 1 conflicts with both 2 (city and floor) and 3 (city).
  std::vector<Violation> violations = FindViolations(TableView(table), fds);
  EXPECT_GE(violations.size(), 3u);
  Table consistent = table.SubsetByRows({1, 2, 3});  // S1 of Figure 1
  EXPECT_TRUE(Satisfies(consistent, fds));
}

TEST(ConsistencyTest, PairConsistent) {
  Table table = MakeOfficeT();
  FdSet fds = OfficeDelta(table.schema());
  EXPECT_FALSE(PairConsistent(table.tuple(0), table.tuple(1), fds));
  EXPECT_TRUE(PairConsistent(table.tuple(1), table.tuple(2), fds));
  EXPECT_TRUE(PairConsistent(table.tuple(0), table.tuple(3), fds));
}

TEST(DistanceTest, DistSubMatchesExample23) {
  Table table = MakeOfficeT();
  EXPECT_DOUBLE_EQ(DistSubOrDie(table.SubsetByRows({1, 2, 3}), table), 2);
  EXPECT_DOUBLE_EQ(DistSubOrDie(table.SubsetByRows({0, 3}), table), 2);
  EXPECT_DOUBLE_EQ(DistSubOrDie(table.SubsetByRows({2, 3}), table), 3);
  EXPECT_DOUBLE_EQ(DistSubOrDie(table.Clone(), table), 0);
}

TEST(DistanceTest, DistSubRejectsNonSubsets) {
  Table table = MakeOfficeT();
  Table tampered = table.SubsetByRows({0});
  tampered.SetValue(0, 0, tampered.Intern("X"));
  EXPECT_FALSE(DistSub(tampered, table).ok());
}

TEST(DistanceTest, DistUpdWeightedHamming) {
  Table table = MakeOfficeT();
  Table update = table.Clone();
  // Change two cells of tuple 1 (weight 2): dist = 4 (like U3).
  update.SetValue(0, 2, update.Intern("30"));
  update.SetValue(0, 3, update.Intern("Madrid"));
  EXPECT_DOUBLE_EQ(DistUpdOrDie(update, table), 4);
  EXPECT_DOUBLE_EQ(DistUpdOrDie(table.Clone(), table), 0);
  EXPECT_EQ(HammingDistance(table.tuple(0), table.tuple(1)), 2);
}

TEST(DistanceTest, DistUpdRejectsDroppedTuples) {
  Table table = MakeOfficeT();
  EXPECT_FALSE(DistUpd(table.SubsetByRows({0, 1}), table).ok());
}

TEST(TableIoTest, CsvRoundTrip) {
  Table table = MakeOfficeT();
  std::string csv = TableToCsv(table);
  auto parsed = TableFromCsv(csv, "Office");
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed->num_tuples(), 4);
  EXPECT_EQ(parsed->schema().arity(), 4);
  EXPECT_EQ(parsed->ValueText(0, 3), "Paris");
  EXPECT_DOUBLE_EQ(parsed->weight(0), 2);
  EXPECT_EQ(parsed->id(3), 4);
}

TEST(TableIoTest, CsvWithoutReservedColumns) {
  auto parsed = TableFromCsv("A,B\nx,y\nz,w\n");
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed->num_tuples(), 2);
  EXPECT_DOUBLE_EQ(parsed->weight(0), 1);
  EXPECT_EQ(parsed->id(0), 1);
}

TEST(TableIoTest, CsvErrors) {
  EXPECT_FALSE(TableFromCsv("").ok());
  EXPECT_FALSE(TableFromCsv("A,B\nonly-one-field\n").ok());
  EXPECT_FALSE(TableFromCsv("A,w\nx,notanumber\n").ok());
  EXPECT_FALSE(TableFromCsv("A,id\nx,notanumber\n").ok());
}

TEST(TableTest, ToStringContainsHeaderAndValues) {
  Table table = MakeOfficeT();
  std::string rendered = table.ToString();
  EXPECT_NE(rendered.find("facility"), std::string::npos);
  EXPECT_NE(rendered.find("Paris"), std::string::npos);
  EXPECT_NE(rendered.find("Lab1"), std::string::npos);
}

}  // namespace
}  // namespace fdrepair
