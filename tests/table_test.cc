// Tests for the storage layer: ValuePool, Table, TableView, consistency
// checks, distances, CSV I/O, and table identity (value digests and the
// memoized TableContentHash).

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <limits>
#include <map>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "catalog/fd_parser.h"
#include "common/random.h"
#include "oracles/violations.h"
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

// The cell-memoized batch resolves every cell exactly as FreshValueNamed on
// its FreshCellName does, run side by side on a second pool with the same
// history: repeated cells within and across batches, extreme and negative
// ids, names user data already holds ("'"-disambiguated), user data that
// arrives after a cell was freshened, and the memo's growth.
TEST(ValuePoolTest, FreshCellValuesMatchFreshValueNamed) {
  ValuePool memo;
  ValuePool oracle;
  auto intern_both = [&](const std::string& text) {
    EXPECT_EQ(memo.Intern(text), oracle.Intern(text));
  };
  intern_both(FreshCellName(5, 1));
  intern_both(FreshCellName(5, 1) + "'");
  intern_both(FreshCellName(-3, 0));
  Rng rng(11);
  const int64_t extremes[] = {std::numeric_limits<int64_t>::min(),
                              std::numeric_limits<int64_t>::max() - 1, -3,
                              5, 0};
  for (int batch = 0; batch < 40; ++batch) {
    std::vector<FreshCell> cells;
    const int size = static_cast<int>(rng.UniformInt(0, 300));
    for (int i = 0; i < size; ++i) {
      const int64_t id = rng.UniformInt(0, 9) == 0
                             ? extremes[rng.UniformIndex(5)]
                             : rng.UniformInt(-2000, 2000);
      cells.push_back(
          FreshCell{id, static_cast<int32_t>(rng.UniformInt(0, 3))});
    }
    std::vector<ValueId> values(cells.size(), -1);
    memo.FreshCellValues(cells, values.data());
    for (size_t i = 0; i < cells.size(); ++i) {
      const ValueId expected =
          oracle.FreshValueNamed(FreshCellName(cells[i].id, cells[i].attr));
      ASSERT_EQ(values[i], expected) << batch << ":" << i;
      ASSERT_EQ(memo.Text(values[i]), oracle.Text(expected));
      ASSERT_TRUE(memo.IsFresh(values[i]));
    }
    // User data taking a cell's name: cells already freshened keep their
    // value, later ones skip the name.
    intern_both(FreshCellName(rng.UniformInt(-2000, 2000),
                              static_cast<int32_t>(rng.UniformInt(0, 3))));
  }
  EXPECT_EQ(memo.size(), oracle.size());
  const FreshCell taken{5, 1};
  ValueId value = -1;
  memo.FreshCellValues({&taken, 1}, &value);
  EXPECT_EQ(memo.Text(value), FreshCellName(5, 1) + "''");
  oracle.FreshValueNamed(FreshCellName(5, 1));

  // The served shape: about 100k cells in runs of sequential ids, one to
  // three attributes per id, so the memo grows several times within one
  // batch; then the same batch again, every cell now a memo hit.
  std::vector<FreshCell> runs;
  while (runs.size() < 100000) {
    const int64_t start = rng.UniformInt(-50000, 200000);
    const int length = static_cast<int>(rng.UniformInt(1, 2000));
    const int attrs = static_cast<int>(rng.UniformInt(1, 3));
    for (int64_t id = start; id < start + length; ++id) {
      for (int32_t attr = 0; attr < attrs; ++attr) {
        runs.push_back(FreshCell{id, attr});
      }
    }
  }
  for (int pass = 0; pass < 2; ++pass) {
    std::vector<ValueId> values(runs.size(), -1);
    memo.FreshCellValues(runs, values.data());
    for (size_t i = 0; i < runs.size(); ++i) {
      const ValueId expected =
          oracle.FreshValueNamed(FreshCellName(runs[i].id, runs[i].attr));
      ASSERT_EQ(values[i], expected) << pass << ":" << i;
      ASSERT_EQ(memo.Text(values[i]), oracle.Text(expected));
    }
    EXPECT_EQ(memo.size(), oracle.size()) << pass;
  }
}

TEST(ValuePoolTest, DigestDependsOnlyOnText) {
  ValuePool a;
  ValuePool b;
  b.Intern("padding");
  const ValueId in_a = a.Intern("Paris");
  const ValueId in_b = b.Intern("Paris");
  ASSERT_NE(in_a, in_b);
  EXPECT_EQ(a.read().digest(in_a), b.read().digest(in_b));
  EXPECT_EQ(a.read().digest(in_a), ValueDigest("Paris"));
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

  // A seeded random sequence of every mutator, on a table whose memo is
  // filled: each step must keep the memo filled and equal to a fresh
  // copy's hash.
  Rng rng(17);
  // Explicit ids count down from -1, clear of the auto ids (max id + 1).
  TupleId next_explicit_id = -1;
  for (int step = 0; step < 300; ++step) {
    SCOPED_TRACE("step " + std::to_string(step));
    auto text = [&] { return "v" + std::to_string(rng.UniformInt(0, 7)); };
    const int rows = table.num_tuples();
    const int row = rows > 0 ? static_cast<int>(rng.UniformIndex(rows)) : 0;
    const AttrId attr = static_cast<AttrId>(rng.UniformIndex(4));
    switch (rows < 2 ? rng.UniformIndex(4) : rng.UniformIndex(10)) {
      case 0:
        table.AddTuple({text(), text(), text(), text()});
        break;
      case 1:
        table.AddTuple({text(), text(), text(), text()},
                       0.5 * static_cast<double>(rng.UniformInt(1, 4)));
        break;
      case 2:
        ASSERT_TRUE(table
                        .AddTupleWithId(next_explicit_id--,
                                        {text(), text(), text(), text()}, 1)
                        .ok());
        break;
      case 3:
        ASSERT_TRUE(table
                        .AddInternedTupleWithId(
                            next_explicit_id--,
                            rows > 0 ? table.tuple(row)
                                     : Tuple{0, 0, 0, 0},
                            2)
                        .ok());
        break;
      case 4:
        table.SetValue(row, attr, table.Intern(text()));
        break;
      case 5:  // to the value the cell already holds
        table.SetValue(row, attr, table.value(row, attr));
        break;
      case 6:
        table.EraseRow(0);
        break;
      case 7:
        table.EraseRow(rows / 2);
        break;
      case 8:
        table.EraseRow(rows - 1);
        break;
      default:
        ASSERT_TRUE(table.EraseTuple(table.id(row)).ok());
    }
    ASSERT_TRUE(table.content_hash_memo().Get().has_value());
    ExpectHashIsFresh(table);
  }
}

TEST(TableHashTest, CloneCopyMoveAndSubsetHashCorrectly) {
  Table table = MakeOfficeT();
  const uint64_t hash = TableContentHash(table);  // memo filled

  // A clone starts with an empty memo, and SetValue does not fill it.
  Table clone = table.Clone();
  EXPECT_FALSE(clone.content_hash_memo().Get().has_value());
  clone.SetValue(0, 3, clone.Intern("Rome"));
  EXPECT_FALSE(clone.content_hash_memo().Get().has_value());
  EXPECT_NE(TableContentHash(clone), hash);
  ExpectHashIsFresh(clone);
  clone.SetValue(0, 3, clone.Intern("Paris"));  // back to the source
  EXPECT_EQ(TableContentHash(clone), hash);
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

/// `table` holds exactly `expected` (one row of value texts per row), read
/// both through value() and through Column(), whose views must span every
/// row.
void ExpectCells(const Table& table,
                 const std::vector<std::vector<std::string>>& expected) {
  ASSERT_EQ(table.num_tuples(), static_cast<int>(expected.size()));
  for (AttrId attr = 0; attr < table.schema().arity(); ++attr) {
    const ColumnView column = table.Column(attr);
    ASSERT_EQ(column.size(), table.num_tuples());
    for (int row = 0; row < table.num_tuples(); ++row) {
      EXPECT_EQ(table.pool()->Text(table.value(row, attr)),
                expected[row][attr])
          << "row " << row << " attr " << attr;
      EXPECT_EQ(column[row], table.value(row, attr))
          << "row " << row << " attr " << attr;
    }
  }
}

// Every mutator, including the failure paths, leaves exactly the expected
// cells in the columns.
TEST(TableTest, ColumnStoreStaysInSyncThroughEveryMutator) {
  Table table = MakeOfficeT();  // AddTupleWithId path
  std::vector<std::vector<std::string>> cells = {
      {"HQ", "322", "3", "Paris"},
      {"HQ", "322", "30", "Madrid"},
      {"HQ", "122", "1", "Madrid"},
      {"Lab1", "B35", "3", "London"}};
  ExpectCells(table, cells);

  // Failed appends (duplicate id, bad weight, arity mismatch, a value id
  // the pool never issued) leave the table untouched.
  EXPECT_FALSE(table.AddTupleWithId(1, {"a", "b", "c", "d"}, 1).ok());
  EXPECT_FALSE(table.AddTupleWithId(9, {"a", "b", "c", "d"}, -1).ok());
  EXPECT_FALSE(table.AddTupleWithId(9, {"a"}, 1).ok());
  EXPECT_FALSE(table.AddInternedTupleWithId(9, {0, 0, 0, -1}, 1).ok());
  ExpectCells(table, cells);

  // AddTuple (auto id) and AddInternedTupleWithId paths.
  table.AddTuple({"Lab2", "C1", "2", "Rome"}, 3.0);
  cells.push_back({"Lab2", "C1", "2", "Rome"});
  ASSERT_TRUE(table.AddInternedTupleWithId(20, table.tuple(1), 1).ok());
  cells.push_back(cells[1]);
  ExpectCells(table, cells);

  // SetValue (the urepair cell-edit replay path) and EraseRow.
  table.SetValue(2, 3, table.Intern("Lisbon"));
  cells[2][3] = "Lisbon";
  ExpectCells(table, cells);
  table.EraseRow(5);
  cells.pop_back();
  ExpectCells(table, cells);

  // SubsetByRows and Clone build their columns from scratch.
  Table subset = table.SubsetByRows({4, 0, 2});
  ExpectCells(subset, {cells[4], cells[0], cells[2]});
  Table clone = table.Clone();
  ExpectCells(clone, cells);
  clone.SetValue(0, 0, clone.Intern("Annex"));
  std::vector<std::vector<std::string>> clone_cells = cells;
  clone_cells[0][0] = "Annex";
  ExpectCells(clone, clone_cells);
  ExpectCells(table, cells);  // original untouched

  // CSV load (TableFromCsv goes through the append paths).
  std::string csv = TableToCsv(table);
  auto loaded = TableFromCsv(csv, table.schema().relation_name());
  ASSERT_TRUE(loaded.ok());
  ExpectCells(*loaded, cells);
}

// A ValueId the pool never issued is rejected before it reaches the
// columns: the next content hash would otherwise abort on the unknown id.
TEST(TableTest, AddInternedTupleRejectsValueIdsThePoolNeverIssued) {
  Table table = MakeOfficeT();
  const uint64_t hash = TableContentHash(table);
  const ValueId next = static_cast<ValueId>(table.pool()->size());
  for (ValueId bad : {ValueId{-1}, next, ValueId{next + 1000}}) {
    Status status = table.AddInternedTupleWithId(9, {0, 1, 2, bad}, 1);
    EXPECT_EQ(status.code(), StatusCode::kInvalidArgument) << bad;
    EXPECT_EQ(table.num_tuples(), 4) << bad;
    EXPECT_FALSE(table.RowOf(9).ok()) << bad;
  }
  EXPECT_EQ(TableContentHash(table), hash);
  ExpectHashIsFresh(table);
  ASSERT_TRUE(table.AddInternedTupleWithId(9, {0, 1, 2, next - 1}, 1).ok());
  EXPECT_EQ(table.value(4, 3), next - 1);
  ExpectHashIsFresh(table);
}

/// RowOf agrees with a linear scan of the ids for every row, and every id
/// in `absent` is NotFound.
void ExpectIndexConsistent(const Table& table,
                           const std::vector<TupleId>& absent = {}) {
  for (int row = 0; row < table.num_tuples(); ++row) {
    StatusOr<int> found = table.RowOf(table.id(row));
    ASSERT_TRUE(found.ok()) << table.id(row);
    EXPECT_EQ(*found, row) << table.id(row);
  }
  for (TupleId id : absent) {
    EXPECT_EQ(table.RowOf(id).status().code(), StatusCode::kNotFound) << id;
  }
}

constexpr TupleId kMinId = std::numeric_limits<TupleId>::min();
constexpr TupleId kMaxId = std::numeric_limits<TupleId>::max();

TEST(TableTest, IdIndexHandlesNegativeSparseAndExtremeIds) {
  Table table(Schema::Anonymous(1));
  const std::vector<TupleId> ids = {-5, 0, 1'000'000'000'000, kMinId,
                                    kMaxId - 1, -1, 3};
  for (TupleId id : ids) {
    ASSERT_TRUE(table.AddTupleWithId(id, {std::to_string(id)}, 1).ok()) << id;
  }
  ExpectIndexConsistent(table, {1, 2, -4, kMinId + 1, kMaxId, 999'999'999'999});
  for (size_t row = 0; row < ids.size(); ++row) {
    EXPECT_EQ(*table.RowOf(ids[row]), static_cast<int>(row));
  }
  // INT64_MAX is reserved: the table is unchanged.
  Status reserved = table.AddTupleWithId(kMaxId, {"max"}, 1);
  EXPECT_EQ(reserved.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(reserved.message(),
            "tuple identifier 9223372036854775807 is reserved");
  EXPECT_EQ(table.AddInternedTupleWithId(kMaxId, {0}, 1).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(table.num_tuples(), static_cast<int>(ids.size()));
  ExpectIndexConsistent(table, {kMaxId});
}

TEST(TableTest, EraseThenReAddKeepsTheIndexConsistent) {
  Table table = MakeOfficeT();
  ASSERT_TRUE(table.EraseTuple(2).ok());
  ExpectIndexConsistent(table, {2});
  EXPECT_EQ(*table.RowOf(3), 1);
  EXPECT_EQ(table.EraseTuple(2).code(), StatusCode::kNotFound);
  // An explicit re-add of the erased id appends it at the end.
  ASSERT_TRUE(table.AddTupleWithId(2, {"HQ", "322", "30", "Madrid"}, 1).ok());
  EXPECT_EQ(*table.RowOf(2), 3);
  // Auto ids are not recycled: they continue past the largest id seen.
  EXPECT_EQ(table.AddTuple({"Lab2", "C1", "2", "Rome"}), 5);
  table.EraseRow(0);
  table.EraseRow(table.num_tuples() - 1);
  ExpectIndexConsistent(table, {1, 5});
  EXPECT_EQ(table.AddTuple({"Lab2", "C1", "2", "Rome"}), 6);
  ExpectIndexConsistent(table, {1, 5});
  // Erasing every row leaves an empty, still usable index.
  while (!table.empty()) table.EraseRow(0);
  ExpectIndexConsistent(table, {2, 3, 4, 6});
  ASSERT_TRUE(table.AddTupleWithId(4, {"a", "b", "c", "d"}, 1).ok());
  ExpectIndexConsistent(table, {2, 3, 6});
}

TEST(TableTest, DuplicateIdIsRejectedAndLeavesTheTableUnchanged) {
  Table table = MakeOfficeT();
  const uint64_t hash = TableContentHash(table);
  const Table before = table.Clone();
  for (TupleId id : {1, 2, 3, 4}) {
    Status status = table.AddTupleWithId(id, {"x", "y", "z", "w"}, 1);
    EXPECT_EQ(status.code(), StatusCode::kInvalidArgument) << id;
    EXPECT_EQ(status.message(), "duplicate tuple identifier " +
                                    std::to_string(id));
    EXPECT_EQ(table.AddInternedTupleWithId(id, table.tuple(0), 1).code(),
              StatusCode::kInvalidArgument)
        << id;
  }
  EXPECT_EQ(table.num_tuples(), before.num_tuples());
  for (int row = 0; row < table.num_tuples(); ++row) {
    EXPECT_EQ(table.id(row), before.id(row));
    EXPECT_EQ(table.tuple(row), before.tuple(row));
  }
  ExpectIndexConsistent(table, {0, 5});
  EXPECT_EQ(TableContentHash(table), hash);
}

TEST(TableTest, CloneIndexIsIndependentOfTheOriginal) {
  Table table = MakeOfficeT();
  Table clone = table.Clone();
  ASSERT_TRUE(clone.EraseTuple(1).ok());
  ASSERT_TRUE(clone.AddTupleWithId(-7, {"a", "b", "c", "d"}, 1).ok());
  ASSERT_TRUE(table.AddTupleWithId(9, {"e", "f", "g", "h"}, 1).ok());
  ExpectIndexConsistent(table, {-7});
  ExpectIndexConsistent(clone, {1, 9});
  EXPECT_EQ(*table.RowOf(1), 0);
  EXPECT_EQ(*clone.RowOf(2), 0);
  EXPECT_EQ(*clone.RowOf(-7), 3);
  EXPECT_EQ(*table.RowOf(9), 4);
}

TEST(TableTest, SubsetByRowsAndClonePreserveRowOf) {
  Table table(Schema::Anonymous(2));
  for (TupleId id = -300; id < 300; id += 3) {
    ASSERT_TRUE(table.AddTupleWithId(id * 1'000'003, {"a", "b"}, 1).ok());
  }
  ExpectIndexConsistent(table.Clone(), {1, -1});
  std::vector<int> rows;
  for (int row = table.num_tuples() - 1; row >= 0; row -= 2) {
    rows.push_back(row);
  }
  Table subset = table.SubsetByRows(rows);
  ASSERT_EQ(subset.num_tuples(), static_cast<int>(rows.size()));
  for (size_t i = 0; i < rows.size(); ++i) {
    EXPECT_EQ(*subset.RowOf(table.id(rows[i])), static_cast<int>(i));
  }
  // Rows left out of the subset are absent from its index.
  for (int row = table.num_tuples() - 2; row >= 0; row -= 2) {
    EXPECT_FALSE(subset.RowOf(table.id(row)).ok()) << row;
  }
  ExpectIndexConsistent(subset.Clone());
  ExpectIndexConsistent(table.SubsetByRows({}), {table.id(0)});
  // The subset's index is its own: appends continue past its largest id.
  TupleId next = subset.AddTuple({"c", "d"});
  EXPECT_EQ(next, table.id(rows.front()) + 1);
  ExpectIndexConsistent(subset);
}

// A seeded differential of append / erase / RowOf against a std::map
// oracle, over ids clustered enough to collide and spread enough to hit
// negative and large values.
TEST(TableTest, IdIndexMatchesAMapOracleUnderRandomOperations) {
  Rng rng(20261017);
  Table table(Schema::Anonymous(1));
  std::map<TupleId, int> oracle;  // id -> row
  std::vector<TupleId> order;     // ids in row order
  auto random_id = [&rng]() -> TupleId {
    switch (rng.UniformUint64(3)) {
      case 0:
        return rng.UniformInt(-64, 64);
      case 1:
        return rng.UniformInt(-(int64_t{1} << 40), int64_t{1} << 40);
      default:
        return rng.UniformInt(kMinId, kMaxId - 1);
    }
  };
  for (int op = 0; op < 10'000; ++op) {
    const uint64_t kind = rng.UniformUint64(10);
    if (kind < 5) {
      const TupleId id = random_id();
      Status status = table.AddTupleWithId(id, {"v"}, 1);
      EXPECT_EQ(status.ok(), oracle.count(id) == 0) << "op " << op;
      if (status.ok()) {
        oracle[id] = static_cast<int>(order.size());
        order.push_back(id);
      }
    } else if (kind < 7 && !order.empty()) {
      const int row = static_cast<int>(rng.UniformIndex(order.size()));
      table.EraseRow(row);
      oracle.erase(order[row]);
      order.erase(order.begin() + row);
      for (int r = row; r < static_cast<int>(order.size()); ++r) {
        oracle[order[r]] = r;
      }
    } else {
      // Look up a live id half the time, a random one otherwise.
      const TupleId id = !order.empty() && rng.Bernoulli(0.5)
                             ? order[rng.UniformIndex(order.size())]
                             : random_id();
      StatusOr<int> row = table.RowOf(id);
      auto it = oracle.find(id);
      ASSERT_EQ(row.ok(), it != oracle.end()) << "op " << op << " id " << id;
      if (row.ok()) {
        EXPECT_EQ(*row, it->second) << "op " << op;
      }
    }
    ASSERT_EQ(table.num_tuples(), static_cast<int>(order.size()));
  }
  ExpectIndexConsistent(table);
  for (int row = 0; row < table.num_tuples(); ++row) {
    EXPECT_EQ(table.id(row), order[row]);
  }
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

/// A seeded table over R(A, B, C, D, E) whose E is a function of the
/// first `width` attributes, except at up to two corrupted rows. Key cells
/// take one of `domain` values, but with probability `fresh` a cell gets a
/// value of its own instead: the many-distinct-keys shape of an update's
/// fresh ⊥ cells.
Table SeededConsistencyTable(const Schema& schema, int width, int n,
                             uint64_t domain, double fresh, Rng* rng) {
  const int corrupted = static_cast<int>(rng->UniformUint64(3));
  Table table(schema);
  for (int row = 0; row < n; ++row) {
    std::vector<std::string> values;
    uint64_t key = 0;
    for (int attr = 0; attr < 4; ++attr) {
      uint64_t v = rng->UniformUint64(domain);
      if (fresh > 0 && rng->Bernoulli(fresh)) v = domain + 4 * row + attr;
      if (attr < width) key = key * 31 + v;
      values.push_back("v" + std::to_string(v));
    }
    values.push_back("r" + std::to_string(key % 5));
    table.AddTuple(values);
  }
  for (int c = 0; c < corrupted; ++c) {
    const int row = static_cast<int>(rng->UniformUint64(n));
    table.SetValue(row, 4, table.Intern("x" + std::to_string(c)));
  }
  return table;
}

/// The whole table and a random reversed sub-view of it.
std::vector<TableView> WholeAndReversedViews(const Table& table, Rng* rng) {
  const int n = table.num_tuples();
  const int begin = static_cast<int>(rng->UniformUint64(n));
  const int end = begin + 1 + static_cast<int>(rng->UniformUint64(n - begin));
  std::vector<int> reversed;
  for (int row = end - 1; row >= begin; --row) reversed.push_back(row);
  return {TableView(table), TableView(table, std::move(reversed))};
}

const char* const kConsistencyFds[] = {"{} -> E", "A -> E", "A B -> E",
                                       "A B C -> E", "A B C D -> E"};

// Satisfies against the violation-enumeration oracle, on seeded tables
// whose rhs is a function of the lhs except at a few corrupted rows. Each
// trial checks the whole table and a reversed sub-view, over 0- to
// 4-attribute lhs. The first 48 trials take 1 to 1,500 rows from small
// domains, so single-attribute lhs sweeps run on small and large views
// alike. Then come tables whose key cells are mostly values of their own
// (the fresh-⊥ shape of an update) and tables of at most 12 rows, whose
// keys share home slots of the grouping table's smallest size. Both
// outcomes must come up.
TEST(ConsistencyTest, SatisfiesMatchesFindViolations) {
  Schema schema = Schema::MakeOrDie("R", {"A", "B", "C", "D", "E"});
  Rng rng(1931);
  int satisfied = 0, violated = 0;
  for (int trial = 0; trial < 96; ++trial) {
    const int shape = trial < 48 ? 0 : 1 + trial % 2;
    const int width = shape == 0 ? trial % 4 : trial % 5;
    FdSet fds = ParseFdSetOrDie(schema, kConsistencyFds[width]);
    const int n =
        1 + static_cast<int>(rng.UniformUint64(shape == 2 ? 12 : 1500));
    const uint64_t domain = 2 + rng.UniformUint64(6);
    Table table = SeededConsistencyTable(schema, width, n, domain,
                                         shape == 1 ? 0.9 : 0.0, &rng);
    for (const TableView& view : WholeAndReversedViews(table, &rng)) {
      const bool expected = FindViolations(view, fds).empty();
      EXPECT_EQ(Satisfies(view, fds), expected)
          << "trial " << trial << " fds " << kConsistencyFds[width]
          << " rows " << view.num_tuples();
      ++(expected ? satisfied : violated);
    }
  }
  EXPECT_GT(satisfied, 0);
  EXPECT_GT(violated, 0);
}

// LhsGroups against TableView::GroupRows: the same groups in the same
// first-appearance order, members in view order, with every row kept and
// with a seeded keep filter (the grouping of the kept rows alone). Each
// group's ViolatingPairs must equal an all-pairs count of its members
// that differ on the rhs.
TEST(LhsGroupsTest, BuildMatchesGroupRowsAndPairsMatchBruteForce) {
  Schema schema = Schema::MakeOrDie("R", {"A", "B", "C", "D", "E"});
  Rng rng(2027);
  LhsGroups groups;
  int64_t violating = 0;
  for (int trial = 0; trial < 40; ++trial) {
    const int width = trial % 5;
    const AttrSet lhs = AttrSet::FromBits((uint64_t{1} << width) - 1);
    const int n =
        1 + static_cast<int>(rng.UniformUint64(trial % 2 == 0 ? 12 : 800));
    const uint64_t domain = 2 + rng.UniformUint64(6);
    Table table = SeededConsistencyTable(schema, width, n, domain,
                                         trial % 3 == 0 ? 0.9 : 0.0, &rng);
    for (const TableView& view : WholeAndReversedViews(table, &rng)) {
      for (bool filtered : {false, true}) {
        std::vector<char> keep(view.num_tuples(), 1);
        std::vector<int> kept_rows;
        for (int i = 0; i < view.num_tuples(); ++i) {
          if (filtered) keep[i] = rng.Bernoulli(0.6);
          if (keep[i]) kept_rows.push_back(view.row(i));
        }
        groups.Build(view, lhs, [&](int i) { return keep[i] != 0; });
        GroupedRows expected = TableView(table, kept_rows).GroupRows(lhs);
        ASSERT_EQ(groups.size(), static_cast<int>(expected.rows.size()))
            << "trial " << trial;
        for (int g = 0; g < groups.size(); ++g) {
          std::vector<int> members;
          for (const int* m = groups.begin(g); m != groups.end(g); ++m) {
            members.push_back(view.row(*m));
          }
          ASSERT_EQ(members, expected.rows[g])
              << "trial " << trial << " group " << g;
          int64_t pairs = 0;
          for (const int* a = groups.begin(g); a != groups.end(g); ++a) {
            for (const int* b = a + 1; b != groups.end(g); ++b) {
              pairs += view.value(*a, 4) != view.value(*b, 4);
            }
          }
          EXPECT_EQ(groups.ViolatingPairs(view, g, 4), pairs)
              << "trial " << trial << " group " << g;
          violating += pairs;
        }
      }
    }
  }
  EXPECT_GT(violating, 0);
}

TEST(LhsGroupsTest, EmptyLhsMakesOneGroup) {
  Table table = MakeOfficeT();
  TableView view(table);
  const AttrId city = *table.schema().AttributeId("city");
  LhsGroups groups;
  groups.Build(view, AttrSet());
  ASSERT_EQ(groups.size(), 1);
  EXPECT_EQ(std::vector<int>(groups.begin(0), groups.end(0)),
            (std::vector<int>{0, 1, 2, 3}));
  // Paris, Madrid, Madrid, London: C(4, 2) pairs less the Madrid pair.
  EXPECT_EQ(groups.ViolatingPairs(view, 0, city), 5);
  groups.Build(view, AttrSet(), [](int i) { return i >= 2; });
  ASSERT_EQ(groups.size(), 1);
  EXPECT_EQ(std::vector<int>(groups.begin(0), groups.end(0)),
            (std::vector<int>{2, 3}));
  groups.Build(view, AttrSet(), [](int) { return false; });
  EXPECT_EQ(groups.size(), 0);
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
  EXPECT_EQ(RowHammingDistance(table, 0, table, 1), 2);
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
  // Ids outside int64 are rejected, not clamped to its range.
  for (const char* id : {"99999999999999999999", "-99999999999999999999"}) {
    StatusOr<Table> parsed =
        TableFromCsv(std::string("id,A\n1,a\n") + id + ",b\n");
    ASSERT_FALSE(parsed.ok()) << id;
    EXPECT_EQ(parsed.status().message(), "bad id on CSV line 3") << id;
  }
}

// INT64_MAX is reserved so the next auto id (max id + 1) cannot overflow.
TEST(TableIoTest, ReservedMaxIdIsRejected) {
  StatusOr<Table> parsed = TableFromCsv("id,A,B\n9223372036854775807,a,b\n");
  ASSERT_FALSE(parsed.ok());
  EXPECT_EQ(parsed.status().code(), StatusCode::kInvalidArgument);
  // The largest usable id still loads.
  parsed = TableFromCsv("id,A,B\n9223372036854775806,a,b\n");
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  EXPECT_EQ(parsed->id(0), kMaxId - 1);
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
