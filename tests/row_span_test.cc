// RowSpan + GroupScratch: the in-place grouping core must agree exactly —
// group order, within-group row order, marriage endpoints — with the
// materializing TableView/BlockPartition APIs it replaced on the
// OptSRepair hot path.

#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <vector>

#include "common/random.h"
#include "engine/block_partitioner.h"
#include "oracles/block_partition.h"
#include "storage/row_span.h"
#include "storage/table_view.h"
#include "workloads/example_fdsets.h"
#include "workloads/generators.h"

namespace fdrepair {
namespace {

std::vector<int> AllRows(const Table& table) {
  std::vector<int> rows(table.num_tuples());
  std::iota(rows.begin(), rows.end(), 0);
  return rows;
}

/// Flattens an in-place grouping back into per-group row vectors.
std::vector<std::vector<int>> GroupsOf(const std::vector<int>& buffer,
                                       const std::vector<int>& group_ends) {
  std::vector<std::vector<int>> out;
  int begin = 0;
  for (int end : group_ends) {
    out.emplace_back(buffer.begin() + begin, buffer.begin() + end);
    begin = end;
  }
  return out;
}

TEST(RowSpanTest, SubspanAndAccessorsReadThroughTable) {
  ParsedFdSet parsed = OfficeFds();
  Table table = ScalingFamilyTable(parsed, 50, 3);
  std::vector<int> buffer = AllRows(table);
  RowSpan span(table, buffer.data(), static_cast<int>(buffer.size()));
  EXPECT_EQ(span.num_tuples(), 50);
  EXPECT_EQ(span.row(7), 7);
  EXPECT_EQ(span.id(7), table.id(7));
  EXPECT_EQ(span.weight(7), table.weight(7));
  EXPECT_EQ(span.value(7, 0), table.value(7, 0));
  RowSpan sub = span.Subspan(10, 5);
  EXPECT_EQ(sub.num_tuples(), 5);
  EXPECT_EQ(sub.row(0), 10);
  EXPECT_TRUE(span.Subspan(50, 0).empty());
}

// The permutation contract, against TableView::GroupRows as the oracle:
// same groups, same first-appearance group order, same within-group row
// order — for 1, 2 and 3+ grouping attributes (each exercises a different
// key fast path in GroupScratch).
TEST(GroupScratchTest, MatchesGroupRowsOnEveryKeyWidth) {
  ParsedFdSet parsed = Example31Ssn();  // 7 attributes
  Table table = ScalingFamilyTable(parsed, 700, 13, 4);
  GroupScratch scratch;
  for (AttrSet attrs :
       {AttrSet::Singleton(0), AttrSet::Of({1, 2}), AttrSet::Of({0, 1, 2}),
        AttrSet::Of({1, 3, 4, 5}), table.schema().AllAttrs()}) {
    TableView view(table);
    GroupedRows expected = view.GroupRows(attrs);

    std::vector<int> buffer = AllRows(table);
    RowSpan span(table, buffer.data(), static_cast<int>(buffer.size()));
    std::vector<int> group_ends;
    scratch.GroupInPlace(span, attrs, &group_ends);

    std::vector<std::vector<int>> groups = GroupsOf(buffer, group_ends);
    ASSERT_EQ(groups.size(), expected.rows.size()) << attrs.ToString();
    for (size_t g = 0; g < groups.size(); ++g) {
      EXPECT_EQ(groups[g], expected.rows[g])
          << attrs.ToString() << " group " << g;
    }
  }
}

TEST(GroupScratchTest, EmptySpanAndEmptyAttrs) {
  ParsedFdSet parsed = OfficeFds();
  Table table = ScalingFamilyTable(parsed, 10, 5);
  GroupScratch scratch;
  std::vector<int> group_ends{99};  // must be cleared
  scratch.GroupInPlace(RowSpan(table, nullptr, 0), AttrSet::Singleton(0),
                       &group_ends);
  EXPECT_TRUE(group_ends.empty());

  std::vector<int> buffer = AllRows(table);
  RowSpan span(table, buffer.data(), static_cast<int>(buffer.size()));
  scratch.GroupInPlace(span, AttrSet(), &group_ends);
  EXPECT_EQ(group_ends, std::vector<int>{10});
  EXPECT_EQ(buffer, AllRows(table));  // untouched
}

// A scratch is reused across many calls (that is its point); grouping
// results must not depend on what ran before.
TEST(GroupScratchTest, ReuseAcrossCallsIsStateless) {
  ParsedFdSet parsed = DeltaAKeyBToC();
  GroupScratch reused;
  for (int round = 0; round < 20; ++round) {
    Table table = ScalingFamilyTable(parsed, 30 + round * 17, 100 + round, 2);
    AttrSet attrs = (round % 2 == 0) ? AttrSet::Singleton(round % 3)
                                     : AttrSet::Of({0, 1});
    std::vector<int> reused_buffer = AllRows(table);
    RowSpan span(table, reused_buffer.data(),
                 static_cast<int>(reused_buffer.size()));
    std::vector<int> reused_ends;
    reused.GroupInPlace(span, attrs, &reused_ends);

    GroupScratch fresh;
    std::vector<int> fresh_buffer = AllRows(table);
    RowSpan fresh_span(table, fresh_buffer.data(),
                       static_cast<int>(fresh_buffer.size()));
    std::vector<int> fresh_ends;
    fresh.GroupInPlace(fresh_span, attrs, &fresh_ends);

    EXPECT_EQ(reused_buffer, fresh_buffer) << "round " << round;
    EXPECT_EQ(reused_ends, fresh_ends) << "round " << round;
  }
}

// Span marriage partitioning against PartitionForMarriage as the oracle:
// identical blocks and identical dense left/right endpoints.
TEST(GroupScratchTest, SpanMarriageMatchesBlockPartition) {
  ParsedFdSet parsed = DeltaAKeyBToC();
  Table table = ScalingFamilyTable(parsed, 400, 9);
  AttrSet x1 = AttrSet::Singleton(0);
  AttrSet x2 = AttrSet::Singleton(1);
  BlockPartition expected = PartitionForMarriage(TableView(table), x1, x2);

  std::vector<int> buffer = AllRows(table);
  RowSpan span(table, buffer.data(), static_cast<int>(buffer.size()));
  GroupScratch scratch;
  std::vector<int> group_ends, left, right;
  int num_left = 0, num_right = 0;
  PartitionSpanForMarriage(span, x1, x2, &scratch, &group_ends, &left, &right,
                           &num_left, &num_right);

  std::vector<std::vector<int>> blocks = GroupsOf(buffer, group_ends);
  ASSERT_EQ(blocks.size(), expected.blocks.size());
  EXPECT_EQ(num_left, expected.num_left);
  EXPECT_EQ(num_right, expected.num_right);
  for (size_t b = 0; b < blocks.size(); ++b) {
    EXPECT_EQ(blocks[b], expected.blocks[b].view.rows()) << b;
    EXPECT_EQ(left[b], expected.blocks[b].left) << b;
    EXPECT_EQ(right[b], expected.blocks[b].right) << b;
  }
}

// Randomized: grouping a random sub-window of a shuffled buffer leaves the
// rest of the buffer untouched and permutes (never duplicates/drops) the
// window's rows.
TEST(GroupScratchTest, WindowIsPermutedInPlaceOnly) {
  Rng rng(29);
  ParsedFdSet parsed = OfficeFds();
  Table table = ScalingFamilyTable(parsed, 200, 31, 2);
  GroupScratch scratch;
  for (int trial = 0; trial < 25; ++trial) {
    std::vector<int> buffer = AllRows(table);
    for (int i = static_cast<int>(buffer.size()) - 1; i > 0; --i) {
      std::swap(buffer[i],
                buffer[static_cast<int>(rng.UniformUint64(i + 1))]);
    }
    const int offset = static_cast<int>(rng.UniformUint64(100));
    const int count = static_cast<int>(rng.UniformUint64(100));
    std::vector<int> before = buffer;
    RowSpan span(table, buffer.data(), static_cast<int>(buffer.size()));
    std::vector<int> group_ends;
    scratch.GroupInPlace(span.Subspan(offset, count),
                         AttrSet::Singleton(static_cast<AttrId>(trial % 4)),
                         &group_ends);
    // Outside the window: bit-identical. Inside: a permutation.
    for (size_t i = 0; i < buffer.size(); ++i) {
      if (i < static_cast<size_t>(offset) ||
          i >= static_cast<size_t>(offset + count)) {
        EXPECT_EQ(buffer[i], before[i]) << "outside window, i=" << i;
      }
    }
    std::vector<int> window(buffer.begin() + offset,
                            buffer.begin() + offset + count);
    std::vector<int> expected_window(before.begin() + offset,
                                     before.begin() + offset + count);
    std::sort(window.begin(), window.end());
    std::sort(expected_window.begin(), expected_window.end());
    EXPECT_EQ(window, expected_window) << "trial " << trial;
    if (!group_ends.empty()) {
      EXPECT_EQ(group_ends.back(), count);
    }
  }
}

/// Groups every row of `table` (reversed when asked) by `attrs` with
/// `scratch` and checks the permutation and boundaries against GroupRows.
void ExpectGroupingMatchesGroupRows(const Table& table, AttrSet attrs,
                                    bool reversed, GroupScratch* scratch,
                                    int trial) {
  std::vector<int> buffer = AllRows(table);
  if (reversed) std::reverse(buffer.begin(), buffer.end());
  GroupedRows expected = TableView(table, buffer).GroupRows(attrs);
  RowSpan span(table, buffer.data(), static_cast<int>(buffer.size()));
  std::vector<int> group_ends;
  scratch->GroupInPlace(span, attrs, &group_ends);
  std::vector<std::vector<int>> groups = GroupsOf(buffer, group_ends);
  const int n = table.num_tuples();
  ASSERT_EQ(groups.size(), expected.rows.size())
      << "trial " << trial << " n " << n << " attrs " << attrs.ToString();
  for (size_t g = 0; g < groups.size(); ++g) {
    ASSERT_EQ(groups[g], expected.rows[g])
        << "trial " << trial << " n " << n << " attrs " << attrs.ToString()
        << " group " << g;
  }
}

// The grouping oracle: on random tables and 1/2/3+ attribute keys, the
// grouping core must produce exactly the grouping of TableView::GroupRows —
// same permutation, same group boundaries. Windows run from a single row to
// about 2,000 rows, and every other trial groups the rows in reverse order,
// so the window is not the identity. Further trials cover keys of 3 to 5
// attributes over tables whose cells are mostly values of their own (the
// many-distinct-keys shape of an update's fresh ⊥ cells), and tables of at
// most 12 rows, whose keys share home slots of the grouping table's
// smallest size. This is what keeps GroupIndex from ever drifting from
// GroupRows.
TEST(GroupScratchTest, MatchesGroupRowsOnRandomTables) {
  Rng rng(97);
  ParsedFdSet parsed = Example31Ssn();  // 7 attributes
  GroupScratch scratch;
  for (int trial = 0; trial < 16; ++trial) {
    const int n = 1 + static_cast<int>(rng.UniformUint64(2000));
    const int family = 3 + static_cast<int>(rng.UniformUint64(40));
    Table table = ScalingFamilyTable(parsed, n, family, 3);
    // Random key width 1..4 over random attributes.
    AttrSet attrs;
    const int width = 1 + static_cast<int>(rng.UniformUint64(4));
    while (attrs.size() < width) {
      attrs = attrs.With(static_cast<AttrId>(
          rng.UniformUint64(table.schema().arity())));
    }
    ExpectGroupingMatchesGroupRows(table, attrs, trial % 2 == 1, &scratch,
                                   trial);
  }
  const Schema schema = Schema::MakeOrDie("R", {"A", "B", "C", "D", "E"});
  for (int trial = 16; trial < 64; ++trial) {
    const bool small = trial % 2 == 0;
    const int n = 1 + static_cast<int>(rng.UniformUint64(small ? 12 : 2000));
    const uint64_t domain = 2 + rng.UniformUint64(small ? 4 : 40);
    const double fresh = small ? 0.2 : 0.9;
    Table table(schema);
    for (int row = 0; row < n; ++row) {
      std::vector<std::string> values;
      for (int attr = 0; attr < schema.arity(); ++attr) {
        const bool own = rng.Bernoulli(fresh);
        values.push_back(own ? "f" + std::to_string(row) + "." +
                                   std::to_string(attr)
                             : "v" + std::to_string(rng.UniformUint64(domain)));
      }
      table.AddTuple(values);
    }
    // Key width 1..5 on small tables, 3..5 on the fresh-⊥ shape.
    const int width = (small ? 1 : 3) +
                      static_cast<int>(rng.UniformUint64(small ? 5 : 3));
    AttrSet attrs;
    while (attrs.size() < width) {
      attrs = attrs.With(static_cast<AttrId>(rng.UniformUint64(5)));
    }
    ExpectGroupingMatchesGroupRows(table, attrs, trial % 4 < 2, &scratch,
                                   trial);
  }
}

// Marriage endpoint assignment must also match the materializing
// partition (the single-attribute endpoint path reads the column directly).
TEST(GroupScratchTest, MarriageEndpointsMatchPartition) {
  ParsedFdSet parsed = DeltaAKeyBToC();
  Table table = ScalingFamilyTable(parsed, 500, 11);
  AttrSet x1 = AttrSet::Singleton(0);
  AttrSet x2 = AttrSet::Singleton(1);
  BlockPartition expected = PartitionForMarriage(TableView(table), x1, x2);
  std::vector<int> buffer = AllRows(table);
  RowSpan span(table, buffer.data(), static_cast<int>(buffer.size()));
  GroupScratch scratch;
  std::vector<int> group_ends, left, right;
  int num_left = 0, num_right = 0;
  PartitionSpanForMarriage(span, x1, x2, &scratch, &group_ends, &left, &right,
                           &num_left, &num_right);
  ASSERT_EQ(group_ends.size(), expected.blocks.size());
  EXPECT_EQ(num_left, expected.num_left);
  EXPECT_EQ(num_right, expected.num_right);
  std::vector<std::vector<int>> blocks = GroupsOf(buffer, group_ends);
  for (size_t b = 0; b < blocks.size(); ++b) {
    EXPECT_EQ(blocks[b], expected.blocks[b].view.rows()) << b;
    EXPECT_EQ(left[b], expected.blocks[b].left) << b;
    EXPECT_EQ(right[b], expected.blocks[b].right) << b;
  }
}

TEST(DenseValueIndexTest, AssignsFirstAppearanceIdsAndClearsInO1) {
  DenseValueIndex index;
  index.Clear();
  bool created = false;
  EXPECT_EQ(index.FindOrCreate(42, &created), 0);
  EXPECT_TRUE(created);
  EXPECT_EQ(index.FindOrCreate(7, &created), 1);
  EXPECT_TRUE(created);
  EXPECT_EQ(index.FindOrCreate(42, &created), 0);
  EXPECT_FALSE(created);
  EXPECT_EQ(index.size(), 2);
  EXPECT_EQ(index.Find(7), 1);
  EXPECT_EQ(index.Find(1000), -1);  // beyond storage: absent, not UB
  index.Clear();
  EXPECT_EQ(index.size(), 0);
  EXPECT_EQ(index.Find(42), -1);  // prior epoch's entries are gone
  EXPECT_EQ(index.FindOrCreate(7, &created), 0);
  EXPECT_TRUE(created);
}

// GroupIndex on its own: rows added one at a time from an index sized for
// none, so the flat table doubles many times, must get GroupRows' group
// numbers; Find sees exactly the projections created so far. Each trial
// reuses the index of the one before, larger or smaller, so slots an
// earlier grouping left behind must read as empty.
TEST(GroupIndexTest, GrowsRowByRowAndMatchesGroupRows) {
  Rng rng(31);
  ParsedFdSet parsed = Example31Ssn();  // 7 attributes
  GroupIndex index;
  for (int trial = 0; trial < 24; ++trial) {
    const int n = 1 + static_cast<int>(rng.UniformUint64(trial % 2 ? 30 : 900));
    Table table = ScalingFamilyTable(parsed, n, 100 + trial, 2);
    AttrSet attrs;
    const int width = trial % 5;  // 0..4 attributes
    while (attrs.size() < width) {
      attrs = attrs.With(static_cast<AttrId>(rng.UniformUint64(7)));
    }
    GroupedRows expected = TableView(table).GroupRows(attrs);
    std::vector<int> group_of_row(n);
    for (size_t g = 0; g < expected.rows.size(); ++g) {
      for (int row : expected.rows[g]) group_of_row[row] = static_cast<int>(g);
    }
    index.Reset(table, attrs, trial % 3 == 0 ? n : 0);
    for (int row = 0; row < n; ++row) {
      const int known = index.size();
      const int found = index.Find(row);
      bool created = false;
      ASSERT_EQ(index.FindOrCreate(row, &created), group_of_row[row])
          << "trial " << trial << " row " << row;
      EXPECT_EQ(created, group_of_row[row] == known) << "row " << row;
      EXPECT_EQ(found, created ? -1 : group_of_row[row]) << "row " << row;
    }
    EXPECT_EQ(index.size(), static_cast<int>(expected.rows.size()));
  }
}

TEST(GroupScratchTest, IntBufferArenaRecyclesCapacity) {
  GroupScratch scratch;
  std::vector<int> buffer = scratch.AcquireIntBuffer();
  buffer.assign(1000, 7);
  const int* data = buffer.data();
  scratch.ReleaseIntBuffer(std::move(buffer));
  std::vector<int> again = scratch.AcquireIntBuffer();
  EXPECT_TRUE(again.empty());
  EXPECT_GE(again.capacity(), 1000u);
  EXPECT_EQ(again.data(), data);  // same storage came back
}

}  // namespace
}  // namespace fdrepair
