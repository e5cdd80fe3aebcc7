// CSV round-tripping under RFC-4180 quoting, and the weight-validation
// contract: TableFromCsv(TableToCsv(t)) must reproduce t exactly for
// arbitrary values (separators, quotes, newlines, empty strings,
// surrounding whitespace), and the "w" column only accepts positive
// finite numbers.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/random.h"
#include "storage/table.h"
#include "storage/table_io.h"

namespace fdrepair {
namespace {

Table MakeTable(const std::vector<std::string>& attrs,
                const std::vector<std::pair<std::vector<std::string>, double>>&
                    rows) {
  Table table(Schema::MakeOrDie("T", attrs));
  for (const auto& [values, weight] : rows) table.AddTuple(values, weight);
  return table;
}

void ExpectSameContent(const Table& a, const Table& b) {
  ASSERT_EQ(a.schema().arity(), b.schema().arity());
  for (int c = 0; c < a.schema().arity(); ++c) {
    EXPECT_EQ(a.schema().AttributeName(c), b.schema().AttributeName(c)) << c;
  }
  ASSERT_EQ(a.num_tuples(), b.num_tuples());
  for (int row = 0; row < a.num_tuples(); ++row) {
    EXPECT_EQ(a.id(row), b.id(row)) << row;
    EXPECT_DOUBLE_EQ(a.weight(row), b.weight(row)) << row;
    for (int c = 0; c < a.schema().arity(); ++c) {
      EXPECT_EQ(a.ValueText(row, c), b.ValueText(row, c))
          << "row " << row << " col " << c;
    }
  }
}

TEST(TableIoQuotingTest, RoundTripsSeparatorQuoteNewlineAndEmpty) {
  Table table = MakeTable(
      {"a", "b"},
      {{{"plain", "with,comma"}, 1.0},
       {{"say \"hi\"", "line\nbreak"}, 2.5},
       {{"", "  padded  "}, 0.25},
       {{",", "\""}, 1.0},
       {{"\r\n", "trailing\n"}, 3.0},
       {{"\ttabbed", "mix,\"of\"\nall"}, 1.5},
       // \v and \f are stripped by the unquoted reader too, so the writer
       // must quote them just like space/tab framing.
       {{"\fformfeed", "vtab\v"}, 1.0}});
  std::string csv = TableToCsv(table);
  auto parsed = TableFromCsv(csv);
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  ExpectSameContent(table, *parsed);
}

TEST(TableIoQuotingTest, RoundTripsUnderAlternateSeparator) {
  Table table = MakeTable({"x", "y"}, {{{"a;b", "c,d"}, 1.0},
                                       {{"e\"f", "g\nh"}, 2.0}});
  std::string csv = TableToCsv(table, ';');
  auto parsed = TableFromCsv(csv, "T", ';');
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  ExpectSameContent(table, *parsed);
}

TEST(TableIoQuotingTest, QuotedAttributeNamesRoundTrip) {
  Table table = MakeTable({"name, first", "plain"}, {{{"v1", "v2"}, 1.0}});
  auto parsed = TableFromCsv(TableToCsv(table));
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  ExpectSameContent(table, *parsed);
}

TEST(TableIoQuotingTest, PlainCsvStillStripsWhitespace) {
  auto parsed = TableFromCsv("id , a , w\n 1 , hello , 2 \n");
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  EXPECT_EQ(parsed->num_tuples(), 1);
  EXPECT_EQ(parsed->ValueText(0, 0), "hello");
  EXPECT_DOUBLE_EQ(parsed->weight(0), 2.0);
}

TEST(TableIoQuotingTest, QuotedFieldsPreserveWhitespaceVerbatim) {
  auto parsed = TableFromCsv("a,b\n\" x \",\"\"\n");
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  EXPECT_EQ(parsed->ValueText(0, 0), " x ");
  EXPECT_EQ(parsed->ValueText(0, 1), "");
}

TEST(TableIoQuotingTest, EmbeddedNewlineInsideQuotesSpansLines) {
  auto parsed = TableFromCsv("a,b\n\"multi\nline\",z\nnext,row\n");
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  ASSERT_EQ(parsed->num_tuples(), 2);
  EXPECT_EQ(parsed->ValueText(0, 0), "multi\nline");
  EXPECT_EQ(parsed->ValueText(1, 0), "next");
}

TEST(TableIoQuotingTest, AllEmptyUnquotedRecordIsKept) {
  auto parsed = TableFromCsv("a,b\n,\n");
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  ASSERT_EQ(parsed->num_tuples(), 1);
  EXPECT_EQ(parsed->ValueText(0, 0), "");
  EXPECT_EQ(parsed->ValueText(0, 1), "");
}

TEST(TableIoQuotingTest, UnterminatedQuoteFails) {
  auto parsed = TableFromCsv("a,b\n\"oops,then\n");
  ASSERT_FALSE(parsed.ok());
  EXPECT_EQ(parsed.status().code(), StatusCode::kInvalidArgument);
}

TEST(TableIoQuotingTest, DataAfterClosingQuoteFails) {
  auto parsed = TableFromCsv("a,b\n\"x\"y,z\n");
  ASSERT_FALSE(parsed.ok());
  EXPECT_EQ(parsed.status().code(), StatusCode::kInvalidArgument);
}

TEST(TableIoWeightTest, RejectsNonPositiveAndNonFiniteWeights) {
  for (const char* bad : {"-1", "0", "-0.5", "nan", "inf", "-inf", "1e999"}) {
    auto parsed = TableFromCsv(std::string("id,a,w\n1,x,") + bad + "\n");
    ASSERT_FALSE(parsed.ok()) << "weight " << bad << " was accepted";
    EXPECT_EQ(parsed.status().code(), StatusCode::kInvalidArgument) << bad;
  }
}

TEST(TableIoWeightTest, RejectsMalformedWeightText) {
  for (const char* bad : {"abc", "2x", ""}) {
    auto parsed = TableFromCsv(std::string("id,a,w\n1,x,") + bad + "\n");
    ASSERT_FALSE(parsed.ok()) << "weight \"" << bad << "\" was accepted";
    EXPECT_EQ(parsed.status().code(), StatusCode::kInvalidArgument) << bad;
  }
}

TEST(TableIoWeightTest, AcceptsPositiveFiniteWeights) {
  auto parsed = TableFromCsv("id,a,w\n1,x,0.125\n2,y,3\n");
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  EXPECT_DOUBLE_EQ(parsed->weight(0), 0.125);
  EXPECT_DOUBLE_EQ(parsed->weight(1), 3.0);
}

TEST(TableIoPropertyTest, RandomValuesRoundTrip) {
  // Property: TableFromCsv(TableToCsv(t)) == t for values drawn from an
  // alphabet stacked with every character the quoting rules care about.
  const std::string alphabet = "ab,\"\n\r \t\v\f;x";
  Rng rng(20260726);
  for (int iteration = 0; iteration < 60; ++iteration) {
    int arity = 1 + static_cast<int>(rng.UniformUint64(3));
    std::vector<std::string> attrs;
    for (int c = 0; c < arity; ++c) attrs.push_back("c" + std::to_string(c));
    Table table(Schema::MakeOrDie("T", attrs));
    int rows = static_cast<int>(rng.UniformUint64(8));
    for (int r = 0; r < rows; ++r) {
      std::vector<std::string> values;
      for (int c = 0; c < arity; ++c) {
        int len = static_cast<int>(rng.UniformUint64(6));
        std::string value;
        for (int k = 0; k < len; ++k) {
          value += alphabet[rng.UniformIndex(alphabet.size())];
        }
        values.push_back(std::move(value));
      }
      // Eighths survive FormatDouble's 6-significant-digit weight printing
      // exactly; value round-tripping is what this test is about.
      table.AddTuple(values, (1 + rng.UniformUint64(32)) / 8.0);
    }
    char sep = iteration % 2 == 0 ? ',' : ';';
    auto parsed = TableFromCsv(TableToCsv(table, sep), "T", sep);
    ASSERT_TRUE(parsed.ok())
        << "iteration " << iteration << ": " << parsed.status();
    ExpectSameContent(table, *parsed);
  }
}

}  // namespace
}  // namespace fdrepair
