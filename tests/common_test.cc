// Unit tests for the common substrate: Status/StatusOr, strings, Rng.

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <set>

#include "common/random.h"
#include "common/status.h"
#include "common/strings.h"

namespace fdrepair {
namespace {

TEST(StatusTest, OkByDefault) {
  Status status;
  EXPECT_TRUE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kOk);
  EXPECT_EQ(status.ToString(), "ok");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status status = Status::InvalidArgument("bad fd");
  EXPECT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(status.message(), "bad fd");
  EXPECT_EQ(status.ToString(), "invalid-argument: bad fd");
}

TEST(StatusTest, NamedConstructorsMapToCodes) {
  EXPECT_EQ(Status::NotSupported("x").code(), StatusCode::kNotSupported);
  EXPECT_EQ(Status::ResourceExhausted("x").code(),
            StatusCode::kResourceExhausted);
  EXPECT_EQ(Status::FailedPrecondition("x").code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(Status::NotFound("x").code(), StatusCode::kNotFound);
  EXPECT_EQ(Status::IoError("x").code(), StatusCode::kIoError);
  EXPECT_EQ(Status::Internal("x").code(), StatusCode::kInternal);
}

TEST(StatusOrTest, HoldsValue) {
  StatusOr<int> result(42);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(*result, 42);
  EXPECT_EQ(result.value_or(7), 42);
}

TEST(StatusOrTest, HoldsError) {
  StatusOr<int> result(Status::NotFound("nope"));
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kNotFound);
  EXPECT_EQ(result.value_or(7), 7);
}

StatusOr<int> Half(int x) {
  if (x % 2 != 0) return Status::InvalidArgument("odd");
  return x / 2;
}

StatusOr<int> Quarter(int x) {
  FDR_ASSIGN_OR_RETURN(int half, Half(x));
  FDR_ASSIGN_OR_RETURN(int quarter, Half(half));
  return quarter;
}

TEST(StatusOrTest, AssignOrReturnPropagates) {
  auto ok = Quarter(8);
  ASSERT_TRUE(ok.ok());
  EXPECT_EQ(*ok, 2);
  EXPECT_FALSE(Quarter(6).ok());  // 6/2 = 3 is odd
  EXPECT_FALSE(Quarter(7).ok());
}

TEST(StringsTest, SplitKeepsEmptyFields) {
  EXPECT_EQ(Split("a,,b", ','), (std::vector<std::string>{"a", "", "b"}));
  EXPECT_EQ(Split("", ','), (std::vector<std::string>{""}));
}

TEST(StringsTest, SplitWhitespaceDropsRuns) {
  EXPECT_EQ(SplitWhitespace("  a \t b\nc  "),
            (std::vector<std::string>{"a", "b", "c"}));
  EXPECT_TRUE(SplitWhitespace("   ").empty());
}

TEST(StringsTest, StripAsciiWhitespace) {
  EXPECT_EQ(StripAsciiWhitespace("  x y  "), "x y");
  EXPECT_EQ(StripAsciiWhitespace(""), "");
  EXPECT_EQ(StripAsciiWhitespace(" \t\n"), "");
}

TEST(StringsTest, JoinAndAffixes) {
  EXPECT_EQ(Join({"a", "b"}, ", "), "a, b");
  EXPECT_EQ(Join({}, ","), "");
  EXPECT_TRUE(StartsWith("facility", "fac"));
  EXPECT_FALSE(StartsWith("f", "fac"));
  EXPECT_TRUE(EndsWith("repair.cc", ".cc"));
  EXPECT_FALSE(EndsWith("cc", "repair.cc"));
}

TEST(StringsTest, FormatDouble) {
  EXPECT_EQ(FormatDouble(2.0), "2");
  EXPECT_EQ(FormatDouble(2.5), "2.5");
}

TEST(RngTest, DeterministicAcrossInstances) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.Next(), b.Next());
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int differing = 0;
  for (int i = 0; i < 10; ++i) {
    if (a.Next() != b.Next()) ++differing;
  }
  EXPECT_GT(differing, 0);
}

TEST(RngTest, UniformBoundsRespected) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(rng.UniformUint64(10), 10u);
    int64_t v = rng.UniformInt(-3, 3);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 3);
    double d = rng.UniformDouble();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

// Ranges wider than int64 can subtract (hi - lo overflows) still draw
// inside [lo, hi]; the ASan+UBSan build flags any signed overflow.
TEST(RngTest, UniformIntHandlesExtremeRanges) {
  constexpr int64_t kMin = std::numeric_limits<int64_t>::min();
  constexpr int64_t kMax = std::numeric_limits<int64_t>::max();
  Rng rng(11);
  bool negative = false, positive = false;
  for (int i = 0; i < 200; ++i) {
    const int64_t v = rng.UniformInt(kMin, kMax - 1);
    EXPECT_LT(v, kMax);
    negative |= v < 0;
    positive |= v > 0;
    EXPECT_GE(rng.UniformInt(kMax - 2, kMax), kMax - 2);
    EXPECT_LE(rng.UniformInt(kMin, kMin + 2), kMin + 2);
    EXPECT_LE(rng.UniformInt(-1, kMax), kMax);
  }
  EXPECT_TRUE(negative && positive);
  EXPECT_EQ(rng.UniformInt(kMin, kMin), kMin);
  EXPECT_EQ(rng.UniformInt(kMax, kMax), kMax);
}

TEST(RngTest, UniformCoversRange) {
  Rng rng(9);
  std::set<uint64_t> seen;
  for (int i = 0; i < 200; ++i) seen.insert(rng.UniformUint64(5));
  EXPECT_EQ(seen.size(), 5u);
}

TEST(RngTest, BernoulliExtremes) {
  Rng rng(11);
  EXPECT_FALSE(rng.Bernoulli(0.0));
  EXPECT_TRUE(rng.Bernoulli(1.0));
}

TEST(RngTest, ShufflePermutes) {
  Rng rng(13);
  std::vector<int> items{1, 2, 3, 4, 5, 6, 7, 8};
  std::vector<int> shuffled = items;
  rng.Shuffle(&shuffled);
  std::multiset<int> a(items.begin(), items.end());
  std::multiset<int> b(shuffled.begin(), shuffled.end());
  EXPECT_EQ(a, b);
}

TEST(RngTest, ForkIndependent) {
  Rng parent(17);
  Rng child = parent.Fork();
  // The fork and the parent should produce different streams.
  int differing = 0;
  for (int i = 0; i < 10; ++i) {
    if (parent.Next() != child.Next()) ++differing;
  }
  EXPECT_GT(differing, 0);
}

}  // namespace
}  // namespace fdrepair
