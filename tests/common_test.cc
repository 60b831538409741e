#include <gtest/gtest.h>

#include <set>
#include <string>
#include <vector>

#include "src/common/arena.h"
#include "src/common/hash.h"
#include "src/common/rng.h"
#include "src/common/status.h"
#include "src/common/strings.h"

namespace revere {
namespace {

TEST(StatusTest, DefaultIsOk) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kOk);
  EXPECT_EQ(s.ToString(), "Ok");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status s = Status::NotFound("no such table");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kNotFound);
  EXPECT_EQ(s.message(), "no such table");
  EXPECT_EQ(s.ToString(), "NotFound: no such table");
}

TEST(StatusTest, AllFactoriesProduceMatchingCodes) {
  EXPECT_EQ(Status::InvalidArgument("x").code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(Status::AlreadyExists("x").code(), StatusCode::kAlreadyExists);
  EXPECT_EQ(Status::OutOfRange("x").code(), StatusCode::kOutOfRange);
  EXPECT_EQ(Status::FailedPrecondition("x").code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(Status::Unimplemented("x").code(), StatusCode::kUnimplemented);
  EXPECT_EQ(Status::ParseError("x").code(), StatusCode::kParseError);
  EXPECT_EQ(Status::Internal("x").code(), StatusCode::kInternal);
  EXPECT_EQ(Status::Unavailable("x").code(), StatusCode::kUnavailable);
  EXPECT_EQ(Status::DeadlineExceeded("x").code(),
            StatusCode::kDeadlineExceeded);
}

TEST(StatusTest, FaultCodesRoundTripThroughToString) {
  EXPECT_STREQ(StatusCodeToString(StatusCode::kUnavailable), "Unavailable");
  EXPECT_STREQ(StatusCodeToString(StatusCode::kDeadlineExceeded),
               "DeadlineExceeded");
  EXPECT_EQ(Status::Unavailable("peer 'mit' is down").ToString(),
            "Unavailable: peer 'mit' is down");
  EXPECT_EQ(Status::DeadlineExceeded("contact took 80ms > 50ms").ToString(),
            "DeadlineExceeded: contact took 80ms > 50ms");
}

TEST(ResultTest, HoldsValue) {
  Result<int> r = 42;
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value(), 42);
  EXPECT_EQ(*r, 42);
}

TEST(ResultTest, HoldsError) {
  Result<int> r = Status::InvalidArgument("bad");
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(r.value_or(-1), -1);
}

TEST(ResultTest, MoveOutValue) {
  Result<std::string> r = std::string("hello");
  std::string v = std::move(r).value();
  EXPECT_EQ(v, "hello");
}

Result<int> ParsePositive(int x) {
  if (x <= 0) return Status::InvalidArgument("not positive");
  return x;
}

Status UseAssignOrReturn(int x, int* out) {
  REVERE_ASSIGN_OR_RETURN(int v, ParsePositive(x));
  *out = v * 2;
  return Status::Ok();
}

TEST(ResultTest, AssignOrReturnMacro) {
  int out = 0;
  EXPECT_TRUE(UseAssignOrReturn(5, &out).ok());
  EXPECT_EQ(out, 10);
  EXPECT_FALSE(UseAssignOrReturn(-1, &out).ok());
}

TEST(StringsTest, SplitBasic) {
  EXPECT_EQ(Split("a,b,c", ','), (std::vector<std::string>{"a", "b", "c"}));
  EXPECT_EQ(Split("a,,c", ','), (std::vector<std::string>{"a", "", "c"}));
  EXPECT_EQ(Split("a,,c", ',', /*skip_empty=*/true),
            (std::vector<std::string>{"a", "c"}));
  EXPECT_EQ(Split("", ','), (std::vector<std::string>{""}));
}

TEST(StringsTest, SplitAny) {
  EXPECT_EQ(SplitAny("a b\tc\nd", " \t\n"),
            (std::vector<std::string>{"a", "b", "c", "d"}));
}

TEST(StringsTest, JoinRoundTrip) {
  std::vector<std::string> v{"x", "y", "z"};
  EXPECT_EQ(Join(v, "--"), "x--y--z");
  EXPECT_EQ(Join({}, ","), "");
}

TEST(StringsTest, TrimAndCase) {
  EXPECT_EQ(Trim("  hi \n"), "hi");
  EXPECT_EQ(Trim(""), "");
  EXPECT_EQ(Trim("   "), "");
  EXPECT_EQ(ToLower("AbC"), "abc");
  EXPECT_EQ(ToUpper("AbC"), "ABC");
}

TEST(StringsTest, Predicates) {
  EXPECT_TRUE(StartsWith("course_title", "course"));
  EXPECT_FALSE(StartsWith("abc", "abcd"));
  EXPECT_TRUE(EndsWith("course_title", "title"));
  EXPECT_TRUE(EqualsIgnoreCase("Course", "cOURSE"));
  EXPECT_FALSE(EqualsIgnoreCase("Course", "Courses"));
  EXPECT_TRUE(Contains("schedule", "hed"));
}

TEST(StringsTest, ReplaceAll) {
  EXPECT_EQ(ReplaceAll("a.b.c", ".", "::"), "a::b::c");
  EXPECT_EQ(ReplaceAll("aaa", "aa", "b"), "ba");
  EXPECT_EQ(ReplaceAll("x", "", "y"), "x");
}

TEST(RngTest, Deterministic) {
  Rng a(7), b(7);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.Next(), b.Next());
}

TEST(RngTest, UniformInRange) {
  Rng rng(1);
  for (int i = 0; i < 1000; ++i) {
    uint64_t v = rng.Uniform(10);
    EXPECT_LT(v, 10u);
  }
}

TEST(RngTest, UniformIntInclusive) {
  Rng rng(2);
  std::set<int64_t> seen;
  for (int i = 0; i < 1000; ++i) {
    int64_t v = rng.UniformInt(-2, 2);
    EXPECT_GE(v, -2);
    EXPECT_LE(v, 2);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 5u);  // all values hit
}

TEST(RngTest, UniformDoubleInUnitInterval) {
  Rng rng(3);
  for (int i = 0; i < 1000; ++i) {
    double v = rng.UniformDouble();
    EXPECT_GE(v, 0.0);
    EXPECT_LT(v, 1.0);
  }
}

TEST(RngTest, BernoulliExtremes) {
  Rng rng(4);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(rng.Bernoulli(0.0));
    EXPECT_TRUE(rng.Bernoulli(1.0));
  }
}

TEST(RngTest, ZipfSkewsTowardLowRanks) {
  Rng rng(5);
  size_t low = 0;
  const int kTrials = 5000;
  for (int i = 0; i < kTrials; ++i) {
    if (rng.Zipf(100, 1.0) < 10) ++low;
  }
  // With theta=1, the first 10 of 100 ranks carry well over a third of
  // the mass; uniform would give ~10%.
  EXPECT_GT(low, static_cast<size_t>(kTrials) / 3);
}

TEST(RngTest, ZipfThetaZeroIsUniformish) {
  Rng rng(6);
  size_t low = 0;
  const int kTrials = 5000;
  for (int i = 0; i < kTrials; ++i) {
    if (rng.Zipf(100, 0.0) < 10) ++low;
  }
  EXPECT_NEAR(static_cast<double>(low) / kTrials, 0.10, 0.03);
}

TEST(RngTest, ShuffleIsPermutation) {
  Rng rng(8);
  std::vector<int> v{1, 2, 3, 4, 5, 6, 7, 8};
  std::vector<int> orig = v;
  rng.Shuffle(&v);
  std::multiset<int> a(v.begin(), v.end()), b(orig.begin(), orig.end());
  EXPECT_EQ(a, b);
}

TEST(RngTest, GaussianMoments) {
  Rng rng(9);
  double sum = 0.0, sq = 0.0;
  const int kTrials = 20000;
  for (int i = 0; i < kTrials; ++i) {
    double v = rng.Gaussian(5.0, 2.0);
    sum += v;
    sq += v * v;
  }
  double mean = sum / kTrials;
  double var = sq / kTrials - mean * mean;
  EXPECT_NEAR(mean, 5.0, 0.1);
  EXPECT_NEAR(var, 4.0, 0.3);
}

TEST(ArenaTest, AllocationsAreMaxAligned) {
  Arena arena(/*initial_block_bytes=*/256);
  for (size_t sz : {1u, 3u, 17u, 64u, 200u}) {
    auto addr = reinterpret_cast<uintptr_t>(arena.Allocate(sz));
    EXPECT_EQ(addr % alignof(std::max_align_t), 0u) << "size " << sz;
  }
}

TEST(ArenaTest, ResetKeepsBlocksForSteadyStateReuse) {
  Arena arena(/*initial_block_bytes=*/1024);
  for (int i = 0; i < 4; ++i) {
    arena.AllocateArray<uint32_t>(100);
    arena.AllocateArray<uint64_t>(50);
    arena.Reset();
  }
  size_t warm = arena.bytes_reserved();
  EXPECT_GT(warm, 0u);
  EXPECT_EQ(arena.bytes_allocated(), 0u);
  // The same batch shape must not reserve any new memory once warm.
  for (int i = 0; i < 8; ++i) {
    arena.AllocateArray<uint32_t>(100);
    arena.AllocateArray<uint64_t>(50);
    arena.Reset();
  }
  EXPECT_EQ(arena.bytes_reserved(), warm);
}

TEST(ArenaTest, GrowsForOversizedAllocations) {
  Arena arena(/*initial_block_bytes=*/64);
  uint32_t* big = arena.AllocateArray<uint32_t>(10000);
  ASSERT_NE(big, nullptr);
  for (size_t i = 0; i < 10000; ++i) big[i] = static_cast<uint32_t>(i);
  EXPECT_EQ(big[9999], 9999u);
  EXPECT_GE(arena.bytes_reserved(), 10000 * sizeof(uint32_t));
  EXPECT_GE(arena.bytes_allocated(), 10000 * sizeof(uint32_t));
}

TEST(ArenaTest, DistinctLiveAllocationsDoNotOverlap) {
  Arena arena(/*initial_block_bytes=*/128);
  uint64_t* a = arena.AllocateArray<uint64_t>(8);
  uint64_t* b = arena.AllocateArray<uint64_t>(8);
  for (int i = 0; i < 8; ++i) a[i] = 1, b[i] = 2;
  for (int i = 0; i < 8; ++i) {
    EXPECT_EQ(a[i], 1u);
    EXPECT_EQ(b[i], 2u);
  }
}

TEST(HashTest, PairHashDistinguishes) {
  PairHash h;
  EXPECT_NE(h(std::make_pair(std::string("a"), std::string("b"))),
            h(std::make_pair(std::string("b"), std::string("a"))));
}

TEST(HashTest, HashCombineIsHashStepOverStdHash) {
  // The columnar output boundary relies on this decomposition exactly.
  size_t seed = 7;
  HashCombine(&seed, std::string("revere"));
  EXPECT_EQ(seed, HashStep(7, std::hash<std::string>{}(std::string("revere"))));
}

}  // namespace
}  // namespace revere
