// Unit tests for util: crc32, prng, strings, rate limiter.
#include <gtest/gtest.h>

#include <thread>

#include "common/clock.hpp"
#include "util/crc32.hpp"
#include "util/prng.hpp"
#include "util/rate_limiter.hpp"
#include "util/strings.hpp"

namespace afs {
namespace {

TEST(Crc32Test, KnownVectors) {
  // Standard test vector: CRC32("123456789") = 0xCBF43926.
  EXPECT_EQ(Crc32(AsBytes("123456789")), 0xCBF43926u);
  EXPECT_EQ(Crc32(AsBytes("")), 0u);
}

TEST(Crc32Test, IncrementalMatchesOneShot) {
  const std::string data = "the quick brown fox jumps over the lazy dog";
  const std::uint32_t whole = Crc32(AsBytes(data));
  std::uint32_t inc = 0;
  inc = Crc32Update(inc, AsBytes(data.substr(0, 10)));
  inc = Crc32Update(inc, AsBytes(data.substr(10)));
  EXPECT_EQ(inc, whole);
}

TEST(PrngTest, DeterministicForSeed) {
  Prng a(123);
  Prng b(123);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.NextU64(), b.NextU64());
  }
}

TEST(PrngTest, DifferentSeedsDiffer) {
  Prng a(1);
  Prng b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.NextU64() == b.NextU64()) ++same;
  }
  EXPECT_LT(same, 2);
}

TEST(PrngTest, NextBelowRespectsBound) {
  Prng prng(7);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(prng.NextBelow(17), 17u);
  }
  EXPECT_EQ(prng.NextBelow(0), 0u);
  EXPECT_EQ(prng.NextBelow(1), 0u);
}

TEST(PrngTest, NextDoubleInUnitInterval) {
  Prng prng(9);
  for (int i = 0; i < 1000; ++i) {
    const double d = prng.NextDouble();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(PrngTest, FillCoversWholeSpan) {
  Prng prng(11);
  Buffer buf(37, 0);
  prng.Fill(MutableByteSpan(buf));
  // Statistically impossible for good output to leave long all-zero runs.
  int zeros = 0;
  for (auto b : buf) zeros += (b == 0);
  EXPECT_LT(zeros, 10);
}

TEST(StringsTest, SplitKeepsEmptyFields) {
  const auto parts = Split("a,,b,", ',');
  ASSERT_EQ(parts.size(), 4u);
  EXPECT_EQ(parts[0], "a");
  EXPECT_EQ(parts[1], "");
  EXPECT_EQ(parts[2], "b");
  EXPECT_EQ(parts[3], "");
}

TEST(StringsTest, SplitOnce) {
  auto [k, v] = SplitOnce("key=value=more", '=');
  EXPECT_EQ(k, "key");
  EXPECT_EQ(v, "value=more");
  auto [whole, none] = SplitOnce("nosep", '=');
  EXPECT_EQ(whole, "nosep");
  EXPECT_EQ(none, "");
}

TEST(StringsTest, SplitLinesHandlesCrlfAndTrailingNewline) {
  const auto lines = SplitLines("a\r\nb\nc\n");
  ASSERT_EQ(lines.size(), 3u);
  EXPECT_EQ(lines[0], "a");
  EXPECT_EQ(lines[1], "b");
  EXPECT_EQ(lines[2], "c");
}

TEST(StringsTest, TrimAndLower) {
  EXPECT_EQ(TrimWhitespace("  hi \t\n"), "hi");
  EXPECT_EQ(TrimWhitespace(""), "");
  EXPECT_EQ(TrimWhitespace("   "), "");
  EXPECT_EQ(ToLowerAscii("MiXeD"), "mixed");
}

TEST(StringsTest, StartsEndsWith) {
  EXPECT_TRUE(StartsWith("foobar", "foo"));
  EXPECT_FALSE(StartsWith("fo", "foo"));
  EXPECT_TRUE(EndsWith("file.af", ".af"));
  EXPECT_FALSE(EndsWith("af", ".af"));
}

TEST(StringsTest, ParseU64) {
  std::uint64_t v = 0;
  EXPECT_TRUE(ParseU64("0", v));
  EXPECT_EQ(v, 0u);
  EXPECT_TRUE(ParseU64("18446744073709551615", v));
  EXPECT_EQ(v, UINT64_MAX);
  EXPECT_FALSE(ParseU64("18446744073709551616", v));  // overflow
  EXPECT_FALSE(ParseU64("", v));
  EXPECT_FALSE(ParseU64("12x", v));
  EXPECT_FALSE(ParseU64("-1", v));
}

TEST(RateLimiterTest, UnlimitedNeverDelays) {
  ManualClock clock;
  RateLimiter limiter(clock, 0);
  EXPECT_EQ(limiter.ReserveDelay(1 << 30).count(), 0);
}

TEST(RateLimiterTest, DelaysOnceBurstExhausted) {
  ManualClock clock;
  RateLimiter limiter(clock, 1000 * 1000, /*burst=*/1000);  // 1 MB/s
  EXPECT_EQ(limiter.ReserveDelay(1000).count(), 0);  // burst absorbs it
  // Next 1000 bytes must wait ~1ms at 1 MB/s.
  const auto delay = limiter.ReserveDelay(1000);
  EXPECT_GE(delay.count(), 900);
  EXPECT_LE(delay.count(), 1100);
}

TEST(RateLimiterTest, TryReserveReportsDeficitWithoutDebiting) {
  ManualClock clock;
  RateLimiter limiter(clock, 1000 * 1000, /*burst=*/1000);  // 1 MB/s
  Micros retry{0};
  EXPECT_TRUE(limiter.TryReserve(1000, &retry));   // burst absorbs it
  EXPECT_FALSE(limiter.TryReserve(1000, &retry));  // bucket empty
  EXPECT_GT(retry.count(), 0);
  // The refusal did not debit the bucket: after the advertised wait the
  // same reservation is affordable again.
  clock.Advance(retry);
  EXPECT_TRUE(limiter.TryReserve(1000, &retry));
}

TEST(RateLimiterTest, RefillsWithTime) {
  ManualClock clock;
  RateLimiter limiter(clock, 1000 * 1000, /*burst=*/1000);
  (void)limiter.ReserveDelay(1000);
  clock.Advance(Micros(2000));  // 2ms: plenty to refill the burst
  EXPECT_EQ(limiter.ReserveDelay(1000).count(), 0);
}

}  // namespace
}  // namespace afs
