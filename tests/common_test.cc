#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <string>
#include <vector>

#include "common/aligned.h"
#include "common/rng.h"
#include "common/status.h"
#include "common/string_util.h"
#include "common/timer.h"

namespace dnlr {
namespace {

TEST(StatusTest, OkByDefault) {
  Status status;
  EXPECT_TRUE(status.ok());
  EXPECT_EQ(status.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status status = Status::ParseError("bad token");
  EXPECT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kParseError);
  EXPECT_EQ(status.ToString(), "PARSE_ERROR: bad token");
}

TEST(StatusTest, CodeNamesAreDistinct) {
  EXPECT_STREQ(StatusCodeName(StatusCode::kOk), "OK");
  EXPECT_STREQ(StatusCodeName(StatusCode::kIoError), "IO_ERROR");
  EXPECT_STREQ(StatusCodeName(StatusCode::kNotFound), "NOT_FOUND");
}

TEST(ResultTest, HoldsValue) {
  Result<int> result(42);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(*result, 42);
}

TEST(ResultTest, HoldsError) {
  Result<int> result = Status::NotFound("missing");
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kNotFound);
}

Status FailsThenPropagates() {
  DNLR_RETURN_IF_ERROR(Status::IoError("disk on fire"));
  return Status::Ok();
}

TEST(ResultTest, ReturnIfErrorMacro) {
  EXPECT_EQ(FailsThenPropagates().code(), StatusCode::kIoError);
}

TEST(RngTest, DeterministicForSameSeed) {
  Rng a(7);
  Rng b(7);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.Next(), b.Next());
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(1);
  Rng b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) same += a.Next() == b.Next();
  EXPECT_LT(same, 4);
}

TEST(RngTest, UniformInUnitInterval) {
  Rng rng(3);
  for (int i = 0; i < 1000; ++i) {
    const double u = rng.Uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(RngTest, UniformRangeRespected) {
  Rng rng(4);
  for (int i = 0; i < 1000; ++i) {
    const double u = rng.Uniform(-3.0, 5.0);
    EXPECT_GE(u, -3.0);
    EXPECT_LT(u, 5.0);
  }
}

TEST(RngTest, NormalMomentsApproximatelyStandard) {
  Rng rng(5);
  const int n = 20000;
  double sum = 0.0;
  double sq = 0.0;
  for (int i = 0; i < n; ++i) {
    const double x = rng.Normal();
    sum += x;
    sq += x * x;
  }
  const double mean = sum / n;
  const double var = sq / n - mean * mean;
  EXPECT_NEAR(mean, 0.0, 0.05);
  EXPECT_NEAR(var, 1.0, 0.05);
}

TEST(RngTest, BelowStaysBelow) {
  Rng rng(6);
  for (int i = 0; i < 1000; ++i) EXPECT_LT(rng.Below(17), 17u);
}

TEST(RngTest, BelowOneIsAlwaysZero) {
  Rng rng(9);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(rng.Below(1), 0u);
}

TEST(RngTest, BelowHandlesHugeBounds) {
  // Bounds near 2^64 exercise the multiply-shift's high word and the
  // rejection threshold; the old modulo reduction was most biased here.
  Rng rng(10);
  const uint64_t n = (uint64_t{1} << 63) + 12345;
  for (int i = 0; i < 1000; ++i) EXPECT_LT(rng.Below(n), n);
}

// Lemire's rejection sampling must be uniform: a chi-square test over 16
// bins at 64000 draws. The old `Next() % n` reduction cannot pass an
// equivalent test for n without a power-of-two structure at this sample
// size in general; for this deterministic seed the statistic must sit well
// under the df=15, p=0.001 critical value (37.7).
TEST(RngTest, BelowIsUniformChiSquare) {
  constexpr uint64_t kBins = 16;
  constexpr int kDraws = 64000;
  Rng rng(12);
  uint64_t counts[kBins] = {};
  for (int i = 0; i < kDraws; ++i) ++counts[rng.Below(kBins)];
  const double expected = static_cast<double>(kDraws) / kBins;
  double chi2 = 0.0;
  for (const uint64_t observed : counts) {
    const double diff = static_cast<double>(observed) - expected;
    chi2 += diff * diff / expected;
  }
  EXPECT_LT(chi2, 37.7) << "Below() bins deviate from uniform";
}

TEST(RngTest, ShufflePreservesElements) {
  Rng rng(8);
  std::vector<int> items{1, 2, 3, 4, 5, 6, 7};
  std::vector<int> shuffled = items;
  rng.Shuffle(shuffled);
  std::sort(shuffled.begin(), shuffled.end());
  EXPECT_EQ(shuffled, items);
}

TEST(AlignedBufferTest, AlignmentAndZeroInit) {
  AlignedBuffer buffer(100);
  EXPECT_EQ(reinterpret_cast<uintptr_t>(buffer.data()) % kSimdAlignment, 0u);
  for (size_t i = 0; i < 100; ++i) EXPECT_FLOAT_EQ(buffer[i], 0.0f);
}

TEST(AlignedBufferTest, CopyAndMove) {
  AlignedBuffer buffer(8);
  buffer[3] = 42.0f;
  AlignedBuffer copy = buffer;
  EXPECT_FLOAT_EQ(copy[3], 42.0f);
  AlignedBuffer moved = std::move(buffer);
  EXPECT_FLOAT_EQ(moved[3], 42.0f);
  EXPECT_TRUE(buffer.empty());  // NOLINT(bugprone-use-after-move)
}

TEST(StringUtilTest, SplitSkipsEmptyPieces) {
  const auto pieces = SplitAndSkipEmpty("a  b   c", ' ');
  ASSERT_EQ(pieces.size(), 3u);
  EXPECT_EQ(pieces[0], "a");
  EXPECT_EQ(pieces[2], "c");
}

TEST(StringUtilTest, StripWhitespace) {
  EXPECT_EQ(StripWhitespace("  hello\t\n "), "hello");
  EXPECT_EQ(StripWhitespace(""), "");
  EXPECT_EQ(StripWhitespace("   "), "");
}

TEST(StringUtilTest, ParseUint32) {
  uint32_t value = 0;
  EXPECT_TRUE(ParseUint32("123", &value));
  EXPECT_EQ(value, 123u);
  EXPECT_FALSE(ParseUint32("12x", &value));
  EXPECT_FALSE(ParseUint32("", &value));
  EXPECT_FALSE(ParseUint32("-1", &value));
}

TEST(StringUtilTest, ParseFloat) {
  float value = 0.0f;
  EXPECT_TRUE(ParseFloat("3.5", &value));
  EXPECT_FLOAT_EQ(value, 3.5f);
  EXPECT_TRUE(ParseFloat("-1e-3", &value));
  EXPECT_FLOAT_EQ(value, -1e-3f);
  EXPECT_FALSE(ParseFloat("abc", &value));
  EXPECT_FALSE(ParseFloat("1.0junk", &value));
}

TEST(StringUtilTest, FormatFixed) {
  EXPECT_EQ(FormatFixed(3.14159, 2), "3.14");
  EXPECT_EQ(FormatFixed(2.0, 1), "2.0");
}

TEST(TimerTest, MeasuresElapsedTime) {
  Timer timer;
  // Plain accumulator + volatile store: compound assignment on a volatile
  // lvalue is deprecated in C++20.
  double acc = 0.0;
  for (int i = 0; i < 100000; ++i) acc += std::sqrt(static_cast<double>(i));
  volatile double sink = acc;
  EXPECT_GT(timer.ElapsedMicros(), 0.0);
  EXPECT_GT(sink, 0.0);
}

TEST(TimerTest, TimeMicrosRunsFunction) {
  int calls = 0;
  const double us = TimeMicros([&] { ++calls; }, 3);
  EXPECT_GE(us, 0.0);
  EXPECT_EQ(calls, 4);  // warm-up + 3 repeats
}

TEST(TimerTest, MedianInPlaceSelectsOrderStatistics) {
  std::vector<double> odd{5.0, 1.0, 3.0};
  EXPECT_EQ(MedianInPlace(&odd), 3.0);
  std::vector<double> even{4.0, 1.0, 3.0, 2.0};
  EXPECT_EQ(MedianInPlace(&even), 2.5);
  std::vector<double> single{7.0};
  EXPECT_EQ(MedianInPlace(&single), 7.0);
  std::vector<double> empty;
  EXPECT_EQ(MedianInPlace(&empty), 0.0);
  std::vector<double> duplicates{2.0, 2.0, 9.0, 2.0};
  EXPECT_EQ(MedianInPlace(&duplicates), 2.0);
  std::vector<double> two{10.0, 20.0};
  EXPECT_EQ(MedianInPlace(&two), 15.0);
}

// TimeMicros documents median-of-repeats: one deterministic spike among the
// repeats must not drag the result toward the spike the way a mean (the old
// sum/repeats bug) would. The fake workload spins ~200 us on four calls and
// ~20 ms on exactly one, so the mean would exceed ~4 ms while the median
// stays near 200 us.
TEST(TimerTest, TimeMicrosReturnsMedianNotMean) {
  constexpr double kFastMicros = 200.0;
  constexpr double kSpikeMicros = 20000.0;
  int call = 0;
  const auto spin_for = [](double micros) {
    Timer timer;
    while (timer.ElapsedMicros() < micros) {
    }
  };
  const double us = TimeMicros(
      [&] {
        ++call;
        // Call 1 is the discarded warm-up; call 4 (third repeat) spikes.
        spin_for(call == 4 ? kSpikeMicros : kFastMicros);
      },
      5);
  EXPECT_GE(us, kFastMicros);
  EXPECT_LT(us, kSpikeMicros / 4.0);
}

TEST(TimerTest, QuantileSortedInterpolatesOrderStatistics) {
  const std::vector<double> five{1.0, 2.0, 4.0, 8.0, 16.0};
  EXPECT_EQ(QuantileSorted(five, 0.0), 1.0);
  EXPECT_EQ(QuantileSorted(five, 0.25), 2.0);
  EXPECT_EQ(QuantileSorted(five, 0.5), 4.0);
  EXPECT_EQ(QuantileSorted(five, 0.75), 8.0);
  EXPECT_EQ(QuantileSorted(five, 1.0), 16.0);
  // Four samples: positions 0.75, 1.5 and 2.25 fall between statistics.
  const std::vector<double> four{1.0, 2.0, 3.0, 5.0};
  EXPECT_DOUBLE_EQ(QuantileSorted(four, 0.25), 1.75);
  EXPECT_DOUBLE_EQ(QuantileSorted(four, 0.5), 2.5);
  EXPECT_DOUBLE_EQ(QuantileSorted(four, 0.75), 3.5);
  EXPECT_EQ(QuantileSorted({7.0}, 0.25), 7.0);
  EXPECT_EQ(QuantileSorted({}, 0.5), 0.0);
}

// Odd pair count: ratios a/b = {2, 0.5, 4, 1, 3} sort to {0.5, 1, 2, 3, 4}.
// The side medians come from each side's own samples, not from the pair
// with the median ratio.
TEST(TimerTest, SummarizePairsOddCount) {
  const PairedTiming t = SummarizePairs({20.0, 5.0, 40.0, 10.0, 30.0},
                                        {10.0, 10.0, 10.0, 10.0, 10.0});
  EXPECT_EQ(t.pairs, 5);
  EXPECT_EQ(t.ratio, 2.0);
  EXPECT_EQ(t.ratio_q1, 1.0);
  EXPECT_EQ(t.ratio_q3, 3.0);
  EXPECT_EQ(t.a_micros, 20.0);
  EXPECT_EQ(t.b_micros, 10.0);
}

// Even pair count: ratios {1, 2, 4, 8}; the median is the mean of the two
// central ratios, the quartiles interpolate at positions 0.75 and 2.25.
TEST(TimerTest, SummarizePairsEvenCount) {
  const PairedTiming t =
      SummarizePairs({8.0, 4.0, 8.0, 2.0}, {1.0, 2.0, 2.0, 2.0});
  EXPECT_EQ(t.pairs, 4);
  EXPECT_DOUBLE_EQ(t.ratio, 3.0);
  EXPECT_DOUBLE_EQ(t.ratio_q1, 1.75);
  EXPECT_DOUBLE_EQ(t.ratio_q3, 5.0);
  EXPECT_DOUBLE_EQ(t.a_micros, 6.0);
  EXPECT_DOUBLE_EQ(t.b_micros, 2.0);
}

TEST(TimerTest, SummarizePairsEdgeCases) {
  const PairedTiming one = SummarizePairs({3.0}, {2.0});
  EXPECT_EQ(one.pairs, 1);
  EXPECT_EQ(one.ratio, 1.5);
  EXPECT_EQ(one.ratio_q1, 1.5);
  EXPECT_EQ(one.ratio_q3, 1.5);
  // A zero B time yields ratio 0, never infinity.
  EXPECT_EQ(SummarizePairs({3.0}, {0.0}).ratio, 0.0);
  EXPECT_EQ(SummarizePairs({}, {}).pairs, 0);
  EXPECT_EQ(SummarizePairs({}, {}).ratio, 0.0);
}

// Each pair runs both sides through TimeMicros (a warm-up call, then the
// timed one), A first on even pairs and B first on odd ones.
TEST(TimerTest, TimePairedMicrosAlternatesWhichSideGoesFirst) {
  std::string order;
  const PairedTiming t = TimePairedMicros([&] { order += 'a'; },
                                          [&] { order += 'b'; }, 3);
  EXPECT_EQ(order, "aabb" "bbaa" "aabb");
  EXPECT_EQ(t.pairs, 3);
  EXPECT_GE(t.a_micros, 0.0);
  EXPECT_GE(t.b_micros, 0.0);
  order.clear();
  EXPECT_EQ(TimePairedMicros([&] { order += 'a'; }, [&] { order += 'b'; }, 0)
                .pairs,
            1);
  EXPECT_EQ(order, "aabb");
}

}  // namespace
}  // namespace dnlr
