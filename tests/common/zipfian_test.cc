#include "common/zipfian.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

#include "common/histogram.h"
#include "common/rng.h"
#include "testutil/testutil.h"

namespace thunderbolt {
namespace {

using ZipfianTest = testutil::SeededTest;
using RngTest = testutil::SeededTest;

TEST_F(ZipfianTest, ValuesInRange) {
  ZipfianGenerator zipf(100, 0.85);
  for (int i = 0; i < 10000; ++i) {
    EXPECT_LT(zipf.Next(rng_), 100u);
  }
}

TEST_F(ZipfianTest, SkewConcentratesOnHotKeys) {
  ZipfianGenerator zipf(1000, 0.85);
  std::vector<uint64_t> counts(1000, 0);
  const int kSamples = 100000;
  for (int i = 0; i < kSamples; ++i) ++counts[zipf.Next(rng_)];
  // Rank 0 must be the hottest and carry a few percent of all draws.
  uint64_t max_count = *std::max_element(counts.begin(), counts.end());
  EXPECT_EQ(counts[0], max_count);
  EXPECT_GT(counts[0], kSamples / 50);  // > 2%.
  // The top 10% of keys should receive the majority of accesses.
  uint64_t head = 0;
  for (int i = 0; i < 100; ++i) head += counts[i];
  EXPECT_GT(head, static_cast<uint64_t>(kSamples) / 2);
}

TEST_F(ZipfianTest, ThetaZeroIsRoughlyUniform) {
  ZipfianGenerator zipf(10, 0.0);
  std::vector<uint64_t> counts(10, 0);
  const int kSamples = 100000;
  for (int i = 0; i < kSamples; ++i) ++counts[zipf.Next(rng_)];
  for (uint64_t c : counts) {
    EXPECT_NEAR(static_cast<double>(c), kSamples / 10.0, kSamples * 0.02);
  }
}

TEST_F(ZipfianTest, HigherThetaMoreSkew) {
  // Identical streams so the two generators see the same draws.
  Rng rng1 = MakeRng(4), rng2 = MakeRng(4);
  ZipfianGenerator low(1000, 0.5), high(1000, 0.95);
  uint64_t low_head = 0, high_head = 0;
  for (int i = 0; i < 50000; ++i) {
    if (low.Next(rng1) == 0) ++low_head;
    if (high.Next(rng2) == 0) ++high_head;
  }
  EXPECT_GT(high_head, low_head * 2);
}

TEST_F(RngTest, DeterministicAcrossSeeds) {
  Rng a = MakeRng(99), b = MakeRng(99), c = MakeRng(100);
  EXPECT_EQ(a.Next(), b.Next());
  EXPECT_NE(a.Next(), c.Next());
}

TEST_F(RngTest, BoundedAndRange) {
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(rng_.NextBounded(7), 7u);
    uint64_t v = rng_.NextRange(10, 20);
    EXPECT_GE(v, 10u);
    EXPECT_LE(v, 20u);
  }
}

TEST_F(RngTest, NextDoubleInUnitInterval) {
  double sum = 0;
  for (int i = 0; i < 10000; ++i) {
    double d = rng_.NextDouble();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
    sum += d;
  }
  EXPECT_NEAR(sum / 10000, 0.5, 0.02);
}

TEST_F(RngTest, ExponentialMean) {
  double sum = 0;
  for (int i = 0; i < 20000; ++i) sum += rng_.NextExponential(100.0);
  EXPECT_NEAR(sum / 20000, 100.0, 5.0);
}

TEST(HistogramTest, Percentiles) {
  Histogram h;
  for (int i = 1; i <= 100; ++i) h.Add(i);
  EXPECT_EQ(h.Count(), 100u);
  EXPECT_DOUBLE_EQ(h.Mean(), 50.5);
  EXPECT_NEAR(h.Median(), 50.5, 0.6);
  EXPECT_NEAR(h.Percentile(99), 99.01, 0.1);
  EXPECT_EQ(h.Min(), 1);
  EXPECT_EQ(h.Max(), 100);
}

// The percentile a fully sorted copy gives: linear interpolation between
// the two nearest ranks (the definition Histogram::Percentile implements by
// selection).
double SortedPercentile(const std::vector<double>& sorted, double p) {
  if (p <= 0) return sorted.front();
  if (p >= 100) return sorted.back();
  const double rank = p / 100.0 * static_cast<double>(sorted.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(rank));
  const size_t hi = static_cast<size_t>(std::ceil(rank));
  const double frac = rank - static_cast<double>(lo);
  return sorted[lo] * (1.0 - frac) + sorted[hi] * frac;
}

void ExpectMatchesSortedReference(const Histogram& h) {
  std::vector<double> sorted = h.samples();
  std::sort(sorted.begin(), sorted.end());
  for (double p : {0.0, 0.1, 1.0, 37.5, 50.0, 99.0, 99.9, 100.0}) {
    EXPECT_EQ(h.Percentile(p), SortedPercentile(sorted, p)) << "p" << p;
  }
  EXPECT_EQ(h.Median(), SortedPercentile(sorted, 50.0));
  EXPECT_EQ(h.Min(), sorted.front());
  EXPECT_EQ(h.Max(), sorted.back());
}

// Shuffled input with ties: selection must return exactly the doubles a
// full sort returns, also after Merge, and Clear must empty the histogram.
TEST(HistogramTest, SelectionMatchesSortedReference) {
  Rng rng(20261018);
  Histogram a, b;
  for (int i = 0; i < 1001; ++i) {
    // Half the samples repeat from a small integer range.
    const double v = i % 2 == 0 ? rng.NextDouble() * 1e4
                                : static_cast<double>(rng.NextBounded(50));
    a.Add(v);
  }
  for (int i = 0; i < 333; ++i) b.Add(rng.NextDouble() * 2e4 - 5e3);
  const std::vector<double> insertion_order = a.samples();
  ExpectMatchesSortedReference(a);
  ExpectMatchesSortedReference(b);
  EXPECT_EQ(a.samples(), insertion_order);  // Queries never reorder.

  a.Merge(b);
  ASSERT_EQ(a.Count(), 1334u);
  ExpectMatchesSortedReference(a);

  a.Clear();
  EXPECT_EQ(a.Count(), 0u);
  EXPECT_EQ(a.Sum(), 0.0);
  EXPECT_EQ(a.Percentile(50), 0.0);
  EXPECT_EQ(a.Min(), 0.0);
  EXPECT_EQ(a.Max(), 0.0);
  a.Add(3.0);
  ExpectMatchesSortedReference(a);
}

TEST(HistogramTest, EmptyIsZero) {
  Histogram h;
  EXPECT_EQ(h.Mean(), 0.0);
  EXPECT_EQ(h.Percentile(50), 0.0);
}

}  // namespace
}  // namespace thunderbolt
