// The benches' paired comparison (bench/bench_common.hpp) on synthetic
// samples: ABBA order, and the median and sign-test interval of the ratios.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "bench_common.hpp"

namespace atalib::bench {
namespace {

static_assert(kPairs >= 6, "a sign-test interval needs at least 6 pairs");

TEST(PairedComparison, RunsPairsInAbbaOrder) {
  std::string order;
  const Paired p = paired([&] { order += 'A'; return 1.0; },
                          [&] { order += 'B'; return 1.0; });
  ASSERT_EQ(order.size(), 2u * kPairs);
  EXPECT_EQ(order.substr(0, 2), "AB");  // pair 0 runs A first
  EXPECT_EQ(order.substr(2, 2), "BA");  // pair 1 runs B first
  std::string abba;
  for (int i = 0; i < kPairs; ++i) abba += i % 2 == 0 ? "AB" : "BA";
  EXPECT_EQ(order, abba);
  EXPECT_EQ(p.ratios.size(), static_cast<std::size_t>(kPairs));
}

TEST(PairedComparison, MedianAndIntervalAreOrderStatistics) {
  ASSERT_EQ(kPairs, 10) << "the hand-computed order statistics below assume 10 pairs";
  // Pair i: A takes 1 or 2 s, B takes that times r[i], so ratio i = r[i].
  const std::vector<double> r{1.3, 0.9, 1.1, 1.6, 0.7, 1.0, 1.2, 0.8, 1.5, 1.4};
  int a_calls = 0, b_calls = 0;
  const Paired p = paired([&] { return a_calls++ % 2 == 0 ? 1.0 : 2.0; },
                          [&] {
                            const int i = b_calls++;
                            return (i % 2 == 0 ? 1.0 : 2.0) * r[static_cast<std::size_t>(i)];
                          });
  ASSERT_EQ(p.ratios.size(), r.size());
  for (std::size_t i = 0; i < r.size(); ++i) EXPECT_DOUBLE_EQ(p.ratios[i], r[i]) << i;
  // Sorted: 0.7 0.8 0.9 1.0 1.1 1.2 1.3 1.4 1.5 1.6. The median averages the
  // 5th and 6th; the interval runs from the 3rd smallest to the 3rd largest.
  EXPECT_DOUBLE_EQ(p.median, 1.15);
  EXPECT_DOUBLE_EQ(p.lo, 0.9);
  EXPECT_DOUBLE_EQ(p.hi, 1.4);
  EXPECT_DOUBLE_EQ(p.a, 1.5);
}

TEST(PairedComparison, ConstantRatioHasZeroWidthInterval) {
  int a_calls = 0, b_calls = 0;
  const Paired p = paired([&] { return 1.0 + a_calls++; },
                          [&] { return 1.5 * (1.0 + b_calls++); });
  for (double ratio : p.ratios) EXPECT_DOUBLE_EQ(ratio, 1.5);
  EXPECT_EQ(p.lo, p.hi);
  EXPECT_DOUBLE_EQ(p.median, 1.5);
  EXPECT_DOUBLE_EQ(p.lo, 1.5);
}

}  // namespace
}  // namespace atalib::bench
