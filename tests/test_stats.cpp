#include "common/stats.hpp"

#include <gtest/gtest.h>

#include <sstream>

#include "common/table.hpp"

namespace treesched {
namespace {

TEST(RunningStats, MeanVarianceMinMax) {
  RunningStats s;
  for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(x);
  EXPECT_EQ(s.count(), 8u);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_NEAR(s.variance(), 32.0 / 7.0, 1e-12);
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
  EXPECT_DOUBLE_EQ(s.sum(), 40.0);
}

TEST(RunningStats, EmptyIsZero) {
  RunningStats s;
  EXPECT_EQ(s.count(), 0u);
  EXPECT_EQ(s.mean(), 0.0);
  EXPECT_EQ(s.variance(), 0.0);
}

TEST(RunningStats, MergeMatchesSequential) {
  RunningStats all, left, right;
  for (int i = 0; i < 100; ++i) {
    const double x = 0.37 * i * i - 3.0 * i;
    all.add(x);
    (i < 40 ? left : right).add(x);
  }
  left.merge(right);
  EXPECT_EQ(left.count(), all.count());
  EXPECT_NEAR(left.mean(), all.mean(), 1e-9);
  EXPECT_NEAR(left.variance(), all.variance(), 1e-6);
  EXPECT_DOUBLE_EQ(left.min(), all.min());
  EXPECT_DOUBLE_EQ(left.max(), all.max());
}

TEST(Sample, Quantiles) {
  Sample s;
  for (int i = 1; i <= 100; ++i) s.add(static_cast<double>(i));
  EXPECT_DOUBLE_EQ(s.quantile(0.0), 1.0);
  EXPECT_DOUBLE_EQ(s.quantile(1.0), 100.0);
  EXPECT_NEAR(s.quantile(0.5), 50.5, 1e-9);
  EXPECT_NEAR(s.mean(), 50.5, 1e-9);
}

TEST(Regression, ExactLine) {
  std::vector<double> x, y;
  for (int i = 0; i < 20; ++i) {
    x.push_back(i);
    y.push_back(3.0 * i + 7.0);
  }
  EXPECT_NEAR(regression_slope(x, y), 3.0, 1e-9);
  EXPECT_NEAR(correlation(x, y), 1.0, 1e-9);
}

TEST(Regression, DegenerateInputs) {
  EXPECT_EQ(regression_slope({1.0}, {2.0}), 0.0);
  EXPECT_EQ(correlation({1.0, 1.0}, {2.0, 3.0}), 0.0);
}

TEST(Fmt, Precision) {
  EXPECT_EQ(fmt(3.14159, 2), "3.14");
  EXPECT_EQ(fmt(2.0, 0), "2");
}

TEST(Table, PrintsAlignedRows) {
  Table t("demo");
  t.set_header({"name", "value"});
  t.add_row({"alpha", "1"});
  t.add_row({"b", "22"});
  std::ostringstream os;
  t.print(os);
  const std::string out = os.str();
  EXPECT_NE(out.find("demo"), std::string::npos);
  EXPECT_NE(out.find("alpha"), std::string::npos);
  EXPECT_NE(out.find("22"), std::string::npos);
  EXPECT_EQ(t.rows(), 2u);
}

TEST(Stopwatch, MeasuresNonNegativeTime) {
  Stopwatch sw;
  double sink = 0;
  for (int i = 0; i < 10000; ++i) sink += i;
  EXPECT_GE(sw.elapsed_s(), 0.0);
  EXPECT_GT(sink, 0.0);
}

}  // namespace
}  // namespace treesched
