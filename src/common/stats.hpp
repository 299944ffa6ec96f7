// Running statistics (Welford) and small summary helpers used by the
// benchmark harness to aggregate per-seed measurements into table rows.
#pragma once

#include <algorithm>
#include <cstddef>
#include <string>
#include <vector>

namespace treesched {

// Online mean/variance/min/max accumulator.
class RunningStats {
 public:
  void add(double x);

  std::size_t count() const { return n_; }
  double mean() const { return n_ ? mean_ : 0.0; }
  double variance() const;  // sample variance (n-1 denominator)
  double min() const { return n_ ? min_ : 0.0; }
  double max() const { return n_ ? max_ : 0.0; }
  double sum() const { return sum_; }

  // Merge another accumulator (parallel reduction support).
  void merge(const RunningStats& other);

 private:
  std::size_t n_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
  double sum_ = 0.0;
};

// Exact quantile over a stored sample (used for p50/p95 round counts).
class Sample {
 public:
  void add(double x) { xs_.push_back(x); }
  std::size_t count() const { return xs_.size(); }
  double quantile(double q) const;
  double mean() const;
  double max() const;
  double min() const;

 private:
  mutable std::vector<double> xs_;
  mutable bool sorted_ = false;
  void ensure_sorted() const;
};

// Least-squares slope of y against x — used to verify scaling laws
// (e.g. rounds vs log n should be near-linear).
double regression_slope(const std::vector<double>& x,
                        const std::vector<double>& y);

// Pearson correlation, for the same scaling-law checks.
double correlation(const std::vector<double>& x, const std::vector<double>& y);

// Format a double with fixed precision (benchmark tables).
std::string fmt(double v, int precision = 3);

}  // namespace treesched
