#include "common/stats.hpp"

#include <cmath>
#include <cstdio>

#include "common/prelude.hpp"

namespace treesched {

void RunningStats::add(double x) {
  if (n_ == 0) {
    min_ = max_ = x;
  } else {
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
  }
  ++n_;
  sum_ += x;
  const double delta = x - mean_;
  mean_ += delta / static_cast<double>(n_);
  m2_ += delta * (x - mean_);
}

double RunningStats::variance() const {
  return n_ > 1 ? m2_ / static_cast<double>(n_ - 1) : 0.0;
}

void RunningStats::merge(const RunningStats& other) {
  if (other.n_ == 0) return;
  if (n_ == 0) {
    *this = other;
    return;
  }
  const double delta = other.mean_ - mean_;
  const auto n1 = static_cast<double>(n_);
  const auto n2 = static_cast<double>(other.n_);
  const double n = n1 + n2;
  m2_ += other.m2_ + delta * delta * n1 * n2 / n;
  mean_ = (n1 * mean_ + n2 * other.mean_) / n;
  min_ = std::min(min_, other.min_);
  max_ = std::max(max_, other.max_);
  sum_ += other.sum_;
  n_ = n_ + other.n_;
}

void Sample::ensure_sorted() const {
  if (!sorted_) {
    std::sort(xs_.begin(), xs_.end());
    sorted_ = true;
  }
}

double Sample::quantile(double q) const {
  TS_REQUIRE(!xs_.empty());
  TS_REQUIRE(q >= 0.0 && q <= 1.0);
  ensure_sorted();
  const double pos = q * static_cast<double>(xs_.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const auto hi = std::min(lo + 1, xs_.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return xs_[lo] * (1.0 - frac) + xs_[hi] * frac;
}

double Sample::mean() const {
  if (xs_.empty()) return 0.0;
  double s = 0.0;
  for (double x : xs_) s += x;
  return s / static_cast<double>(xs_.size());
}

double Sample::max() const {
  TS_REQUIRE(!xs_.empty());
  ensure_sorted();
  return xs_.back();
}

double Sample::min() const {
  TS_REQUIRE(!xs_.empty());
  ensure_sorted();
  return xs_.front();
}

double regression_slope(const std::vector<double>& x,
                        const std::vector<double>& y) {
  TS_REQUIRE(x.size() == y.size());
  const auto n = static_cast<double>(x.size());
  if (x.size() < 2) return 0.0;
  double sx = 0, sy = 0, sxx = 0, sxy = 0;
  for (std::size_t i = 0; i < x.size(); ++i) {
    sx += x[i];
    sy += y[i];
    sxx += x[i] * x[i];
    sxy += x[i] * y[i];
  }
  const double denom = n * sxx - sx * sx;
  if (std::abs(denom) < 1e-12) return 0.0;
  return (n * sxy - sx * sy) / denom;
}

double correlation(const std::vector<double>& x,
                   const std::vector<double>& y) {
  TS_REQUIRE(x.size() == y.size());
  if (x.size() < 2) return 0.0;
  const auto n = static_cast<double>(x.size());
  double sx = 0, sy = 0;
  for (std::size_t i = 0; i < x.size(); ++i) {
    sx += x[i];
    sy += y[i];
  }
  const double mx = sx / n, my = sy / n;
  double num = 0, dx = 0, dy = 0;
  for (std::size_t i = 0; i < x.size(); ++i) {
    num += (x[i] - mx) * (y[i] - my);
    dx += (x[i] - mx) * (x[i] - mx);
    dy += (y[i] - my) * (y[i] - my);
  }
  if (dx < 1e-12 || dy < 1e-12) return 0.0;
  return num / std::sqrt(dx * dy);
}

std::string fmt(double v, int precision) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*f", precision, v);
  return std::string(buf);
}

}  // namespace treesched
