#include "framework/dual_shard.hpp"

#include <algorithm>

namespace treesched {

int DualShard::index_of(EdgeId e) const {
  const auto it = std::lower_bound(edges_.begin(), edges_.end(), e);
  if (it == edges_.end() || *it != e) return -1;
  return static_cast<int>(it - edges_.begin());
}

double DualShard::beta(EdgeId e) const {
  const int idx = index_of(e);
  return idx < 0 ? 0.0 : beta_[static_cast<std::size_t>(idx)];
}

void DualShard::raise_alpha(double amount) {
  TS_DCHECK(amount >= 0.0);
  alpha_ += amount;
}

bool DualShard::raise_beta(EdgeId e, double amount) {
  const int idx = index_of(e);
  if (idx < 0) return false;
  TS_DCHECK(amount >= 0.0);
  beta_[static_cast<std::size_t>(idx)] += amount;
  return true;
}

void DualShard::apply_raise(std::span<const double> payload) {
  TS_REQUIRE(payload.size() >= 2 && payload.size() % 2 == 0);
  if (static_cast<DemandId>(payload[0]) == demand_) raise_alpha(payload[1]);
  for (std::size_t f = 2; f + 1 < payload.size(); f += 2)
    raise_beta(static_cast<EdgeId>(payload[f]), payload[f + 1]);
}

std::vector<double> encode_raise(DemandId demand, double alpha_increment,
                                 std::span<const EdgeId> critical,
                                 std::span<const double> increments) {
  TS_REQUIRE(critical.size() == increments.size());
  std::vector<double> payload;
  payload.reserve(2 + 2 * critical.size());
  payload.push_back(static_cast<double>(demand));
  payload.push_back(alpha_increment);
  for (std::size_t c = 0; c < critical.size(); ++c) {
    payload.push_back(static_cast<double>(critical[c]));
    payload.push_back(increments[c]);
  }
  return payload;
}

}  // namespace treesched
