// Per-processor shard of the dual state (the distributed counterpart of
// framework/dual_state.hpp).
//
// In the message-level protocol no processor holds the global alpha/beta
// vectors.  Instance d's processor stores exactly the variables its own
// dual constraint reads: alpha(a_d) and beta(e) for every e on path(d).
// A raise is applied locally and shipped to the conflicting neighbors as
// a kTagRaise message (encode_raise below); a receiving shard applies the
// alpha increment when the demand matches and each beta increment whose
// edge lies on its own path.
//
// Completeness of the propagation: a raise of instance j touches
// alpha(a_j) and beta(e) for e in pi(j) subset path(j).  Any instance i
// whose constraint reads one of those variables either shares j's demand
// or shares an edge with path(j) — i.e. i conflicts with j and is, by
// discovery (dist/discovery.hpp), one of j's neighbors.  Hence every
// shard's local LHS equals the LHS the central DualState would report,
// one propagation round after the raise.  tests/test_discovery.cpp
// asserts this parity against a central replay.
#pragma once

#include <span>
#include <vector>

#include "common/prelude.hpp"
#include "model/problem.hpp"

namespace treesched {

class DualShard {
 public:
  DualShard() = default;
  // `path`: the instance's ascending global edge ids (Problem::path).
  DualShard(DemandId demand, IdRuns path)
      : demand_(demand),
        edges_(path.begin(), path.end()),
        beta_(edges_.size(), 0.0) {}

  DemandId demand() const { return demand_; }
  double alpha() const { return alpha_; }
  double beta(EdgeId e) const;  // 0 when e is off the local path

  // The beta sum over the local path, accumulated in ascending-edge
  // order: exactly the chain dual_lhs (framework/dual_state.hpp) adds
  // over the same path.  (A running sum would add increments in *arrival* order, the
  // same real number but not always the same double.)  So the protocol's
  // satisfaction tests and raise amounts are bit-identical to the
  // modeled engine's — the parity suite (tests/test_protocol_parity.cpp)
  // compares them with ==, not tolerances.
  double beta_sum() const {
    double s = 0.0;
    for (double b : beta_) s += b;
    return s;
  }
  // LHS of the local dual constraint under the rule's beta coefficient.
  double lhs(double beta_coeff) const {
    return alpha_ + beta_coeff * beta_sum();
  }

  void raise_alpha(double amount);
  // Applies the increment when e is on the local path; returns whether it
  // was.  (Remote raises legitimately carry edges this shard ignores.)
  bool raise_beta(EdgeId e, double amount);

  // Applies a neighbor's raise notification (encode_raise wire format).
  void apply_raise(std::span<const double> payload);

 private:
  int index_of(EdgeId e) const;

  DemandId demand_ = -1;
  std::vector<EdgeId> edges_;  // sorted ascending
  std::vector<double> beta_;   // parallel to edges_
  double alpha_ = 0.0;
};

// Wire format of a kTagRaise payload:
//   {demand, alpha_increment, e_1, beta_inc_1, ..., e_k, beta_inc_k}
// with one (edge, increment) pair per critical edge of the raise.
std::vector<double> encode_raise(DemandId demand, double alpha_increment,
                                 std::span<const EdgeId> critical,
                                 std::span<const double> increments);

}  // namespace treesched
