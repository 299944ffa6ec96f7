// Raising rules of the two-phase framework.
//
// kUnit (paper, Section 3.2) — used for the unit-height case and for the
// *wide* instances of the arbitrary-height case (two overlapping wide
// instances can never coexist, so the unit LP relaxes the wide problem):
//     delta = slack / (1 + sum_{e in pi(d)} 1/c(e))
//     alpha(a_d) += delta;   beta(e) += delta / c(e)   for e in pi(d).
// With uniform c == 1 this is exactly delta = slack/(|pi|+1), beta += delta.
//
// kNarrow (paper, Section 6.1) — for instances with h(d) <= 1/2:
//     delta = slack / (1 + 2 h(d) |pi(d)| sum_{e in pi(d)} 1/c(e))
//     alpha(a_d) += delta;   beta(e) += 2 |pi(d)| delta / c(e).
// With uniform c == 1: delta = slack/(1 + 2 h |pi|^2), beta += 2|pi|delta.
//
// Both rules satisfy the constraint of d tightly (LHS rises by exactly
// `slack`), and both raise the dual objective by at most price_factor *
// delta: Delta+1 for kUnit, 1+2 Delta^2 for kNarrow — the quantities in
// Lemma 3.1 and Lemma 6.1, which proven_ratio_bound
// (framework/certify.hpp) turns into every reported approximation bound.
// The capacity-aware forms are the DESIGN.md Section 6 generalization and
// reduce to the paper's rules when c == 1.
#pragma once

#include <span>
#include <vector>

#include "common/prelude.hpp"
#include "model/problem.hpp"

namespace treesched {

enum class RaiseRuleKind { kUnit, kNarrow };

const char* to_string(RaiseRuleKind kind);

class RaiseRule {
 public:
  // `raise_alpha = false` implements the Appendix-A single-network
  // refinement (alpha is never raised; the price factor drops by 1,
  // giving the 2-approximation for one tree).  It is only sound when no
  // demand has two instances.  `capacity_aware = false` applies the
  // paper's uniform-capacity increments verbatim even on non-uniform
  // edges — the "naive" arm of the bench_t5 ablation.
  RaiseRule(RaiseRuleKind kind, const Problem& problem,
            bool raise_alpha = true, bool capacity_aware = true)
      : kind_(kind),
        problem_(&problem),
        raise_alpha_(raise_alpha),
        capacity_aware_(capacity_aware) {}

  RaiseRuleKind kind() const { return kind_; }

  // Coefficient of the beta-sum in the dual constraint LHS: 1 for the
  // unit LP, h(d) for the height LP.
  double beta_coeff(const DemandInstance& inst) const {
    return kind_ == RaiseRuleKind::kUnit ? 1.0 : inst.height;
  }

  // The tight raise amount for the given slack and critical set.
  double delta(const DemandInstance& inst, std::span<const EdgeId> critical,
               double slack) const;

  // beta increment applied to critical edge e when raising by delta.
  double beta_increment(const DemandInstance& inst,
                        std::span<const EdgeId> critical, double delta,
                        EdgeId e) const;

  // Upper bound on (dual objective increase) / delta for critical sets of
  // size at most `delta_size` — the numerator of the approximation
  // guarantee price_factor / lambda (see proven_ratio_bound).
  double price_factor(int delta_size) const;

  // Computes one tight raise in a single call: the raise amount for the
  // given slack and the per-critical-edge beta increments (written to
  // `increments`, resized to critical.size()).  This is the one place the
  // raise arithmetic lives — the modeled engine (central and incremental
  // paths alike) and the message-level protocol all call it, so the three
  // implementations cannot drift apart numerically.
  double tight_raise(const DemandInstance& inst,
                     std::span<const EdgeId> critical, double slack,
                     std::vector<double>& increments) const;

  // The increments-only form, for replaying a raise whose amount is
  // already known (the certificate check): identical arithmetic and
  // order as tight_raise, which delegates here.
  void beta_increments(const DemandInstance& inst,
                       std::span<const EdgeId> critical, double delta,
                       std::vector<double>& increments) const;

  // The per-stage decay base xi of the multi-stage schedule (Section 5 /
  // Section 6): 2(Delta+1)/(2(Delta+1)+1) for kUnit (14/15 when Delta=6,
  // 8/9 when Delta=3) and C/(C+h_min) with C = 1+2 Delta^2 for kNarrow.
  // Consumed through derive_stage_params (two_phase.hpp), the one
  // schedule derivation shared by the modeled engine and the
  // message-level protocol — like tight_raise below, a single source so
  // the implementations cannot drift.
  static double default_xi(RaiseRuleKind kind, int delta_size, double h_min);

 private:
  double effective_capacity(EdgeId e) const {
    return capacity_aware_ ? problem_->capacity(e) : 1.0;
  }

  RaiseRuleKind kind_;
  const Problem* problem_;
  bool raise_alpha_;
  bool capacity_aware_;
};

}  // namespace treesched
