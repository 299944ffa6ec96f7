// Capacity profiles for the non-uniform bandwidth extension (DESIGN.md,
// Section 6; the IPDPS 2013 setting).  Capacities are assigned per edge
// *before* Problem::finalize(); the helpers below also compute the
// quantities the reconstruction's guarantee depends on: the no-bottleneck
// assumption (NBA) and the per-path capacity spread rho.
#pragma once

#include "common/rng.hpp"
#include "model/problem.hpp"

namespace treesched {

enum class CapacityLaw {
  kUniform,       // every edge = base
  kTwoClass,      // base or base*spread, fair coin per edge
  kPowerClasses,  // base * 2^k, k uniform in [0, log2(spread)]
  kHotspot,       // base*spread everywhere, ~10% backbone edges at base
};

const char* to_string(CapacityLaw law);

// Assigns capacities to every edge of every network.  Must be called
// before finalize().  `spread` >= 1 is the max/min capacity ratio.
void apply_capacity_law(Problem& problem, CapacityLaw law, Capacity base,
                        double spread, Rng& rng);

// No-bottleneck assumption: max demand height <= min edge capacity.
bool satisfies_nba(const Problem& problem);

// Strong NBA of the all-narrow regime: h(d) <= c(e)/2 for every instance
// d and every edge e on its path (DESIGN.md Sec. 6: under this condition
// the narrow-rule analysis applies to every instance).
bool all_instances_narrow(const Problem& problem);

// Smallest capacity along the instance's path (its bottleneck).
Capacity bottleneck_capacity(const Problem& problem, InstanceId i);

// Bottleneck class: floor(log2(bottleneck / c_min)); classes partition
// instances so capacities at the bottleneck differ by < 2 within a class.
int bottleneck_class(const Problem& problem, InstanceId i);
int num_bottleneck_classes(const Problem& problem);

// rho: max over instances of (max capacity on path) / (min capacity on
// path) — the spread factor of every reported ratio bound
// (framework/certify.hpp proven_ratio_bound); exactly 1.0 when every
// path's capacities are equal.
double max_path_capacity_spread(const Problem& problem);

}  // namespace treesched
