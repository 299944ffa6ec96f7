// Online arrival/departure event model: the demand side of the online
// scheduling service.  A traffic spec (arrival law, rate, per-tenant
// profit classes, lifetime law) plus a base TreeScenarioSpec is expanded
// into a deterministic trace of timestamped event batches — each batch
// carrying the demands that arrived and the demand keys that departed
// within one batching interval.  The OnlineScheduler consumes batches;
// everything here is pure sampling layered on workload/demand_gen's
// DemandSampler, so traces are reproducible by seed.
//
// The online setting this models is the service regime of the paper's
// tree scheduling problem (and of the constant-competitive online
// packet-scheduling line of work, PAPERS.md): demands arrive over time,
// hold their bandwidth for an exponential lifetime, and leave; the
// solver must sustain the churn, not one batch solve.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "workload/demand_gen.hpp"
#include "workload/scenario.hpp"

namespace treesched {

// A demand's identity across its lifetime in the service.  Instance and
// demand ids are per-Problem artifacts (they shift on compaction); the
// key never does.
using DemandKey = std::int64_t;

enum class ArrivalLaw {
  kPoisson,  // homogeneous Poisson process at `rate`
  kBursty,   // on/off: rate * burst_factor during bursts, rate otherwise
  kDiurnal,  // sinusoidal rate modulation with period `diurnal_period`
};

const char* to_string(ArrivalLaw law);

// A tenant class: a share of the arrival stream with its own profit
// scaling and expected lifetime.  Shares are normalized over the spec's
// tenant list; an empty list means one anonymous tenant.
struct TenantClass {
  std::string name = "default";
  double rate_share = 1.0;     // relative weight within the tenant mix
  double profit_scale = 1.0;   // multiplies the sampled profit
  double mean_lifetime = 8.0;  // exponential lifetime mean (time units)
};

struct OnlineTrafficSpec {
  ArrivalLaw arrivals = ArrivalLaw::kPoisson;
  double rate = 8.0;            // mean arrivals per time unit
  double burst_factor = 4.0;    // kBursty: rate multiplier inside a burst
  double burst_fraction = 0.2;  // kBursty: fraction of time in bursts
  double diurnal_period = 32.0;  // kDiurnal: modulation period
  double batch_interval = 1.0;   // events per batch = one interval
  int num_batches = 16;
  int initial_population = 0;  // demands alive at t = 0
  std::vector<TenantClass> tenants;
  std::uint64_t seed = 1;
};

// One arrival: the sampled demand plus its service identity.
struct OnlineArrival {
  DemandKey key = 0;
  int tenant = 0;
  DemandDraw draw;
};

// One batching interval's worth of events, in time order.
struct EventBatch {
  double time = 0.0;  // end of the interval
  std::vector<OnlineArrival> arrivals;
  std::vector<DemandKey> departures;
};

// A churn-aware scenario: the static base (topology, capacities, demand
// laws) plus the traffic layered on top.  The base's demand count seeds
// the initial population when traffic.initial_population is 0.
struct OnlineScenarioSpec {
  TreeScenarioSpec base;
  OnlineTrafficSpec traffic;
};

std::string describe(const OnlineScenarioSpec& spec);

// Caps on a trace's size.  A spec asking for more batches, or for more
// expected events (initial_population + peak rate x batch_interval x
// num_batches), is rejected before anything is allocated, and so is a
// sampled trace whose candidate arrivals pass kMaxTraceEvents.  Every
// shape the tests and benches run stays under ~20k expected events and
// 200 batches.
inline constexpr int kMaxTraceBatches = 1 << 20;
inline constexpr int kMaxTraceEvents = 1 << 20;

// Expands the spec into the full deterministic event trace.  `problem`
// supplies the topology the demand laws sample against (it may be the
// finalized base problem); initial-population demands get keys
// [0, initial) and their departures are scheduled like everyone else's.
// A spec whose rate, batch interval, tenant share or lifetime is not
// positive and finite, or which passes the caps above, is a check_input
// diagnostic.
std::vector<EventBatch> make_event_trace(const Problem& problem,
                                         const DemandGenConfig& demand_cfg,
                                         const OnlineTrafficSpec& traffic);

}  // namespace treesched
