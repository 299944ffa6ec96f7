#include "online/event_stream.hpp"

#include <algorithm>
#include <cmath>
#include <queue>
#include <string>
#include <utility>

namespace treesched {

const char* to_string(ArrivalLaw law) {
  switch (law) {
    case ArrivalLaw::kPoisson:
      return "poisson";
    case ArrivalLaw::kBursty:
      return "bursty";
    case ArrivalLaw::kDiurnal:
      return "diurnal";
  }
  return "?";
}

std::string describe(const OnlineScenarioSpec& spec) {
  std::string s = describe(spec.base);
  s += " | ";
  s += to_string(spec.traffic.arrivals);
  s += " rate=" + std::to_string(spec.traffic.rate);
  s += " batches=" + std::to_string(spec.traffic.num_batches);
  s += " tenants=" +
       std::to_string(std::max<std::size_t>(spec.traffic.tenants.size(), 1));
  return s;
}

namespace {

inline constexpr double kTwoPi = 6.28318530717958647692;

// Exponential draw by inversion: uniform() is in [0, 1), so the log
// argument stays positive.
double exponential(double mean, Rng& rng) {
  return -mean * std::log(1.0 - rng.uniform());
}

// Bursts repeat on a fixed cycle (8 batching intervals): the first
// burst_fraction of every cycle runs at rate * burst_factor.
bool in_burst(double t, const OnlineTrafficSpec& traffic) {
  const double cycle = 8.0 * traffic.batch_interval;
  const double phase = t - cycle * std::floor(t / cycle);
  return phase < traffic.burst_fraction * cycle;
}

// Instantaneous arrival rate lambda(t) and a dominating constant for the
// thinning sampler below.
double rate_at(double t, const OnlineTrafficSpec& traffic) {
  switch (traffic.arrivals) {
    case ArrivalLaw::kPoisson:
      return traffic.rate;
    case ArrivalLaw::kBursty:
      return in_burst(t, traffic) ? traffic.rate * traffic.burst_factor
                                  : traffic.rate;
    case ArrivalLaw::kDiurnal:
      return traffic.rate *
             (1.0 + std::sin(kTwoPi * t / traffic.diurnal_period));
  }
  return traffic.rate;
}

double max_rate(const OnlineTrafficSpec& traffic) {
  switch (traffic.arrivals) {
    case ArrivalLaw::kPoisson:
      return traffic.rate;
    case ArrivalLaw::kBursty:
      return traffic.rate * std::max(traffic.burst_factor, 1.0);
    case ArrivalLaw::kDiurnal:
      return 2.0 * traffic.rate;
  }
  return traffic.rate;
}

}  // namespace

std::vector<EventBatch> make_event_trace(const Problem& problem,
                                         const DemandGenConfig& demand_cfg,
                                         const OnlineTrafficSpec& traffic) {
  const auto positive = [](double x) { return std::isfinite(x) && x > 0.0; };
  check_input(positive(traffic.rate),
              "online trace: arrival rate must be positive and finite");
  check_input(positive(traffic.batch_interval),
              "online trace: batch interval must be positive and finite");
  check_input(traffic.num_batches >= 0 &&
                  traffic.num_batches <= kMaxTraceBatches,
              "online trace: batch count must lie in [0, " +
                  std::to_string(kMaxTraceBatches) + "]");
  check_input(traffic.initial_population >= 0,
              "online trace: initial population must not be negative");
  // Normalized tenant mix (empty spec = one anonymous tenant).
  std::vector<TenantClass> tenants = traffic.tenants;
  if (tenants.empty()) tenants.push_back(TenantClass{});
  double share_sum = 0.0;
  for (const TenantClass& t : tenants) {
    check_input(positive(t.rate_share) && positive(t.mean_lifetime),
                "online trace: tenant rate share and mean lifetime must be "
                "positive and finite");
    share_sum += t.rate_share;
  }
  // Candidate arrivals are drawn at the peak rate (thinning, below).
  const double lambda_max = max_rate(traffic);
  const std::string too_many = "online trace: more than " +
                               std::to_string(kMaxTraceEvents) +
                               " events (rate x interval x batches + "
                               "initial population)";
  check_input(static_cast<double>(traffic.initial_population) +
                      lambda_max * traffic.batch_interval *
                          static_cast<double>(traffic.num_batches) <=
                  kMaxTraceEvents,
              too_many);
  Rng rng(traffic.seed);
  const DemandSampler sampler(problem, demand_cfg);
  const auto draw_tenant = [&]() {
    double u = rng.uniform(0.0, share_sum);
    for (std::size_t i = 0; i + 1 < tenants.size(); ++i) {
      if (u < tenants[i].rate_share) return static_cast<int>(i);
      u -= tenants[i].rate_share;
    }
    return static_cast<int>(tenants.size()) - 1;
  };

  // Departures: min-heap of (time, key), scheduled at arrival.
  using Departure = std::pair<double, DemandKey>;
  std::priority_queue<Departure, std::vector<Departure>,
                      std::greater<Departure>>
      departures;
  DemandKey next_key = 0;

  const auto make_arrival = [&](double now) {
    OnlineArrival arrival;
    arrival.key = next_key++;
    arrival.tenant = draw_tenant();
    arrival.draw = sampler.next(rng);
    arrival.draw.profit *= tenants[static_cast<std::size_t>(arrival.tenant)]
                               .profit_scale;
    departures.emplace(
        now + exponential(tenants[static_cast<std::size_t>(arrival.tenant)]
                              .mean_lifetime,
                          rng),
        arrival.key);
    return arrival;
  };

  // Batch 0 is the initial population (time 0, no departures yet); the
  // churn batches follow.
  std::vector<EventBatch> trace;
  trace.reserve(static_cast<std::size_t>(traffic.num_batches) + 1);
  EventBatch& initial = trace.emplace_back();
  initial.time = 0.0;
  for (int k = 0; k < traffic.initial_population; ++k)
    initial.arrivals.push_back(make_arrival(0.0));

  // Arrivals by thinning against the dominating constant rate: candidate
  // points at max_rate, each kept with probability lambda(t) / max_rate.
  // The expected candidate count passed the cap check above; a draw far
  // above its mean is stopped at the cap.
  const double horizon =
      traffic.batch_interval * static_cast<double>(traffic.num_batches);
  std::int64_t candidates = traffic.initial_population;
  double t = exponential(1.0 / lambda_max, rng);
  for (int b = 0; b < traffic.num_batches; ++b) {
    EventBatch& batch = trace.emplace_back();
    const double end =
        traffic.batch_interval * static_cast<double>(b + 1);
    batch.time = end;
    while (t <= end && t <= horizon) {
      check_input(++candidates <= kMaxTraceEvents, too_many);
      if (rng.chance(rate_at(t, traffic) / lambda_max))
        batch.arrivals.push_back(make_arrival(t));
      t += exponential(1.0 / lambda_max, rng);
    }
    while (!departures.empty() && departures.top().first <= end) {
      batch.departures.push_back(departures.top().second);
      departures.pop();
    }
  }
  return trace;
}

}  // namespace treesched
