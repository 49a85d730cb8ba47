#include "serve/server.hpp"

#include <algorithm>
#include <cmath>
#include <deque>
#include <limits>

#include "common/check.hpp"

namespace hymm {

namespace {

constexpr Cycle kMaxCycle = std::numeric_limits<Cycle>::max();

// Pre-generated arrival: timestamp plus the class the pick stream
// drew. Generated before the event loop so the arrival process is
// independent of scheduling decisions (open loop).
struct Arrival {
  Cycle cycle = 0;
  std::size_t class_index = 0;
};

std::vector<Arrival> generate_arrivals(
    const ServeConfig& config, const std::vector<RequestClass>& classes) {
  // Separate streams so adding a knob to one never perturbs the
  // other: seed+1 drives inter-arrival gaps, seed+2 the class mix.
  Rng gap_rng(config.seed + 1);
  Rng class_rng(config.seed + 2);
  const double clock_hz = config.accel.clock_ghz * 1e9;
  const double mean_gap = clock_hz / config.arrival_rate;
  double total_weight = 0.0;
  for (const RequestClass& cls : classes) total_weight += cls.weight;
  HYMM_CHECK_MSG(total_weight > 0.0, "class-mix weights sum to zero");

  std::vector<Arrival> arrivals;
  arrivals.reserve(config.requests);
  Cycle now = 0;
  for (std::uint64_t i = 0; i < config.requests; ++i) {
    // Exponential inter-arrival via inversion; floored at one cycle
    // so timestamps strictly increase.
    const double u = gap_rng.next_double();
    const double gap = -std::log(1.0 - u) * mean_gap;
    // A gap that is not finite, or that would carry the clock past
    // 2^64, must fail here: the cast and the sum would wrap silently.
    const bool finite = std::isfinite(gap) && gap < 0x1p64;
    const Cycle step =
        finite ? std::max<Cycle>(static_cast<Cycle>(gap), 1) : 0;
    HYMM_CHECK_MSG(finite && step <= kMaxCycle - now,
                   "arrival rate " << config.arrival_rate
                                   << " req/s overflows the 64-bit arrival "
                                      "clock at arrival "
                                   << i << " (mean gap " << mean_gap
                                   << " cycles)");
    now += step;
    Arrival arrival;
    arrival.cycle = now;
    double pick = class_rng.next_double() * total_weight;
    std::size_t index = 0;
    for (; index + 1 < classes.size(); ++index) {
      pick -= classes[index].weight;
      if (pick < 0.0) break;
    }
    arrival.class_index = index;
    arrivals.push_back(arrival);
  }
  return arrivals;
}

// Decimates an event series to <= limit points by repeated halving
// (keep every other sample) — deterministic and order-preserving.
void decimate(std::vector<QueueSample>& samples, std::size_t limit) {
  while (samples.size() > limit) {
    std::vector<QueueSample> kept;
    kept.reserve((samples.size() + 1) / 2);
    for (std::size_t i = 0; i < samples.size(); i += 2) {
      kept.push_back(samples[i]);
    }
    samples.swap(kept);
  }
}

}  // namespace

ServeResult run_serve(const std::vector<RequestClass>& classes,
                      const std::vector<DenseMatrix>& weights,
                      const ServeConfig& config) {
  HYMM_CHECK_MSG(config.requests > 0, "ServeConfig.requests must be > 0");
  HYMM_CHECK_MSG(config.arrival_rate > 0.0,
                 "ServeConfig.arrival_rate must be > 0");
  HYMM_CHECK_MSG(config.queue_capacity > 0,
                 "ServeConfig.queue_capacity must be > 0");

  // Arrivals first: a config whose clock would overflow fails before
  // any class is simulated.
  const std::vector<Arrival> arrivals = generate_arrivals(config, classes);

  ServeResult result;
  result.class_costs =
      simulate_class_costs(classes, weights, config.flow, config.accel,
                           config.threads, config.checkpoints);
  result.requests.resize(arrivals.size());
  for (std::size_t i = 0; i < arrivals.size(); ++i) {
    result.requests[i].id = i;
    result.requests[i].class_index = arrivals[i].class_index;
    result.requests[i].arrival = arrivals[i].cycle;
  }

  std::vector<QueueSample> samples;
  std::deque<std::size_t> queue;  // waiting request indices, FIFO
  // The last dispatched request occupies the server over
  // [busy_begin, server_free).
  Cycle busy_begin = 0, server_free = 0;
  const auto sample = [&](Cycle t) {
    const std::uint64_t in_flight =
        (t >= busy_begin && t < server_free) ? 1 : 0;
    samples.push_back(QueueSample{t, queue.size(), in_flight});
  };

  std::size_t next_arrival = 0;
  const auto admit_until = [&](Cycle t) {
    // Admit every arrival at or before t, in arrival order; the
    // bounded queue drops what does not fit.
    while (next_arrival < arrivals.size() &&
           arrivals[next_arrival].cycle <= t) {
      RequestRecord& record = result.requests[next_arrival];
      if (queue.size() >= config.queue_capacity) {
        record.dropped = true;
        ++result.dropped;
      } else {
        queue.push_back(next_arrival);
      }
      sample(record.arrival);
      ++next_arrival;
    }
  };

  while (next_arrival < arrivals.size() || !queue.empty()) {
    if (queue.empty()) {
      // Idle server: jump to the next arrival.
      admit_until(arrivals[next_arrival].cycle);
      continue;
    }
    RequestRecord& record = result.requests[queue.front()];
    const Cycle start = std::max(server_free, record.arrival);
    // Everything that arrived while the previous request was in
    // service (or before this start) queues behind this one.
    admit_until(start);
    queue.pop_front();

    record.service_cycles =
        result.class_costs[record.class_index].standalone_cycles;
    HYMM_CHECK_MSG(record.service_cycles <= kMaxCycle - start,
                   "arrival rate " << config.arrival_rate
                                   << " req/s overflows the 64-bit "
                                      "completion clock at request "
                                   << record.id);
    record.start = start;
    record.completion = start + record.service_cycles;
    record.wait_cycles = record.start - record.arrival;
    record.latency_cycles = record.completion - record.arrival;
    result.latency.observe(record.latency_cycles);
    result.wait.observe(record.wait_cycles);
    result.service.observe(record.service_cycles);
    ++result.served;

    busy_begin = start;
    server_free = record.completion;
    result.busy_cycles += record.service_cycles;
    result.makespan = server_free;
    sample(start);
  }
  HYMM_CHECK(result.served + result.dropped == config.requests);

  decimate(samples, 512);
  result.queue_depth = std::move(samples);
  return result;
}

}  // namespace hymm
