#include "serve/traffic.hpp"

#include <cmath>

#include "util/contracts.hpp"
#include "util/error.hpp"

namespace raysched::serve {

const char* to_string(TrafficModel model) {
  switch (model) {
    case TrafficModel::Poisson:     return "poisson";
    case TrafficModel::Bursty:      return "bursty";
    case TrafficModel::HeavyTailed: return "heavy-tailed";
  }
  return "unknown";
}

TrafficModel traffic_model_from_string(const std::string& name) {
  if (name == "poisson") return TrafficModel::Poisson;
  if (name == "bursty") return TrafficModel::Bursty;
  if (name == "heavy-tailed") return TrafficModel::HeavyTailed;
  throw error("traffic_model_from_string: unknown model '" + name + "'");
}

namespace {

/// Knuth inversion: exact Poisson(mean) count, given limit = e^-mean with
/// mean > 0 (the caller computes it once per slot, not once per link).
/// mean is small (per-slot per-link load), so the expected draw count
/// e^mean stays tiny.
std::uint32_t poisson_draw(util::RngStream& rng, double limit) {
  double product = rng.uniform();
  std::uint32_t count = 0;
  while (product > limit) {
    product *= rng.uniform();
    ++count;
  }
  return count;
}

/// Pareto(x_m = 1, alpha) batch size, rounded up and capped.
std::uint32_t pareto_batch(util::RngStream& rng, double tail_alpha,
                           std::size_t max_batch) {
  // uniform() is in [0, 1); 1 - u is in (0, 1] so the power is finite.
  const double u = 1.0 - rng.uniform();
  RAYSCHED_EXPECT(tail_alpha > 0.0 && u > 0.0 && u <= 1.0,
                  "Pareto batch needs alpha > 0 and u in (0, 1]");
  const double raw = std::pow(u, -1.0 / tail_alpha);
  const double capped = std::min(raw, static_cast<double>(max_batch));
  return static_cast<std::uint32_t>(std::ceil(capped));
}

}  // namespace

TrafficGenerator::TrafficGenerator(const TrafficConfig& config, std::size_t n)
    : config_(config), n_(n) {
  require(n > 0, "TrafficGenerator: need at least one link");
  require(std::isfinite(config.mean_rate) && config.mean_rate >= 0.0,
          "TrafficGenerator: mean_rate must be finite and >= 0");
  require(std::isfinite(config.tail_alpha) && config.tail_alpha > 0.0,
          "TrafficGenerator: tail_alpha must be finite and > 0");
  require(config.max_batch >= 1, "TrafficGenerator: max_batch must be >= 1");
  if (config_.model == TrafficModel::Bursty) {
    burst_state_.assign(n_, 0);  // every link starts "off"
  }
}

void TrafficGenerator::set_burst_state(std::vector<char> state) {
  if (config_.model != TrafficModel::Bursty) {
    require(state.empty(),
            "TrafficGenerator::set_burst_state: model keeps no burst state");
    return;
  }
  require(state.size() == n_,
          "TrafficGenerator::set_burst_state: state size must equal n");
  burst_state_ = std::move(state);
}

// raysched:hot
void TrafficGenerator::arrivals(util::RngStream& slot_rng,
                                const std::vector<char>& active,
                                std::vector<std::uint32_t>& out) {
  require(active.size() == n_,
          "TrafficGenerator::arrivals: active mask size must equal n");
  out.assign(n_, 0);
  switch (config_.model) {
    case TrafficModel::Poisson: {
      // A zero rate consumes no randomness on any link.
      if (config_.mean_rate <= 0.0) break;
      const double limit = std::exp(-config_.mean_rate);
      for (std::size_t i = 0; i < n_; ++i) {
        if (active[i] == 0) continue;
        out[i] = poisson_draw(slot_rng, limit);
      }
      break;
    }
    case TrafficModel::Bursty:
      for (std::size_t i = 0; i < n_; ++i) {
        if (active[i] == 0) continue;
        if (burst_state_[i] != 0) {
          if (slot_rng.bernoulli(config_.on_rate.value())) out[i] = 1;
          if (slot_rng.bernoulli(config_.burst_off.value())) {
            burst_state_[i] = 0;
          }
        } else if (slot_rng.bernoulli(config_.burst_on.value())) {
          burst_state_[i] = 1;
        }
      }
      break;
    case TrafficModel::HeavyTailed:
      for (std::size_t i = 0; i < n_; ++i) {
        if (active[i] == 0) continue;
        if (slot_rng.bernoulli(config_.batch_prob.value())) {
          out[i] = pareto_batch(slot_rng, config_.tail_alpha,
                                config_.max_batch);
        }
      }
      break;
  }
}

double TrafficGenerator::expected_rate() const {
  switch (config_.model) {
    case TrafficModel::Poisson:
      return config_.mean_rate;
    case TrafficModel::Bursty: {
      // Steady-state on-fraction of the two-state chain times the on rate.
      const double up = config_.burst_on.value();
      const double down = config_.burst_off.value();
      if (up + down <= 0.0) return 0.0;
      return up / (up + down) * config_.on_rate.value();
    }
    case TrafficModel::HeavyTailed: {
      // Uncapped Pareto mean alpha/(alpha-1); infinite at alpha <= 1.
      if (config_.tail_alpha <= 1.0) {
        return config_.batch_prob.value() *
               static_cast<double>(config_.max_batch);
      }
      const double mean_batch =
          config_.tail_alpha / (config_.tail_alpha - 1.0);
      return config_.batch_prob.value() * mean_batch;
    }
  }
  return 0.0;
}

}  // namespace raysched::serve
