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

/// The largest mean one Knuth draw covers. e^-64 is far from underflow
/// (e^-745 is the last double), and a draw costs about mean + 1 uniforms.
constexpr double kPoissonChunk = 64.0;

/// The largest mean slot total. Per-link counts are 32-bit, and a Poisson
/// total of mean 2^31 reaches 2^32 with negligible probability.
constexpr double kMaxSlotPackets = 2147483648.0;  // 2^31

/// Knuth's product method: exact Poisson(mean) count, given limit = e^-mean
/// with 0 < mean <= kPoissonChunk (computed once, not once per draw).
std::uint64_t poisson_draw(util::RngStream& rng, double limit) {
  double product = rng.uniform();
  std::uint64_t count = 0;
  while (product > limit) {
    product *= rng.uniform();
    ++count;
  }
  return count;
}

/// Appends the positions i < n whose Bernoulli(p) trial succeeds and whose
/// link is active (active[i] != 0) exactly when `of_active`. The trials
/// before each success are Geometric(p): floor(log U / log(1 - p)) with U
/// in (0, 1], saturated at n before the cast (p = 1 gives 0).
// raysched:hot
void skip_trials(util::RngStream& rng, double p, bool of_active,
                 const std::vector<char>& active,
                 std::vector<std::size_t>& out) {
  if (p <= 0.0) return;
  const std::size_t n = active.size();
  const double log_fail = std::log1p(-p);  // -inf at p = 1
  RAYSCHED_EXPECT(log_fail < 0.0, "skip_trials needs p in (0, 1]");
  const auto skip = [&]() -> std::size_t {
    // uniform() is in [0, 1); 1 - u is in (0, 1] so the log is finite.
    const double u = 1.0 - rng.uniform();
    RAYSCHED_EXPECT(u > 0.0 && u <= 1.0, "geometric skip needs u in (0, 1]");
    const double gap = std::floor(std::log(u) / log_fail);
    return gap < static_cast<double>(n) ? static_cast<std::size_t>(gap) : n;
  };
  for (std::size_t i = skip(); i < n; i += 1 + skip()) {
    if ((active[i] != 0) == of_active) out.push_back(i);
  }
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
  const double total_mean = config.mean_rate * static_cast<double>(n);
  require(total_mean <= kMaxSlotPackets,
          "TrafficGenerator: mean_rate * n must be at most 2^31 packets");
  require(std::isfinite(config.tail_alpha) && config.tail_alpha > 0.0,
          "TrafficGenerator: tail_alpha must be finite and > 0");
  require(config.max_batch >= 1, "TrafficGenerator: max_batch must be >= 1");
  if (config_.model == TrafficModel::Bursty) {
    burst_state_.assign(n_, 0);  // every link starts "off"
  }
  if (config_.model == TrafficModel::Poisson && total_mean > 0.0) {
    const double chunks = std::floor(total_mean / kPoissonChunk);  // raysched-check: allow(RS-N2): constant 64
    full_chunks_ = static_cast<std::uint64_t>(chunks);
    chunk_limit_ = std::exp(-kPoissonChunk);
    rest_limit_ = std::exp(-(total_mean - chunks * kPoissonChunk));
    count_scratch_.assign(n_, 0);
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
                                std::vector<ArrivalEvent>& out) {
  require(active.size() == n_,
          "TrafficGenerator::arrivals: active mask size must equal n");
  out.clear();
  switch (config_.model) {
    case TrafficModel::Poisson: {
      // A zero rate consumes no randomness.
      if (count_scratch_.empty()) break;
      // Poisson(a) + Poisson(b) = Poisson(a + b): the chunk draws sum to
      // the slot total over all n positions.
      std::uint64_t total = 0;
      for (std::uint64_t c = 0; c < full_chunks_; ++c) {
        total += poisson_draw(slot_rng, chunk_limit_);
      }
      if (rest_limit_ < 1.0) total += poisson_draw(slot_rng, rest_limit_);
      // Splitting a Poisson total uniformly over n positions gives each an
      // independent Poisson(mean_rate) count; an inactive link's share is
      // discarded.
      for (std::uint64_t k = 0; k < total; ++k) {
        const auto i = static_cast<std::size_t>(slot_rng.uniform_index(n_));
        if (active[i] == 0) continue;
        if (count_scratch_[i]++ == 0) out.push_back(ArrivalEvent{i, 0});
      }
      for (ArrivalEvent& event : out) {
        event.count = count_scratch_[event.link];
        count_scratch_[event.link] = 0;
      }
      break;
    }
    case TrafficModel::Bursty:
      for (std::size_t i = 0; i < n_; ++i) {
        if (active[i] == 0) continue;
        if (burst_state_[i] != 0) {
          if (slot_rng.bernoulli(config_.on_rate.value())) {
            out.push_back(ArrivalEvent{i, 1});
          }
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
          out.push_back(ArrivalEvent{
              i, pareto_batch(slot_rng, config_.tail_alpha,
                              config_.max_batch)});
        }
      }
      break;
  }
}

std::size_t churn_events(util::RngStream& rng, double leave, double join,
                         const std::vector<char>& active,
                         std::vector<std::size_t>& out) {
  require(leave >= 0.0 && leave <= 1.0 && join >= 0.0 && join <= 1.0,
          "churn_events: probabilities must be in [0, 1]");
  out.clear();
  skip_trials(rng, leave, true, active, out);
  const std::size_t leavers = out.size();
  skip_trials(rng, join, false, active, out);
  return leavers;
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
