#include "model/rayleigh.hpp"

#include <cmath>
#include <limits>

#include "util/contracts.hpp"
#include "util/error.hpp"
#include "util/fp.hpp"

namespace raysched::model {

double sinr_rayleigh(const Network& net, const LinkSet& active, LinkId i,
                     util::RngStream& rng) {
  require(i < net.size(), "sinr_rayleigh: link id out of range");
  double interference = net.noise();
  double own = 0.0;
  bool transmits = false;
  for (LinkId j : active) {
    require(j < net.size(), "sinr_rayleigh: active id out of range");
    const double s = rng.exponential_mean(net.mean_gain(j, i));
    if (j == i) {
      own = s;
      transmits = true;
    } else {
      interference += s;
    }
  }
  require(transmits, "sinr_rayleigh: link i must be in the active set");
  if (util::fp::exact_zero(interference)) {
    return own > 0.0 ? std::numeric_limits<double>::infinity() : 0.0;
  }
  return own / interference;
}

namespace {

void require_ids(const Network& net, const LinkSet& active,
                 const char* message) {
  for (LinkId j : active) require(j < net.size(), message);
}

/// Receiver i's SINR in one fading realization: S(j,i) ~ Exp(S̄(j,i)) for
/// every j in `active`, in set order, summed onto the noise.
double realized_sinr(const Network& net, const LinkSet& active, LinkId i,
                     util::RngStream& rng) {
  double interference = net.noise();
  double own = 0.0;
  for (LinkId j : active) {
    const double s = rng.exponential_mean(net.mean_gain(j, i));
    if (j == i) own = s;
    else interference += s;
  }
  if (util::fp::exact_zero(interference)) {
    return own > 0.0 ? std::numeric_limits<double>::infinity() : 0.0;
  }
  return own / interference;
}

/// Decides every receiver against `senders`: one uniform per receiver, in
/// set order, succeeding iff it falls below the receiver's Q_i. Writes ok[a]
/// when `ok` is non-null and returns the success count.
// raysched:hot
std::size_t decide_successes(const Network& net, const LinkSet& senders,
                             const LinkSet& receivers, units::Threshold beta,
                             util::RngStream& rng, char* ok) {
  std::size_t count = 0;
  for (std::size_t a = 0; a < receivers.size(); ++a) {
    const bool success =
        rng.uniform() <
        detail::success_chance(net, senders, receivers[a], beta);
    if (ok != nullptr) ok[a] = success ? 1 : 0;
    if (success) ++count;
  }
  return count;
}

}  // namespace

std::vector<double> sinr_rayleigh_all(const Network& net, const LinkSet& active,
                                      util::RngStream& rng) {
  std::vector<double> out;
  sinr_rayleigh_all(net, active, rng, out);
  return out;
}

// raysched:hot
void sinr_rayleigh_all(const Network& net, const LinkSet& active,
                       util::RngStream& rng, std::vector<double>& out) {
  // Sample the full |active| x |active| realization: gains are independent
  // per (sender, receiver) pair, so each receiver draws its own copy of every
  // sender's signal. Validate every id before the first gain read.
  require_ids(net, active, "sinr_rayleigh_all: active id out of range");
  const std::size_t m = active.size();
  out.assign(m, 0.0);
  for (std::size_t a = 0; a < m; ++a) {
    out[a] = realized_sinr(net, active, active[a], rng);
  }
}

std::size_t rayleigh_successes(const Network& net, const LinkSet& active,
                               units::Threshold beta, util::RngStream& rng,
                               std::vector<char>& ok) {
  return rayleigh_successes(net, active, active, beta, rng, ok);
}

// raysched:hot
std::size_t rayleigh_successes(const Network& net, const LinkSet& senders,
                               const LinkSet& receivers, units::Threshold beta,
                               util::RngStream& rng, std::vector<char>& ok) {
  require(beta.value() > 0.0, "rayleigh_successes: beta must be positive");
  require_ids(net, senders, "rayleigh_successes: sender id out of range");
  require_ids(net, receivers, "rayleigh_successes: receiver id out of range");
  ok.assign(receivers.size(), 0);
  return decide_successes(net, senders, receivers, beta, rng, ok.data());
}

std::size_t count_successes_rayleigh(const Network& net, const LinkSet& active,
                                     units::Threshold beta,
                                     util::RngStream& rng) {
  require(beta.value() > 0.0,
          "count_successes_rayleigh: beta must be positive");
  require_ids(net, active, "count_successes_rayleigh: active id out of range");
  return decide_successes(net, active, active, beta, rng, nullptr);
}

double detail::success_probability_rayleigh_unchecked(const Network& net,
                                                      const LinkSet& active,
                                                      LinkId i,
                                                      units::Threshold beta) {
  const double b = beta.value();
  const double sii = net.signal(i);
  RAYSCHED_EXPECT(sii > 0.0, "Theorem 1 needs a positive signal S(i,i)");
  double p = std::exp(-b * net.noise() / sii);
  for (LinkId j : active) {
    if (j == i) continue;
    p /= 1.0 + b * net.mean_gain(j, i) / sii;
  }
  return p;
}

double detail::success_chance(const Network& net, const LinkSet& senders,
                              LinkId i, units::Threshold beta) {
  const double own = net.signal(i);
  if (!(own > 0.0)) return 0.0;
  const double c = beta.value() / own;
  // A c that overflows would make a zero gain inf * 0; the division form
  // keeps that range exact.
  if (!std::isfinite(c)) {
    return detail::success_probability_rayleigh_unchecked(net, senders, i,
                                                          beta);
  }
  double product = 1.0;
  for (LinkId j : senders) {
    if (j != i) product *= 1.0 + c * net.mean_gain(j, i);
  }
  return std::exp(-c * net.noise()) / product;
}

units::Probability success_probability_rayleigh(const Network& net,
                                                const LinkSet& active,
                                                LinkId i,
                                                units::Threshold beta) {
  require(beta.value() > 0.0,
          "success_probability_rayleigh: beta must be positive");
  require(i < net.size(), "success_probability_rayleigh: id out of range");
  bool transmits = false;
  for (LinkId j : active) {
    require(j < net.size(), "success_probability_rayleigh: id out of range");
    if (j == i) transmits = true;
  }
  require(transmits,
          "success_probability_rayleigh: link i must be in the active set");
  return units::Probability(
      detail::success_probability_rayleigh_unchecked(net, active, i, beta));
}

double expected_successes_rayleigh(const Network& net, const LinkSet& active,
                                   units::Threshold beta) {
  // Validate the set once; the previous implementation re-validated every id
  // (and re-scanned for membership) inside each per-link call, so the checks
  // alone were O(|active|^2).
  require(beta.value() > 0.0,
          "expected_successes_rayleigh: beta must be positive");
  require_ids(net, active, "expected_successes_rayleigh: id out of range");
  double total = 0.0;
  for (LinkId i : active) {
    total +=
        detail::success_probability_rayleigh_unchecked(net, active, i, beta);
  }
  return total;
}

}  // namespace raysched::model
