#include "model/rayleigh.hpp"

#include <cmath>
#include <limits>

#include "util/contracts.hpp"
#include "util/error.hpp"
#include "util/fp.hpp"
#include "util/neg_log.hpp"

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
/// every j in `active`, in set order, summed onto the noise. This is the
/// arithmetic of record: sinr_rayleigh_all returns it, and the threshold
/// kernel replays it whenever its filter cannot certify a decision.
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

// The threshold filter (docs/PERFORMANCE.md, "Rayleigh success test").
// The approximate interference differs from the exact one by at most
// kSumError relative: the two -ln errors, one product rounding each, and
// the recursive summation of at most kMaxFilteredSet + 1 nonnegative
// terms. A decision is certain when the approximate SINR is outside
// beta * (1 +- kBand); the static_assert keeps kBand at least twice the
// error with room for the rounding of the two threshold products.
constexpr double kBand = 1e-6;
constexpr std::size_t kMaxFilteredSet = std::size_t{1} << 24;
// Assumed bound on std::log1p's relative error (glibc: under 1 ulp).
constexpr double kLog1pRelError = 0x1p-40;
constexpr double kSumError =
    util::kNegLogRelError + kLog1pRelError +
    2.0 * static_cast<double>(kMaxFilteredSet + 2) * 0x1p-53;
static_assert(2.0 * kSumError <= kBand / 2.0,
              "filter band too narrow for the certified error bound");
// Ranges that keep beta * interference a normal double, so the products
// carry a 2^-53 relative error and no subnormal or overflow loss.
constexpr double kMinBeta = 0x1p-400;
constexpr double kMaxBeta = 0x1p400;
constexpr double kMinInterference = 0x1p-500;
constexpr double kMaxInterference = 0x1p500;

/// Decides every receiver of `active`; writes ok[a] when `ok` is non-null
/// and returns the success count. Same draws in the same order as
/// realized_sinr, so `rng` ends where sinr_rayleigh_all leaves it.
// raysched:hot
std::size_t decide_successes(const Network& net, const LinkSet& active,
                             double beta, util::RngStream& rng, char* ok) {
  const std::size_t m = active.size();
  const bool filter = m <= kMaxFilteredSet && beta >= kMinBeta &&
                      beta <= kMaxBeta;
  const double accept = beta * (1.0 + kBand);
  const double reject = beta * (1.0 - kBand);
  std::size_t count = 0;
  for (std::size_t a = 0; a < m; ++a) {
    const LinkId i = active[a];
    const util::RngStream start = rng;
    bool certain = false;
    bool success = false;
    if (filter) {
      double own = 0.0;
      double approx = net.noise();
      for (LinkId j : active) {
        const double mean = net.mean_gain(j, i);
        // exponential_mean draws nothing for a zero mean; neither may we.
        if (util::fp::exact_zero(mean)) continue;
        const double u = rng.uniform();
        // 1 - u is exact for the 53-bit u: neg_log(1 - u) and log1p(-u)
        // take the logarithm of the same number.
        if (j == i) own = -mean * std::log1p(-u);
        else approx += mean * util::neg_log(1.0 - u);
      }
      if (approx >= kMinInterference && approx <= kMaxInterference) {
        if (own >= accept * approx) {
          certain = success = true;
        } else if (own < reject * approx) {
          certain = true;
        }
      }
    }
    if (!certain) {
      rng = start;
      success = realized_sinr(net, active, i, rng) >= beta;
    }
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

// raysched:hot
std::size_t rayleigh_successes(const Network& net, const LinkSet& active,
                               units::Threshold beta, util::RngStream& rng,
                               std::vector<char>& ok) {
  require(beta.value() > 0.0, "rayleigh_successes: beta must be positive");
  require_ids(net, active, "rayleigh_successes: active id out of range");
  ok.assign(active.size(), 0);
  return decide_successes(net, active, beta.value(), rng, ok.data());
}

std::size_t count_successes_rayleigh(const Network& net, const LinkSet& active,
                                     units::Threshold beta,
                                     util::RngStream& rng) {
  require(beta.value() > 0.0,
          "count_successes_rayleigh: beta must be positive");
  require_ids(net, active, "count_successes_rayleigh: active id out of range");
  return decide_successes(net, active, beta.value(), rng, nullptr);
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
