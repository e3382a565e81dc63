// The statistical gate (stat_gate.hpp) on the repo's samplers: the Rayleigh
// threshold kernel against Theorem 1's Q_i and against the pairwise
// reference sinr_rayleigh_all, Poisson arrivals against the pmf, and random
// churn against per-link Bernoulli trials. Two power cases show the gate
// rejecting samplers that are wrong by little: a beta scaled by 1.01, and
// one uniform shared by two receivers.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

#include "stat_gate.hpp"
#include "test_helpers.hpp"

namespace raysched {
namespace {

namespace sg = raysched::testing::stat_gate;

constexpr std::size_t kTrials = 20000;

// A plane network like one serve slot's schedule: 80 links on the paper's
// 1000 x 1000 square, so that with every link on, Q_i spreads over (0, 1)
// around a sum of about 17.
model::Network plane_network() {
  util::RngStream rng(4242);
  model::RandomPlaneParams params;
  params.num_links = 80;
  return model::Network(model::random_plane_links(params, rng),
                        model::PowerAssignment::uniform(2.0), 2.2,
                        units::Power(4e-7));
}

// A raw gain matrix built for power: 100 receivers, each mostly
// noise-limited (beta nu / S(i,i) in [0.8, 1.6] at beta = 2.5) with two weak
// interferers, so every Q_i sits near 0.2, where a decision carries the most
// information about beta, and the pairwise kernels stay cheap.
model::Network power_network() {
  constexpr std::size_t n = 100;
  util::RngStream rng(4343);
  std::vector<double> gains(n * n, 0.0);
  for (std::size_t i = 0; i < n; ++i) {
    gains[i * n + i] = 0.8 + 0.8 * rng.uniform();
    for (std::size_t k = 1; k <= 2; ++k) {
      gains[((i + k) % n) * n + i] = 0.1 * (0.5 + rng.uniform());
    }
  }
  return model::Network(n, std::move(gains), units::Power(0.5));
}

model::LinkSet every_link(std::size_t n) {
  model::LinkSet set;
  for (model::LinkId i = 0; i < n; ++i) set.push_back(i);
  return set;
}

// Theorem 1 at q in {0,1} for receiver i against the set `on`, from core's
// general-q expression on the set's indicator vector: code independent of
// the kernel's product form.
double theorem1(const model::Network& net, const model::LinkSet& on,
                model::LinkId i, double beta) {
  units::ProbabilityVector q(net.size(), units::Probability(0.0));
  for (model::LinkId j : on) q[j] = units::Probability(1.0);
  return core::rayleigh_success_probability(net, q, i, units::Threshold(beta))
      .value();
}

// Theorem 1 for every member of `active`, in set order.
std::vector<double> theorem1_law(const model::Network& net,
                                 const model::LinkSet& active, double beta) {
  std::vector<double> q;
  for (model::LinkId i : active) q.push_back(theorem1(net, active, i, beta));
  return q;
}

auto kernel_sampler(const model::Network& net, const model::LinkSet& active,
                    double beta) {
  return [&net, &active, beta](util::RngStream& rng, std::vector<char>& out) {
    (void)model::rayleigh_successes(net, active, units::Threshold(beta), rng,
                                    out);
  };
}

auto pairwise_sampler(const model::Network& net, const model::LinkSet& active,
                      double beta) {
  return [&net, &active, beta](util::RngStream& rng, std::vector<char>& out) {
    const std::vector<double> sinrs = model::sinr_rayleigh_all(net, active, rng);
    out.assign(sinrs.size(), 0);
    for (std::size_t a = 0; a < sinrs.size(); ++a) out[a] = sinrs[a] >= beta;
  };
}

TEST(StatGate, CriticalValueIsTheNormalQuantile) {
  EXPECT_NEAR(sg::critical_z(0.05), 1.959964, 1e-6);
  EXPECT_NEAR(sg::critical_z(1e-6), 4.891638, 1e-6);
}

TEST(StatGate, ZeroVarianceChecksDemandExactAgreement) {
  sg::Gate exact;
  exact.check("degenerate", 5.0, 5.0, 0.0);
  EXPECT_TRUE(exact.verdict().pass);
  sg::Gate off;
  off.check("degenerate", 5.0, 4.0, 0.0);
  EXPECT_FALSE(off.verdict().pass);
}

TEST(StatGate, RayleighSuccessesFollowTheorem1) {
  const model::Network net = plane_network();
  const model::LinkSet active = every_link(net.size());
  for (double beta : {0.5, 2.5}) {
    const std::vector<double> q = theorem1_law(net, active, beta);
    const sg::Pairs pairs = sg::neighbour_pairs(active.size());
    const sg::Tally tally = sg::run(active.size(), pairs, kTrials / 2, 11,
                                    kernel_sampler(net, active, beta));
    const sg::Verdict v = sg::against_law(tally, q, pairs).verdict();
    EXPECT_TRUE(v.pass) << "beta " << beta << "\n" << v.failures;
  }
}

TEST(StatGate, ThresholdedSinrRayleighAllFollowsTheorem1) {
  // The pairwise reference draws every S(j,i); its law is Theorem 1 itself.
  const model::Network net = plane_network();
  const model::LinkSet active = every_link(net.size());
  const double beta = 2.5;
  const std::vector<double> q = theorem1_law(net, active, beta);
  const sg::Pairs pairs = sg::neighbour_pairs(active.size());
  const sg::Tally tally = sg::run(active.size(), pairs, kTrials / 4, 12,
                                  pairwise_sampler(net, active, beta));
  const sg::Verdict v = sg::against_law(tally, q, pairs).verdict();
  EXPECT_TRUE(v.pass) << v.failures;
}

TEST(StatGate, RayleighSuccessesMatchThresholdedSinrRayleighAll) {
  const model::Network net = plane_network();
  const model::LinkSet active = every_link(net.size());
  const double beta = 2.5;
  const sg::Pairs pairs = sg::neighbour_pairs(active.size());
  const sg::Tally kernel = sg::run(active.size(), pairs, kTrials / 4, 13,
                                   kernel_sampler(net, active, beta));
  const sg::Tally pairwise = sg::run(active.size(), pairs, kTrials / 4, 14,
                                     pairwise_sampler(net, active, beta));
  const sg::Verdict v = sg::against_sample(kernel, pairwise, pairs).verdict();
  EXPECT_TRUE(v.pass) << v.failures;
}

TEST(StatGate, ReceiversFormFollowsTheorem1) {
  // Every link decided against the even-numbered senders: a sender on Q_i of
  // the senders, any other link on Q_i of the senders with it added.
  const model::Network net = plane_network();
  model::LinkSet senders;
  for (model::LinkId i = 0; i < net.size(); i += 2) senders.push_back(i);
  const model::LinkSet receivers = every_link(net.size());
  const double beta = 2.5;
  std::vector<double> q;
  for (model::LinkId r : receivers) {
    model::LinkSet with_r = senders;
    if (r % 2 != 0) with_r.push_back(r);
    q.push_back(theorem1(net, with_r, r, beta));
  }
  const sg::Pairs pairs = sg::neighbour_pairs(receivers.size());
  const sg::Tally tally = sg::run(
      receivers.size(), pairs, kTrials / 2, 17,
      [&](util::RngStream& rng, std::vector<char>& out) {
        (void)model::rayleigh_successes(net, senders, receivers,
                                        units::Threshold(beta), rng, out);
      });
  const sg::Verdict v = sg::against_law(tally, q, pairs).verdict();
  EXPECT_TRUE(v.pass) << v.failures;
}

TEST(StatGate, PoissonArrivalsFollowThePmf) {
  // Per link: P(count == k) for k < 3 and P(count >= 3). Per slot: the
  // total against Poisson(n_active * rate), whose fourth cumulant equals its
  // mean. Pairs: both links of a pair receive at least one packet. Inactive
  // links receive nothing.
  constexpr std::size_t n = 16;
  serve::TrafficConfig config;
  config.mean_rate = 0.7;
  serve::TrafficGenerator traffic(config, n);
  std::vector<char> active(n, 1);
  active[3] = active[11] = 0;
  const double rate = config.mean_rate;
  const double pmf[3] = {std::exp(-rate), rate * std::exp(-rate),
                         rate * rate / 2.0 * std::exp(-rate)};
  const double some = 1.0 - pmf[0];
  const double total_mean = rate * static_cast<double>(n - 2);

  std::vector<std::uint64_t> hits(n * 4, 0), joint(n - 1, 0);
  std::uint64_t idle = 0;
  double sum = 0.0, sq = 0.0;
  util::RngStream rng(15);
  std::vector<serve::ArrivalEvent> events;
  for (std::size_t t = 0; t < kTrials; ++t) {
    traffic.arrivals(rng, active, events);
    const std::vector<std::uint32_t> out = testing::dense_arrivals(events, n);
    double total = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      if (active[i] == 0) {
        idle += out[i];
        continue;
      }
      ++hits[i * 4 + std::min<std::uint32_t>(out[i], 3)];
      total += out[i];
    }
    for (std::size_t i = 0; i + 1 < n; ++i) {
      if (out[i] > 0 && out[i + 1] > 0) ++joint[i];
    }
    sum += total;
    sq += (total - total_mean) * (total - total_mean);
  }

  sg::Gate gate;
  const double trials = static_cast<double>(kTrials);
  gate.check("inactive arrivals", static_cast<double>(idle), 0.0, 0.0);
  for (std::size_t i = 0; i < n; ++i) {
    if (active[i] == 0) continue;
    double tail = 1.0;
    for (std::size_t k = 0; k < 4; ++k) {
      const double p = k < 3 ? pmf[k] : tail;
      if (k < 3) tail -= pmf[k];
      gate.check("link " + std::to_string(i) + " count " + std::to_string(k),
                 static_cast<double>(hits[i * 4 + k]), trials * p,
                 trials * p * (1.0 - p));
    }
  }
  for (std::size_t i = 0; i + 1 < n; ++i) {
    const double p = (active[i] != 0 && active[i + 1] != 0) ? some * some : 0.0;
    gate.check("pair " + std::to_string(i), static_cast<double>(joint[i]),
               trials * p, trials * p * (1.0 - p));
  }
  gate.check("total mean", sum, trials * total_mean, trials * total_mean);
  gate.check("total variance", sq, trials * total_mean,
             trials * (total_mean + 2.0 * total_mean * total_mean));
  const sg::Verdict v = gate.verdict();
  EXPECT_TRUE(v.pass) << v.failures;
}

TEST(StatGate, ChurnFollowsBernoulli) {
  // Per link: an active link leaves with probability leave, an inactive one
  // joins with probability join, and neither ever takes the other's event.
  // Per slot: the event count against its Poisson-binomial law. Pairs: both
  // links of a pair churn in the same slot. No link leaves and joins at once.
  constexpr std::size_t n = 16;
  constexpr double leave = 0.05;
  constexpr double join = 0.2;
  const std::vector<char> active = {1, 1, 0, 1, 0, 0, 1, 1,
                                    1, 0, 1, 0, 1, 1, 0, 0};
  std::vector<double> p(n);
  double mean = 0.0, var = 0.0, kappa4 = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    p[i] = active[i] != 0 ? leave : join;
    const double v = p[i] * (1.0 - p[i]);
    mean += p[i];
    var += v;
    kappa4 += v * (1.0 - 6.0 * v);
  }

  std::vector<std::uint64_t> hits(n, 0), joint(n - 1, 0);
  std::uint64_t wrong_state = 0, both = 0, unordered = 0;
  double sum = 0.0, sq = 0.0;
  util::RngStream rng(16);
  std::vector<std::size_t> ids;
  std::vector<char> left(n), joined(n), churned(n);
  for (std::size_t t = 0; t < kTrials; ++t) {
    const std::size_t leavers =
        serve::churn_events(rng, leave, join, active, ids);
    std::fill(left.begin(), left.end(), 0);
    std::fill(joined.begin(), joined.end(), 0);
    for (std::size_t k = 0; k < ids.size(); ++k) {
      const std::size_t i = ids[k];
      const bool leaving = k < leavers;
      if (leaving != (active[i] != 0)) ++wrong_state;
      if (k > 0 && k != leavers && ids[k - 1] >= i) ++unordered;
      (leaving ? left : joined)[i] = 1;
    }
    for (std::size_t i = 0; i < n; ++i) {
      if (left[i] != 0 && joined[i] != 0) ++both;
      churned[i] = static_cast<char>(left[i] | joined[i]);
      hits[i] += static_cast<std::uint64_t>(churned[i]);
    }
    for (std::size_t i = 0; i + 1 < n; ++i) {
      if (churned[i] != 0 && churned[i + 1] != 0) ++joint[i];
    }
    const double total = static_cast<double>(ids.size());
    sum += total;
    sq += (total - mean) * (total - mean);
  }

  sg::Gate gate;
  const double trials = static_cast<double>(kTrials);
  gate.check("event on a link in the other state",
             static_cast<double>(wrong_state), 0.0, 0.0);
  gate.check("leave and join in one slot", static_cast<double>(both), 0.0,
             0.0);
  gate.check("lists not ascending", static_cast<double>(unordered), 0.0, 0.0);
  for (std::size_t i = 0; i < n; ++i) {
    gate.check("link " + std::to_string(i), static_cast<double>(hits[i]),
               trials * p[i], trials * p[i] * (1.0 - p[i]));
  }
  for (std::size_t i = 0; i + 1 < n; ++i) {
    const double pp = p[i] * p[i + 1];
    gate.check("pair " + std::to_string(i), static_cast<double>(joint[i]),
               trials * pp, trials * pp * (1.0 - pp));
  }
  gate.check("total mean", sum, trials * mean, trials * var);
  gate.check("total variance", sq, trials * var,
             trials * (kappa4 + 2.0 * var * var));
  const sg::Verdict v = gate.verdict();
  EXPECT_TRUE(v.pass) << v.failures;
}

// ---- power ----------------------------------------------------------------

TEST(StatGate, RejectsBetaScaledByOnePercent) {
  const model::Network net = power_network();
  const model::LinkSet active = every_link(net.size());
  const double beta = 2.5;
  const std::vector<double> q = theorem1_law(net, active, beta);
  const sg::Pairs pairs = sg::neighbour_pairs(active.size());
  const sg::Tally tally = sg::run(active.size(), pairs, kTrials, 11,
                                  kernel_sampler(net, active, 1.01 * beta));
  const sg::Verdict v = sg::against_law(tally, q, pairs).verdict();
  EXPECT_FALSE(v.pass) << v.failures;
}

TEST(StatGate, RejectsAUniformSharedByTwoReceivers) {
  // Decides every receiver from its exact Q_i, but receiver 1 reuses
  // receiver 0's uniform: right marginals, dependent outcomes.
  const model::Network net = power_network();
  const model::LinkSet active = every_link(net.size());
  const double beta = 2.5;
  const std::vector<double> q = theorem1_law(net, active, beta);
  const sg::Pairs pairs = sg::neighbour_pairs(active.size());
  const sg::Tally tally = sg::run(
      active.size(), pairs, kTrials, 16,
      [&q](util::RngStream& rng, std::vector<char>& out) {
        out.assign(q.size(), 0);
        double u = 0.0;
        for (std::size_t a = 0; a < q.size(); ++a) {
          if (a != 1) u = rng.uniform();
          out[a] = u < q[a];
        }
      });
  const sg::Verdict v = sg::against_law(tally, q, pairs).verdict();
  EXPECT_FALSE(v.pass) << v.failures;
}

}  // namespace
}  // namespace raysched
