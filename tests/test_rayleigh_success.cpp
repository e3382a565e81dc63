// Pins for the Rayleigh threshold kernel (model::rayleigh_successes and
// count_successes_rayleigh), an exact Theorem-1 sampler: one uniform per
// receiver against its Q_i.
//
// The protocol tests replay the uniforms and check every decision, the draw
// count and the final RNG state. The value tests tie the kernel's
// product-form Q_i to core's general-q Theorem 1 and to the value functions.
// The gate cases check the kernel's law against thresholded
// sinr_rayleigh_all, the independent pairwise reference, with the
// statistical gate (stat_gate.hpp). The golden tests pin fixed-seed outcomes
// of every thresholding caller.
#include <gtest/gtest.h>

#include <algorithm>
#include <cfloat>
#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

#include "stat_gate.hpp"
#include "test_helpers.hpp"

namespace raysched {
namespace {

namespace sg = raysched::testing::stat_gate;
using raysched::testing::paper_network;

model::LinkSet bernoulli_subset(std::size_t n, double p,
                                util::RngStream& rng) {
  model::LinkSet set;
  for (model::LinkId i = 0; i < n; ++i) {
    if (rng.bernoulli(p)) set.push_back(i);
  }
  return set;
}

// Every link, unsorted, with one id repeated: sinr_rayleigh_all does not
// normalize its input, so neither may the kernel.
model::LinkSet scrambled_with_duplicate(std::size_t n) {
  model::LinkSet set;
  for (model::LinkId i = n; i-- > 0;) set.push_back(i);
  set.push_back(static_cast<model::LinkId>(n / 2));
  return set;
}

// Raw gain matrix: diagonal `signal`, off-diagonal `cross` where the draw
// keeps it (probability `keep`), zero otherwise.
model::Network raw_network(std::size_t n, double signal, double cross,
                           double keep, double noise, std::uint64_t seed) {
  util::RngStream rng(seed);
  std::vector<double> gains(n * n, 0.0);
  for (std::size_t j = 0; j < n; ++j) {
    for (std::size_t i = 0; i < n; ++i) {
      if (i == j) {
        gains[j * n + i] = signal * (0.5 + rng.uniform());
      } else if (rng.bernoulli(keep)) {
        gains[j * n + i] = cross * (0.5 + rng.uniform());
      }
    }
  }
  return model::Network(n, std::move(gains), units::Power(noise));
}

// ---- protocol: one uniform per receiver ------------------------------------

// Replays the uniforms: receiver a succeeds iff the a-th uniform of the call
// is below its Q_i, the count and count_successes_rayleigh agree, and both
// leave the RNG exactly |active| uniforms on.
void expect_one_uniform_each(const model::Network& net,
                             const model::LinkSet& active, double beta,
                             std::uint64_t seed) {
  util::RngStream replay(seed), kernel(seed), counted(seed);
  std::vector<char> ok(3, 7);  // dirty, wrong-sized buffer
  const std::size_t count = model::rayleigh_successes(
      net, active, units::Threshold(beta), kernel, ok);
  ASSERT_EQ(ok.size(), active.size());
  std::size_t expected = 0;
  for (std::size_t a = 0; a < active.size(); ++a) {
    const double q =
        model::detail::success_chance(net, active, active[a],
                                       units::Threshold(beta));
    const bool want = replay.uniform() < q;
    EXPECT_EQ(ok[a] != 0, want) << "receiver " << a << " q " << q;
    if (want) ++expected;
  }
  EXPECT_EQ(count, expected);
  EXPECT_EQ(model::count_successes_rayleigh(net, active,
                                            units::Threshold(beta), counted),
            expected);
  const std::uint64_t next = replay.next_u64();
  EXPECT_EQ(kernel.next_u64(), next) << "kernel drew differently";
  EXPECT_EQ(counted.next_u64(), next) << "count drew differently";
}

TEST(RayleighSuccess, DecidesEachReceiverWithOneUniformBelowItsChance) {
  for (std::size_t n : {1u, 2u, 40u, 300u}) {
    const model::Network net = paper_network(n, 100 + n);
    util::RngStream picks(n);
    for (int seed = 0; seed < 4; ++seed) {
      for (double p : {0.25, 0.7, 1.0}) {
        const model::LinkSet active = bernoulli_subset(n, p, picks);
        for (double beta : {0.05, 1.0, 10.0}) {
          expect_one_uniform_each(net, active, beta, 1000 * n + seed);
        }
      }
      expect_one_uniform_each(net, scrambled_with_duplicate(n), 2.5, seed);
    }
  }
}

TEST(RayleighSuccess, ZeroOwnSignalNeverSucceedsAndStillDraws) {
  // Link 2 is so long that its own mean signal underflows to 0: Q = 0, and
  // its uniform is drawn anyway. The value functions give it 0 as well,
  // also at zero noise, where the noise term would read 0 / 0.
  std::vector<model::Link> links;
  for (double y : {0.0, 50.0, 100.0, 150.0, 200.0}) {
    links.push_back({model::Point{0.0, y}, model::Point{30.0, y}});
  }
  links[2].sender = model::Point{-1e200, 100.0};
  const model::LinkSet active = {0, 1, 2, 3, 4};
  const units::Threshold beta(1.0);
  for (double noise : {4e-7, 0.0}) {
    const model::Network net(links, model::PowerAssignment::uniform(2.0), 2.2,
                             units::Power(noise));
    ASSERT_EQ(net.signal(2), 0.0);
    EXPECT_EQ(model::detail::success_chance(net, active, 2, beta), 0.0);
    EXPECT_EQ(model::success_probability_rayleigh(net, active, 2, beta).value(),
              0.0)
        << "noise " << noise;
    const double expected =
        model::expected_successes_rayleigh(net, active, beta);
    EXPECT_TRUE(std::isfinite(expected)) << "noise " << noise;
    EXPECT_GT(expected, 0.0);
    for (std::uint64_t seed = 0; seed < 50; ++seed) {
      std::vector<char> ok;
      util::RngStream rng(seed);
      (void)model::rayleigh_successes(net, active, beta, rng, ok);
      EXPECT_EQ(ok[2], 0);
      expect_one_uniform_each(net, active, 1.0, seed);
    }
  }
}

TEST(RayleighSuccess, EmptySetDecidesNothingAndDrawsNothing) {
  const model::Network net = paper_network(5, 3);
  util::RngStream rng(9), untouched(9);
  std::vector<char> ok(4, 1);
  EXPECT_EQ(model::rayleigh_successes(net, {}, units::Threshold(1.0), rng, ok),
            0u);
  EXPECT_TRUE(ok.empty());
  EXPECT_EQ(model::count_successes_rayleigh(net, {}, units::Threshold(1.0),
                                            rng),
            0u);
  EXPECT_EQ(model::rayleigh_successes(net, {0, 1}, {}, units::Threshold(1.0),
                                      rng, ok),
            0u);
  EXPECT_EQ(rng.next_u64(), untouched.next_u64());
}

TEST(RayleighSuccess, ReceiversFormDecidesTheCounterfactualSet) {
  // Receivers form: receiver r is decided on Q_r of senders + {r}, with one
  // uniform each in receiver order; receivers == senders is the active form.
  const model::Network net = paper_network(40, 21);
  util::RngStream picks(5);
  for (std::uint64_t seed = 0; seed < 6; ++seed) {
    const model::LinkSet senders = bernoulli_subset(40, 0.4, picks);
    model::LinkSet receivers;
    for (model::LinkId i = 0; i < 40; ++i) receivers.push_back(i);
    util::RngStream replay(seed), kernel(seed);
    std::vector<char> ok;
    const std::size_t count = model::rayleigh_successes(
        net, senders, receivers, units::Threshold(2.5), kernel, ok);
    ASSERT_EQ(ok.size(), receivers.size());
    std::size_t expected = 0;
    for (model::LinkId r : receivers) {
      model::LinkSet with_r = senders;
      if (std::find(senders.begin(), senders.end(), r) == senders.end()) {
        with_r.push_back(r);
      }
      const double q =
          model::success_probability_rayleigh(net, with_r, r,
                                              units::Threshold(2.5))
              .value();
      EXPECT_EQ(ok[r] != 0, replay.uniform() < q);
      if (ok[r] != 0) ++expected;
    }
    EXPECT_EQ(count, expected);
    EXPECT_EQ(kernel.next_u64(), replay.next_u64());

    util::RngStream active_form(seed), receivers_form(seed);
    std::vector<char> a, b;
    EXPECT_EQ(model::rayleigh_successes(net, senders, units::Threshold(2.5),
                                        active_form, a),
              model::rayleigh_successes(net, senders, senders,
                                        units::Threshold(2.5), receivers_form,
                                        b));
    EXPECT_EQ(a, b);
  }
}

// ---- value: the product form against independent code --------------------

// Theorem 1 for every member of `active`, in set order, from core's
// general-q expression rather than success_chance:
// core::rayleigh_success_probability on the indicator vector of the set's
// own gain matrix, entry (a, b) = S̄(active[a], active[b]). A repeated
// interferer so counts once per copy, as in the kernel; the receiver's other
// copies are off. Gains and noise are scaled by the power of two that puts
// the largest gain near 1: Q_i is invariant under a common scale, the scale
// is exact, and it keeps core's beta S̄ finite at the extreme magnitudes.
std::vector<double> theorem1_reference(const model::Network& net,
                                       const model::LinkSet& active,
                                       double beta) {
  const std::size_t m = active.size();
  if (m == 0) return {};
  double largest = 0.0;
  for (model::LinkId j : active) {
    for (model::LinkId i : active) {
      largest = std::max(largest, net.mean_gain(j, i));
    }
  }
  const int shift = -std::ilogb(largest);
  std::vector<double> gains(m * m);
  for (std::size_t a = 0; a < m; ++a) {
    for (std::size_t b = 0; b < m; ++b) {
      gains[a * m + b] =
          std::ldexp(net.mean_gain(active[a], active[b]), shift);
    }
  }
  const model::Network own(m, std::move(gains),
                           units::Power(std::ldexp(net.noise(), shift)));
  std::vector<double> values;
  for (std::size_t a = 0; a < m; ++a) {
    units::ProbabilityVector on(m, units::Probability(1.0));
    for (std::size_t b = 0; b < m; ++b) {
      if (b != a && active[b] == active[a]) on[b] = units::Probability(0.0);
    }
    values.push_back(
        core::rayleigh_success_probability(own, on, a, units::Threshold(beta))
            .value());
  }
  return values;
}

// detail::success_chance of every member against theorem1_reference within
// 1e-12 relative, and the value function against success_chance bit for
// bit.
void expect_chance_matches_value(const model::Network& net,
                                 const model::LinkSet& active, double beta) {
  const std::vector<double> reference = theorem1_reference(net, active, beta);
  for (std::size_t a = 0; a < active.size(); ++a) {
    const model::LinkId i = active[a];
    const double chance = model::detail::success_chance(
        net, active, i, units::Threshold(beta));
    EXPECT_NEAR(chance, reference[a], 1e-12 * reference[a] + DBL_MIN)
        << "link " << i << " beta " << beta;
    EXPECT_EQ(model::success_probability_rayleigh(net, active, i,
                                                  units::Threshold(beta))
                  .value(),
              chance)
        << "link " << i << " beta " << beta;
  }
}

TEST(RayleighSuccess, SuccessChanceMatchesTheValueFunction) {
  for (std::size_t n : {1u, 2u, 40u, 300u}) {
    const model::Network net = paper_network(n, 100 + n);
    util::RngStream picks(n);
    for (double p : {0.25, 0.7, 1.0}) {
      const model::LinkSet active = bernoulli_subset(n, p, picks);
      for (double beta : {0.05, 0.5, 2.5, 10.0}) {
        expect_chance_matches_value(net, active, beta);
      }
    }
    expect_chance_matches_value(net, scrambled_with_duplicate(n), 2.5);
  }
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    for (double beta : {0x1p-450, 0.05, 1.0, 10.0, 0x1p450}) {
      // Zero cross gains, with and without noise.
      expect_chance_matches_value(raw_network(6, 1.0, 0.0, 0.0, 0.1, seed),
                                  {0, 1, 2, 3, 4, 5}, beta);
      expect_chance_matches_value(raw_network(6, 1.0, 0.0, 0.0, 0.0, seed),
                                  {0, 1, 2, 3, 4, 5}, beta);
      // Half the cross gains zero, noise-free.
      expect_chance_matches_value(raw_network(30, 2.0, 0.3, 0.5, 0.0, seed),
                                  scrambled_with_duplicate(30), beta);
      // Extreme magnitudes: beta / S(i,i) overflows at the tiny gains.
      expect_chance_matches_value(raw_network(12, 1e200, 1e199, 0.8, 0.0, seed),
                                  scrambled_with_duplicate(12), beta);
      expect_chance_matches_value(
          raw_network(12, 1e-200, 1e-201, 0.8, 0.0, seed),
          scrambled_with_duplicate(12), beta);
      // A denormal own signal: beta / S(i,i) overflows from beta = 0.05 up,
      // so the division branch decides.
      expect_chance_matches_value(
          raw_network(12, 1e-310, 1e-311, 0.8, 0.0, seed),
          scrambled_with_duplicate(12), beta);
    }
  }
}

// ---- gate cases: the kernel's law against sinr_rayleigh_all ----------------

// Two-sample gate: the kernel's decisions against thresholded
// sinr_rayleigh_all on the same set, over 2000 slots each.
void expect_same_law(const model::Network& net, const model::LinkSet& active,
                     double beta, std::uint64_t seed) {
  constexpr std::size_t trials = 2000;
  const sg::Pairs pairs = sg::neighbour_pairs(active.size());
  const sg::Tally kernel = sg::run(
      active.size(), pairs, trials, seed,
      [&](util::RngStream& rng, std::vector<char>& out) {
        (void)model::rayleigh_successes(net, active, units::Threshold(beta),
                                        rng, out);
      });
  std::vector<double> sinrs;
  const sg::Tally pairwise = sg::run(
      active.size(), pairs, trials, seed + 1,
      [&](util::RngStream& rng, std::vector<char>& out) {
        model::sinr_rayleigh_all(net, active, rng, sinrs);
        out.assign(sinrs.size(), 0);
        for (std::size_t a = 0; a < sinrs.size(); ++a) {
          out[a] = sinrs[a] >= beta ? 1 : 0;
        }
      });
  const sg::Verdict v = sg::against_sample(kernel, pairwise, pairs).verdict();
  EXPECT_TRUE(v.pass) << "|A| " << active.size() << " beta " << beta << "\n"
                      << v.failures;
}

TEST(RayleighSuccess, MatchesSinrRayleighAllOnRandomPlaneNetworks) {
  for (std::size_t n : {1u, 2u, 40u}) {
    const model::Network net = paper_network(n, 100 + n);
    util::RngStream picks(n);
    for (double p : {0.25, 0.7, 1.0}) {
      const model::LinkSet active = bernoulli_subset(n, p, picks);
      for (double beta : {0.05, 0.5, 2.5, 10.0}) {
        expect_same_law(net, active, beta, 1000 * n);
      }
    }
    expect_same_law(net, scrambled_with_duplicate(n), 2.5, n);
  }
}

TEST(RayleighSuccess, MatchesOnRawMatricesWithZeroGainsAndNoNoise) {
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    // Diagonal only: no interference, so only the noise can fail a link.
    expect_same_law(raw_network(6, 1.0, 0.0, 0.0, 0.1, seed),
                    {0, 1, 2, 3, 4, 5}, 1.0, seed);
    // Diagonal only and noise-free: every link succeeds.
    expect_same_law(raw_network(6, 1.0, 0.0, 0.0, 0.0, seed),
                    {0, 1, 2, 3, 4, 5}, 1.0, seed);
    for (double beta : {0x1p-450, 0.05, 1.0, 10.0, 0x1p450}) {
      // Half the cross gains zero, noise-free.
      expect_same_law(raw_network(30, 2.0, 0.3, 0.5, 0.0, seed),
                      scrambled_with_duplicate(30), beta, seed);
      // Extreme magnitudes.
      expect_same_law(raw_network(12, 1e200, 1e199, 0.8, 0.0, seed),
                      scrambled_with_duplicate(12), beta, seed);
      expect_same_law(raw_network(12, 1e-200, 1e-201, 0.8, 0.0, seed),
                      scrambled_with_duplicate(12), beta, seed);
    }
  }
}

TEST(RayleighSuccess, BetaOnARealizedSinrIsDecidedExactly) {
  // beta placed on realized SINRs of the pairwise reference, and one ulp
  // above: the kernel's law must still match thresholding the reference.
  const model::Network net = paper_network(40, 7);
  model::LinkSet active;
  for (model::LinkId i = 0; i < 40; i += 2) active.push_back(i);
  for (std::uint64_t seed = 0; seed < 2; ++seed) {
    util::RngStream probe(seed);
    const std::vector<double> sinrs =
        model::sinr_rayleigh_all(net, active, probe);
    for (std::size_t a = 0; a < active.size(); a += 4) {
      const double s = sinrs[a];
      ASSERT_TRUE(std::isfinite(s) && s > 0.0);
      expect_same_law(net, active, s, 10 * seed + a);
      expect_same_law(net, active,
                      std::nextafter(s, std::numeric_limits<double>::infinity()),
                      10 * seed + a);
    }
  }
}

// ---- validation -----------------------------------------------------------

TEST(RayleighSuccess, OutOfRangeIdThrowsBeforeAnyGainIsRead) {
  // Receiver 0's loop would read S(1000000, 0) before the id check that
  // used to run only when 1000000 became the receiver.
  const model::Network net = paper_network(2, 1);
  const model::LinkSet bad = {0, 1000000};
  util::RngStream rng(1);
  std::vector<double> sinrs;
  std::vector<char> ok;
  EXPECT_THROW((void)model::sinr_rayleigh_all(net, bad, rng), raysched::error);
  EXPECT_THROW(model::sinr_rayleigh_all(net, bad, rng, sinrs),
               raysched::error);
  EXPECT_THROW(model::rayleigh_successes(net, bad, units::Threshold(1.0), rng,
                                         ok),
               raysched::error);
  EXPECT_THROW((void)model::count_successes_rayleigh(
                   net, bad, units::Threshold(1.0), rng),
               raysched::error);
  EXPECT_THROW(model::rayleigh_successes(net, {0, 1}, bad,
                                         units::Threshold(1.0), rng, ok),
               raysched::error);
  EXPECT_THROW(model::rayleigh_successes(net, bad, {0, 1},
                                         units::Threshold(1.0), rng, ok),
               raysched::error);
}

// ---- goldens --------------------------------------------------------------

std::uint64_t fnv_mix(std::uint64_t h, std::uint64_t v) {
  for (int b = 0; b < 8; ++b) {
    h ^= (v >> (8 * b)) & 0xFF;
    h *= 1099511628211ULL;
  }
  return h;
}

constexpr std::uint64_t kFnvBasis = 1469598103934665603ULL;

TEST(RayleighSuccess, GoldenAhmServiceWithChurn) {
  serve::ServeConfig config;
  config.master_seed = 2024;
  config.beta = units::Threshold(1.5);
  config.propagation = core::Propagation::Rayleigh;
  config.policy = serve::PolicyKind::Ahm;
  config.traffic.model = serve::TrafficModel::Poisson;
  config.traffic.mean_rate = 0.2;
  config.queue_cap = 64;
  config.churn_leave = units::Probability(0.01);
  config.churn_join = units::Probability(0.05);
  config.agent_threads = 1;
  serve::Service service(paper_network(48, 17), config);
  const serve::ServeReport report = service.run(800);
  EXPECT_EQ(service.trajectory_hash(), 0xd492924007579b60ULL);
  EXPECT_EQ(report.served, 5819u);
}

TEST(RayleighSuccess, GoldenCountSuccesses) {
  const model::Network net = paper_network(60, 5);
  model::LinkSet active;
  for (model::LinkId i = 0; i < 60; i += 3) active.push_back(i);
  util::RngStream rng(77);
  std::uint64_t hash = kFnvBasis;
  std::uint64_t total = 0;
  for (int slot = 0; slot < 300; ++slot) {
    const std::size_t c = model::count_successes_rayleigh(
        net, active, units::Threshold(4.0), rng);
    hash = fnv_mix(hash, c);
    total += c;
  }
  EXPECT_EQ(total, 3718u);
  EXPECT_EQ(hash, 0x0b4495df7c8de1a5ULL);
  EXPECT_EQ(rng.next_u64(), 0x2de60a9028c47ad5ULL);
}

TEST(RayleighSuccess, GoldenRepeatedCapacitySchedule) {
  const model::Network net = paper_network(200, 9);
  util::RngStream rng(31);
  const algorithms::LatencyResult result =
      algorithms::repeated_capacity_schedule(net, 2.5,
                                             core::Propagation::Rayleigh, rng);
  std::uint64_t hash = kFnvBasis;
  for (std::size_t s : result.first_success_slot) hash = fnv_mix(hash, s);
  EXPECT_TRUE(result.completed);
  EXPECT_EQ(result.slots, 14u);
  EXPECT_EQ(hash, 0x66f156c1805420a7ULL);
}

TEST(RayleighSuccess, GoldenMaxWeightQueueing) {
  // Max-weight at the fastest cadence the service allows: a recompute
  // submitted every slot and adopted the next.
  serve::ServeConfig config;
  config.master_seed = 8;
  config.beta = units::Threshold(2.5);
  config.propagation = core::Propagation::Rayleigh;
  config.traffic.model = serve::TrafficModel::Poisson;
  config.traffic.mean_rate = 0.3;
  config.recompute_period = 1;
  config.recompute_latency = 1;
  serve::Service service(paper_network(30, 4), config);
  const serve::ServeReport report = service.run(1200);
  std::uint64_t hash = kFnvBasis;
  for (std::uint64_t q : service.snapshot().queues) hash = fnv_mix(hash, q);
  EXPECT_TRUE(report.conservation_ok);
  EXPECT_EQ(report.served, 10697u);
  EXPECT_EQ(report.backlog, 19u);
  EXPECT_EQ(report.trajectory_hash, 0xc40ab429cc36b5a8ULL);
  EXPECT_EQ(hash, 0x85745f4243cb3082ULL);
}

TEST(RayleighSuccess, GoldenMultihopSchedule) {
  const model::Network net = paper_network(90, 12);
  std::vector<algorithms::MultihopRequest> requests;
  for (model::LinkId i = 0; i < 90; i += 3) {
    requests.push_back({{i, i + 1, i + 2}});
  }
  util::RngStream rng(19);
  const algorithms::MultihopResult result = algorithms::schedule_multihop(
      net, requests, 2.0, core::Propagation::Rayleigh, rng);
  std::uint64_t hash = kFnvBasis;
  for (std::size_t s : result.completion_slot) hash = fnv_mix(hash, s);
  EXPECT_TRUE(result.completed);
  EXPECT_EQ(result.slots, 20u);
  EXPECT_EQ(hash, 0x77aa42567d0fd3a3ULL);
}

}  // namespace
}  // namespace raysched
