// Exactness pins for the Rayleigh threshold kernel (model::
// rayleigh_successes) and the -ln helper it sums with (util::neg_log).
//
// The kernel must decide every receiver exactly as thresholding
// sinr_rayleigh_all does and leave the RNG where sinr_rayleigh_all leaves
// it. The differential tests compare the two over seeds and shapes, the
// boundary test puts beta on a realized SINR so the certified filter
// cannot decide and the exact replay must, and the golden tests pin
// fixed-seed outcomes of every thresholding caller (values recorded from
// the sinr_rayleigh_all implementation, before the kernel existed).
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

#include "test_helpers.hpp"
#include "util/neg_log.hpp"

namespace raysched {
namespace {

using raysched::testing::paper_network;

// Decisions, count and final RNG state of the kernel and of
// count_successes_rayleigh against thresholded sinr_rayleigh_all.
void expect_same_decisions(const model::Network& net,
                           const model::LinkSet& active, double beta,
                           std::uint64_t seed) {
  util::RngStream exact(seed), kernel(seed), counted(seed);
  const std::vector<double> sinrs =
      model::sinr_rayleigh_all(net, active, exact);
  std::vector<char> ok(3, 7);  // dirty, wrong-sized buffer
  const std::size_t count = model::rayleigh_successes(
      net, active, units::Threshold(beta), kernel, ok);
  ASSERT_EQ(ok.size(), active.size());
  std::size_t expected = 0;
  for (std::size_t a = 0; a < active.size(); ++a) {
    const bool want = sinrs[a] >= beta;
    EXPECT_EQ(ok[a] != 0, want) << "receiver " << a << " sinr " << sinrs[a]
                                << " beta " << beta << " seed " << seed;
    if (want) ++expected;
  }
  EXPECT_EQ(count, expected);
  EXPECT_EQ(model::count_successes_rayleigh(net, active,
                                            units::Threshold(beta), counted),
            expected);
  const std::uint64_t next = exact.next_u64();
  EXPECT_EQ(kernel.next_u64(), next) << "kernel drew differently";
  EXPECT_EQ(counted.next_u64(), next) << "count drew differently";
}

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

const std::vector<double>& betas() {
  static const std::vector<double> values = {
      0.05, 0.5, 1.0, 2.5, 10.0,
      // Outside the filter's certified range: every receiver is exact.
      0x1p-450, 0x1p450};
  return values;
}

// ---- differential ---------------------------------------------------------

TEST(RayleighSuccess, MatchesSinrRayleighAllOnRandomPlaneNetworks) {
  for (std::size_t n : {1u, 2u, 40u, 300u}) {
    const model::Network net = paper_network(n, 100 + n);
    util::RngStream picks(n);
    const int seeds = n >= 300 ? 3 : 12;
    for (int seed = 0; seed < seeds; ++seed) {
      for (double p : {0.25, 0.7, 1.0}) {
        const model::LinkSet active = bernoulli_subset(n, p, picks);
        for (double beta : betas()) {
          expect_same_decisions(net, active, beta, 1000 * n + seed);
        }
      }
      expect_same_decisions(net, scrambled_with_duplicate(n), 2.5, seed);
    }
  }
}

TEST(RayleighSuccess, MatchesOnRawMatricesWithZeroGainsAndNoNoise) {
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    // Diagonal only: every interference term is skipped without a draw.
    expect_same_decisions(raw_network(6, 1.0, 0.0, 0.0, 0.1, seed),
                          {0, 1, 2, 3, 4, 5}, 1.0, seed);
    // Diagonal only and noise-free: the interference is exactly zero and
    // the exact replay returns an infinite SINR.
    expect_same_decisions(raw_network(6, 1.0, 0.0, 0.0, 0.0, seed),
                          {0, 1, 2, 3, 4, 5}, 1.0, seed);
    for (double beta : betas()) {
      // Half the cross gains zero, noise-free.
      expect_same_decisions(raw_network(30, 2.0, 0.3, 0.5, 0.0, seed),
                            scrambled_with_duplicate(30), beta, seed);
      // Gains far outside the filter's certified interference range.
      expect_same_decisions(raw_network(12, 1e200, 1e199, 0.8, 0.0, seed),
                            scrambled_with_duplicate(12), beta, seed);
      expect_same_decisions(raw_network(12, 1e-200, 1e-201, 0.8, 0.0, seed),
                            scrambled_with_duplicate(12), beta, seed);
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
  EXPECT_EQ(rng.next_u64(), untouched.next_u64());
  expect_same_decisions(net, {}, 1.0, 9);
}

// ---- boundary: the exact replay ------------------------------------------

TEST(RayleighSuccess, BetaOnARealizedSinrIsDecidedExactly) {
  const model::Network net = paper_network(40, 7);
  model::LinkSet active;
  for (model::LinkId i = 0; i < 40; i += 2) active.push_back(i);
  for (std::uint64_t seed = 0; seed < 8; ++seed) {
    util::RngStream probe(seed);
    const std::vector<double> sinrs =
        model::sinr_rayleigh_all(net, active, probe);
    for (std::size_t a = 0; a < active.size(); a += 3) {
      const double s = sinrs[a];
      ASSERT_TRUE(std::isfinite(s) && s > 0.0);
      std::vector<char> ok;
      util::RngStream at(seed);
      (void)model::rayleigh_successes(net, active, units::Threshold(s), at,
                                      ok);
      EXPECT_EQ(ok[a], 1) << "beta == realized SINR must succeed";
      util::RngStream above(seed);
      const double next = std::nextafter(s, std::numeric_limits<double>::infinity());
      (void)model::rayleigh_successes(net, active, units::Threshold(next),
                                      above, ok);
      EXPECT_EQ(ok[a], 0) << "beta one ulp above the SINR must fail";
      expect_same_decisions(net, active, s, seed);
      expect_same_decisions(net, active, next, seed);
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
}

// ---- the -ln helper -------------------------------------------------------

// -ln x to within a couple of ulps: log1p of the exact x - 1 where x is in
// [0.5, 2] (Sterbenz), log elsewhere (|ln x| >= ln 2, well conditioned).
double reference_neg_log(double x) {
  return x >= 0.5 && x <= 2.0 ? -std::log1p(x - 1.0) : -std::log(x);
}

double neg_log_rel_error(double x) {
  const double ref = reference_neg_log(x);
  return std::fabs(util::neg_log(x) - ref) / std::fabs(ref);
}

TEST(RayleighSuccess, NegLogIsExactAtOneAndWithinBoundAtTheEnds) {
  EXPECT_EQ(util::neg_log(1.0), 0.0);
  // The extreme Exp(1) draw: u = 1 - 2^-53.
  EXPECT_LE(neg_log_rel_error(0x1p-53), util::kNegLogRelError);
  EXPECT_LE(neg_log_rel_error(std::nextafter(1.0, 0.0)),
            util::kNegLogRelError);
}

TEST(RayleighSuccess, NegLogWithinBoundAtEveryCellEdge) {
  // Cell k of the table covers mantissas within 1/256 of 1 + k/128; probe
  // both sides of each rounding edge at every exponent the kernel sees.
  double worst = 0.0;
  for (int e = -53; e <= 0; ++e) {
    for (int k = 0; k <= 128; ++k) {
      const double edge = std::ldexp(1.0 + (k - 0.5) / 128.0, e - 1);
      for (double x : {std::nextafter(edge, 0.0), edge,
                       std::nextafter(edge, 2.0)}) {
        if (x <= 0.0 || x >= 1.0) continue;
        worst = std::fmax(worst, neg_log_rel_error(x));
      }
    }
  }
  EXPECT_LE(worst, util::kNegLogRelError);
}

TEST(RayleighSuccess, NegLogWithinBoundNearPowersOfTwo) {
  double worst = 0.0;
  for (int e = -53; e <= 0; ++e) {
    double x = std::ldexp(1.0, e);
    for (int step = 0; step < 4; ++step) x = std::nextafter(x, 0.0);
    for (int step = 0; step < 9; ++step) {
      if (x < 1.0) worst = std::fmax(worst, neg_log_rel_error(x));
      x = std::nextafter(x, 2.0);
    }
  }
  EXPECT_LE(worst, util::kNegLogRelError);
}

TEST(RayleighSuccess, NegLogWithinBoundOverSeededSamples) {
  // The kernel's own inputs: x = 1 - u with u the 53-bit uniform, plus a
  // log-uniform sweep that reaches the small-x exponents.
  util::RngStream rng(20240601);
  double worst = 0.0;
  for (int t = 0; t < 10'000'000; ++t) {
    const double x = (t % 2 == 0) ? 1.0 - rng.uniform()
                                  : std::exp2(-53.0 * rng.uniform());
    if (x < 1.0) worst = std::fmax(worst, neg_log_rel_error(x));
  }
  EXPECT_LE(worst, util::kNegLogRelError);
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
  EXPECT_EQ(service.trajectory_hash(), 0x1944dd7a54df4f14ULL);
  EXPECT_EQ(report.served, 5956u);
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
  EXPECT_EQ(total, 3806u);
  EXPECT_EQ(hash, 0xe46c986fe24b3213ULL);
  EXPECT_EQ(rng.next_u64(), 0x21f927c267f84053ULL);
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
  EXPECT_EQ(result.slots, 15u);
  EXPECT_EQ(hash, 0x96934e9e4a93c221ULL);
}

TEST(RayleighSuccess, GoldenMaxWeightQueueing) {
  const model::Network net = paper_network(30, 4);
  algorithms::QueueSimOptions options;
  options.slots = 1200;
  options.beta = units::Threshold(2.5);
  options.propagation = core::Propagation::Rayleigh;
  options.arrival_probs = units::uniform_probabilities(
      net.size(), units::Probability::checked(0.3));
  util::RngStream rng(8);
  const algorithms::QueueSimResult result =
      algorithms::run_max_weight_queueing(net, options, rng);
  std::uint64_t hash = kFnvBasis;
  for (std::size_t q : result.final_queue) hash = fnv_mix(hash, q);
  EXPECT_EQ(result.served_per_slot, 0x1.1d7e4b17e4b18p+3);
  EXPECT_EQ(result.average_backlog, 0x1.4f5c28f5c28f6p+3);
  EXPECT_EQ(hash, 0x8970bd4c38a93720ULL);
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
  EXPECT_EQ(result.slots, 24u);
  EXPECT_EQ(hash, 0x083efeb3406ba827ULL);
}

}  // namespace
}  // namespace raysched
