// Tests for the Rayleigh-optimal probability search (Section 5's optimum
// over transmission probability assignments).
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

#include "test_helpers.hpp"

namespace raysched::algorithms {
namespace {

using model::LinkId;
using raysched::testing::hand_matrix_network;
using raysched::testing::paper_network;

TEST(Gradient, MatchesFiniteDifferences) {
  auto net = hand_matrix_network(0.1);
  const double beta = 1.5;
  const std::vector<double> q = {0.6, 0.3, 0.8};
  const auto grad = expected_capacity_gradient(net, q, beta);
  const double h = 1e-6;
  for (LinkId k = 0; k < 3; ++k) {
    std::vector<double> up = q, dn = q;
    up[k] += h;
    dn[k] -= h;
    const double fd = (core::expected_rayleigh_successes(net, units::probabilities(up), units::Threshold(beta)) -
                       core::expected_rayleigh_successes(net, units::probabilities(dn), units::Threshold(beta))) /
                      (2.0 * h);
    EXPECT_NEAR(grad[k], fd, 1e-5) << "coordinate " << k;
  }
}

TEST(Gradient, FiniteDifferencesOnRandomInstance) {
  auto net = paper_network(10, 77);
  util::RngStream rng(5);
  std::vector<double> q(net.size());
  for (auto& v : q) v = 0.1 + 0.8 * rng.uniform();
  const double beta = 2.5;
  const auto grad = expected_capacity_gradient(net, q, beta);
  const double h = 1e-6;
  for (LinkId k = 0; k < net.size(); k += 3) {
    std::vector<double> up = q, dn = q;
    up[k] += h;
    dn[k] -= h;
    const double fd = (core::expected_rayleigh_successes(net, units::probabilities(up), units::Threshold(beta)) -
                       core::expected_rayleigh_successes(net, units::probabilities(dn), units::Threshold(beta))) /
                      (2.0 * h);
    EXPECT_NEAR(grad[k], fd, 1e-4) << "coordinate " << k;
  }
}

TEST(Gradient, ZeroProbabilityCoordinateHasOwnTermOnly) {
  // With q_k = 0 the cross terms vanish from Q_k but dE/dq_k must still be
  // the marginal value of starting to transmit.
  auto net = hand_matrix_network(0.0);
  const std::vector<double> q = {0.0, 1.0, 0.0};
  const auto grad = expected_capacity_gradient(net, q, 1.0);
  // dE/dq_0 = core_0 - Q_1 * c(0,1) / (1 - c(0,1) * q_0) with q_0 = 0.
  // core_0 has only interferer 1 active: 1/(1 + beta S(1,0)/S(0,0)) = 5/6.
  // Q_1 = q_1 * core_1 = 1 (links 0 and 2 have q = 0, noise 0).
  const double core0 = 1.0 / (1.0 + 1.0 * 2.0 / 10.0);
  const double c01 = 1.0 * 1.0 / (1.0 * 1.0 + 10.0);  // S(0,1) = 1
  EXPECT_NEAR(grad[0], core0 - 1.0 * c01, 1e-12);
}

TEST(GradientAscent, ImprovesObjectiveAndStaysInBox) {
  auto net = paper_network(20, 4);
  const double beta = 2.5;
  std::vector<double> start(net.size(), 0.5);
  const double start_value =
      core::expected_rayleigh_successes(net, units::probabilities(start), units::Threshold(beta));
  const auto result =
      maximize_capacity_gradient_ascent(net, beta, start);
  EXPECT_GE(result.value, start_value);
  for (double v : result.q) {
    EXPECT_GE(v, 0.0);
    EXPECT_LE(v, 1.0);
  }
  EXPECT_NEAR(result.value,
              core::expected_rayleigh_successes(net, units::probabilities(result.q), units::Threshold(beta)), 1e-9);
}

TEST(CoordinateAscent, ReturnsVertexProfile) {
  auto net = paper_network(15, 8);
  const auto result = maximize_capacity_coordinate_ascent(net, 2.5);
  for (double v : result.q) {
    EXPECT_TRUE(v == 0.0 || v == 1.0) << v;
  }
  EXPECT_TRUE(result.converged);
}

TEST(CoordinateAscent, OneFlipLocalOptimality) {
  // The ascent ranks flips by closed-form gains over its transmitting set;
  // core's general-q evaluation is the independent check. Inputs: random
  // networks at three sizes, one at zero noise, and one of mostly zero
  // cross gains whose ascent has to remove a link.
  std::vector<model::Network> nets;
  for (std::size_t n : {12ul, 40ul, 120ul}) {
    for (std::uint64_t seed : {3ull, 4ull, 5ull}) {
      nets.push_back(paper_network(n, seed));
    }
  }
  nets.push_back(paper_network(40, 6, 2.2, 0.0));
  {
    // Four disjoint copies of a 3-link gadget at beta = 2.5: alone, links
    // 0, 1, 2 succeed w.p. e^-0.1, e^-0.05, e^-0.2. Sender 1 hits
    // receiver 0 with a = 9, sender 2 hits receiver 1 with a = 3, and every
    // other cross gain is exactly zero. From the empty set the ascent adds
    // links 1, 2 and 0 of each copy, then must remove link 1: a removal
    // whose gain rests on the large a.
    const std::size_t copies = 4;
    const std::size_t n = 3 * copies;
    std::vector<double> gains(n * n, 0.0);
    for (std::size_t b = 0; b < n; b += 3) {
      gains[b * n + b] = 1.0;
      gains[(b + 1) * n + b + 1] = 2.0;
      gains[(b + 2) * n + b + 2] = 0.5;
      gains[(b + 1) * n + b] = 3.6;
      gains[(b + 2) * n + b + 1] = 2.4;
    }
    nets.emplace_back(n, std::move(gains), units::Power(0.04));
  }
  const double beta = 2.5;
  for (std::size_t t = 0; t < nets.size(); ++t) {
    const model::Network& net = nets[t];
    SCOPED_TRACE(::testing::Message() << "network " << t);
    const auto result = maximize_capacity_coordinate_ascent(net, beta);
    // No single flip improves the objective (multilinearity makes this the
    // exact local-optimality certificate).
    for (LinkId k = 0; k < net.size(); ++k) {
      std::vector<double> flipped = result.q;
      flipped[k] = flipped[k] == 0.0 ? 1.0 : 0.0;
      EXPECT_LE(core::expected_rayleigh_successes(
                    net, units::probabilities(flipped), units::Threshold(beta)),
                result.value + 1e-9)
          << "flip " << k;
    }
  }
}

TEST(CoordinateAscent, BeatsOrMatchesGradientAscentFromUniformStart) {
  // Multilinearity: some vertex is globally optimal, so the vertex search
  // should do at least as well as one interior gradient run (not a theorem
  // for local optima, but holds on these instances and guards regressions).
  auto net = paper_network(15, 21);
  const double beta = 2.5;
  const auto vertex = maximize_capacity_coordinate_ascent(net, beta);
  const auto interior = maximize_capacity_gradient_ascent(
      net, beta, std::vector<double>(net.size(), 0.5));
  EXPECT_GE(vertex.value + 1e-6, interior.value);
}

TEST(CoordinateAscent, MatchesExhaustiveOnTinyInstance) {
  // n = 8: enumerate all 2^8 vertices; by multilinearity the best vertex is
  // the global optimum over [0,1]^8.
  auto net = paper_network(8, 13);
  const double beta = 2.5;
  double best = 0.0;
  for (unsigned mask = 0; mask < 256u; ++mask) {
    std::vector<double> q(8, 0.0);
    for (int b = 0; b < 8; ++b) {
      if (mask & (1u << b)) q[b] = 1.0;
    }
    best = std::max(best, core::expected_rayleigh_successes(net, units::probabilities(q), units::Threshold(beta)));
  }
  CoordinateAscentOptions opts;
  opts.restarts = 6;
  const auto result = maximize_capacity_coordinate_ascent(net, beta, opts);
  EXPECT_NEAR(result.value, best, 1e-9);
}

TEST(CoordinateAscent, RayleighOptimumAtLeastNonFadingTransfer) {
  // The Rayleigh optimum over q dominates the value of transmitting the
  // non-fading greedy set (that set is one feasible q).
  auto net = paper_network(20, 30);
  const double beta = 2.5;
  const auto greedy = greedy_capacity(net, beta);
  std::vector<double> q(net.size(), 0.0);
  for (LinkId i : greedy.selected) q[i] = 1.0;
  const double transferred =
      core::expected_rayleigh_successes(net, units::probabilities(q), units::Threshold(beta));
  CoordinateAscentOptions opts;
  opts.restarts = 4;
  const auto opt = maximize_capacity_coordinate_ascent(net, beta, opts);
  EXPECT_GE(opt.value + 1e-9, transferred);
}

// Goldens captured when the ascent still ran on the kernel's product
// forest, and kept by the closed-form flip gains: the returned 0/1 profile
// (as a bit string), the sweep count of the winning restart, and the bits
// of the re-evaluated value. Restart 0 starts from q = 0.
TEST(CoordinateAscent, GoldenOptimaAtThreeSizes) {
  struct Golden {
    std::size_t n;
    const char* q;
    std::size_t iterations;
    std::uint64_t value_bits;
  };
  const Golden goldens[] = {
      {15, "111111011111011", 14, 0x40255a61667db6a1},
      {30, "111011111111011111111111111111", 29, 0x40330322647dc558},
      {60, "111001011011011110101111010110111011011110101100100110011000", 38,
       0x4037ff8d9ccae5bf},
  };
  for (const Golden& g : goldens) {
    SCOPED_TRACE(::testing::Message() << "n=" << g.n);
    auto net = paper_network(g.n, 40 + g.n);
    const auto result = maximize_capacity_coordinate_ascent(net, 2.5);
    std::string profile;
    for (double v : result.q) profile += v == 1.0 ? '1' : '0';
    EXPECT_EQ(profile, g.q);
    EXPECT_EQ(result.iterations, g.iterations);
    EXPECT_EQ(std::bit_cast<std::uint64_t>(result.value), g.value_bits)
        << "value 0x" << std::hex
        << std::bit_cast<std::uint64_t>(result.value);
  }
}

TEST(Probabilistic, ValidatesInput) {
  auto net = hand_matrix_network();
  EXPECT_THROW(expected_capacity_gradient(net, {0.5}, 1.0), raysched::error);
  EXPECT_THROW(expected_capacity_gradient(net, {0.5, 0.5, 0.5}, 0.0),
               raysched::error);
  GradientAscentOptions bad;
  bad.step = 0.0;
  EXPECT_THROW(maximize_capacity_gradient_ascent(
                   net, 1.0, {0.5, 0.5, 0.5}, bad),
               raysched::error);
}

}  // namespace
}  // namespace raysched::algorithms
