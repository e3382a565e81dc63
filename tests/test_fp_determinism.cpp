// Cross-compiler bit-identity pins for the Theorem-1 numerics.
//
// The build pins the math core to two-rounding IEEE semantics
// (-ffp-contract=off via cmake/FpDeterminism.cmake), which makes every
// Theorem-1 evaluation path a pure function of its inputs down to the last
// bit — on GCC and Clang alike. This suite holds that property to account:
//
//  * committed bit-pattern goldens for the linear and log-space
//    evaluators over a closed-form network (no RNG, so the inputs
//    themselves are bit-deterministic); the all-links forms match the
//    per-link ones bit for bit (SuccessBatch.AllLinksFormsMatchPerLink*);
//  * the underflow boundary: above it exp(log) agrees with the linear
//    product at ulp scale, below it the linear product is exactly 0 while
//    the log form stays finite (the RS-N4 escape hatch).
//
// If a golden moves, a compiler or flag change altered FP semantics —
// treat it like a broken regression pin, not a tolerance to widen.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

#include "core/success_probability.hpp"
#include "core/success_probability_batch.hpp"
#include "model/network.hpp"
#include "util/units.hpp"

namespace raysched::core {
namespace {

using model::LinkId;

std::uint64_t bits(double v) { return std::bit_cast<std::uint64_t>(v); }

constexpr std::size_t kLinks = 8;
constexpr double kBeta = 1.5;

/// Closed-form gain matrix: every entry is one exact literal or one IEEE
/// division of small integers, so the network is bit-identical on every
/// conforming platform without involving the RNG.
model::Network closed_form_network(std::size_t n) {
  std::vector<double> gains(n * n);
  for (std::size_t j = 0; j < n; ++j) {
    for (std::size_t i = 0; i < n; ++i) {
      gains[j * n + i] = j == i ? 8.0 + static_cast<double>(i)
                                : 1.0 / (1.0 + static_cast<double>(3 * j + i));
    }
  }
  return model::Network(n, gains, units::Power(0.05));
}

model::Network golden_network() { return closed_form_network(kLinks); }

/// Probability profile with exact-zero entries (links 0 and 5), exercising
/// the sentinel skip branches in every evaluator.
units::ProbabilityVector golden_q() {
  std::vector<double> q(kLinks);
  for (std::size_t i = 0; i < kLinks; ++i) {
    q[i] = static_cast<double>(i % 5) * 0.2;
  }
  return units::probabilities(q);
}

// Golden bit patterns, generated once from this harness and committed.
// Both arrays must reproduce exactly under GCC and Clang.
constexpr std::uint64_t kGoldenScalar[kLinks] = {
    0x0000000000000000, 0x3fc89baa2aa1b9c7, 0x3fd8cd357750cefc,
    0x3fe2b3f179838ed5, 0x3fe909fc6860f666, 0x0000000000000000,
    0x3fc912d9369605ad, 0x3fd9253ea9801b33};
constexpr std::uint64_t kGoldenLog[kLinks] = {
    0xfff0000000000000, 0xbffa621fb481add6, 0xbfee55cfbd0abfa6,
    0xbfe12f926fbdb666, 0xbfcf6605d155bb5f, 0xfff0000000000000,
    0xbffa155af37bd165, 0xbfede5011bef10ad};

TEST(FpDeterminism, ScalarGoldenBits) {
  const model::Network net = golden_network();
  const units::ProbabilityVector q = golden_q();
  for (LinkId i = 0; i < net.size(); ++i) {
    const double v =
        rayleigh_success_probability(net, q, i, units::Threshold(kBeta))
            .value();
    EXPECT_EQ(bits(v), kGoldenScalar[i])
        << "scalar golden moved at link " << i << ": 0x" << std::hex
        << bits(v);
  }
}

TEST(FpDeterminism, LogGoldenBits) {
  const model::Network net = golden_network();
  const units::ProbabilityVector q = golden_q();
  std::vector<double> lg;
  rayleigh_success_log_probabilities(net, q, units::Threshold(kBeta), lg);
  for (std::size_t i = 0; i < kLinks; ++i) {
    EXPECT_EQ(bits(lg[i]), kGoldenLog[i])
        << "log golden moved at link " << i << ": 0x" << std::hex
        << bits(lg[i]);
  }
}

/// Saturated-interference network: every off-diagonal factor is ~1e-15, so
/// the 23-interferer product sits ~1e-345, below the smallest subnormal —
/// the linear form underflows to exact 0 while the log form stays
/// comfortably finite. (1e15 and not 1e16: c = g/(g+1) must stay strictly
/// below 1.0 after rounding, and 1e16 + 1 rounds back to 1e16.)
model::Network underflow_network(std::size_t n) {
  std::vector<double> gains(n * n, 1.0e15);
  for (std::size_t i = 0; i < n; ++i) gains[i * n + i] = 1.0;
  return model::Network(n, gains, units::Power(1.0e-3));
}

TEST(FpDeterminism, LinearAndLogAgreeAboveUnderflow) {
  const model::Network net = golden_network();
  const units::ProbabilityVector q = golden_q();
  std::vector<double> linear, lg;
  rayleigh_success_probabilities(net, q, units::Threshold(kBeta), linear);
  rayleigh_success_log_probabilities(net, q, units::Threshold(kBeta), lg);
  for (std::size_t i = 0; i < kLinks; ++i) {
    if (linear[i] == 0.0) {
      EXPECT_EQ(lg[i], -std::numeric_limits<double>::infinity())
          << "zero linear value must mean q_i == 0 here, link " << i;
      continue;
    }
    EXPECT_NEAR(std::exp(lg[i]), linear[i], linear[i] * 1e-12)
        << "log and linear paths disagree above the boundary, link " << i;
  }
}

TEST(FpDeterminism, LogStaysFiniteBelowUnderflow) {
  constexpr std::size_t n = 24;
  const model::Network net = underflow_network(n);
  const units::ProbabilityVector q =
      units::uniform_probabilities(n, units::Probability(1.0));
  const units::Threshold beta(1.0);

  std::vector<double> linear, lg;
  rayleigh_success_probabilities(net, q, beta, linear);
  rayleigh_success_log_probabilities(net, q, beta, lg);
  for (LinkId i = 0; i < n; ++i) {
    // The linear product underflows to exact zero...
    EXPECT_EQ(linear[i], 0.0) << "expected underflow at link " << i;
    EXPECT_EQ(
        bits(rayleigh_success_probability(net, q, i, beta).value()),
        bits(linear[i]))
        << "per-link and all-links forms disagree in the underflow regime, "
           "link "
        << i;
    // ...while the log form stays finite, deep below log(DBL_MIN), and
    // bit-identical between the per-link and the all-links forms.
    EXPECT_TRUE(std::isfinite(lg[i])) << "log underflowed at link " << i;
    EXPECT_LT(lg[i], -710.0);
    EXPECT_EQ(bits(rayleigh_success_log_probability(net, q, i, beta)),
              bits(lg[i]))
        << "log paths split in the underflow regime, link " << i;
    // Round-tripping through exp reproduces the underflow consistently.
    EXPECT_EQ(std::exp(lg[i]), 0.0);
  }
}

}  // namespace
}  // namespace raysched::core
