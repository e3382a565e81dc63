// Cross-compiler bit-identity pins for the Theorem-1 numerics.
//
// The build pins the math core to two-rounding IEEE semantics
// (-ffp-contract=off via cmake/FpDeterminism.cmake), which makes every
// Theorem-1 evaluation path a pure function of its inputs down to the last
// bit — on GCC and Clang alike. This suite holds that property to account:
//
//  * committed bit-pattern goldens for the scalar, batched, incremental,
//    and log-space evaluators over a closed-form network (no RNG, so the
//    inputs themselves are bit-deterministic);
//  * the scalar log companion is bit-identical to the kernel's
//    evaluate_log (same expressions, same iteration order — the contract
//    documented in core/success_probability.hpp);
//  * goldens for the cached values after an update_link chain, over a
//    sparse and a dense probability profile;
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
// All four arrays must reproduce exactly under GCC and Clang. The
// incremental array legitimately differs from the batch array by one ulp
// at links 2 and 6: the product forest multiplies in balanced-tree order,
// the one-shot pass in sequential order.
constexpr std::uint64_t kGoldenScalar[kLinks] = {
    0x0000000000000000, 0x3fc89baa2aa1b9c7, 0x3fd8cd357750cefc,
    0x3fe2b3f179838ed5, 0x3fe909fc6860f666, 0x0000000000000000,
    0x3fc912d9369605ad, 0x3fd9253ea9801b33};
constexpr std::uint64_t kGoldenBatch[kLinks] = {
    0x0000000000000000, 0x3fc89baa2aa1b9c7, 0x3fd8cd357750cefc,
    0x3fe2b3f179838ed5, 0x3fe909fc6860f666, 0x0000000000000000,
    0x3fc912d9369605ad, 0x3fd9253ea9801b33};
constexpr std::uint64_t kGoldenIncremental[kLinks] = {
    0x0000000000000000, 0x3fc89baa2aa1b9c7, 0x3fd8cd357750cefb,
    0x3fe2b3f179838ed5, 0x3fe909fc6860f666, 0x0000000000000000,
    0x3fc912d9369605ac, 0x3fd9253ea9801b33};
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

TEST(FpDeterminism, BatchGoldenBits) {
  const model::Network net = golden_network();
  const units::ProbabilityVector q = golden_q();
  SuccessProbabilityKernel kernel(net, units::Threshold(kBeta));
  const std::vector<double> batch = kernel.evaluate(q);
  for (std::size_t i = 0; i < kLinks; ++i) {
    EXPECT_EQ(bits(batch[i]), kGoldenBatch[i])
        << "batch golden moved at link " << i << ": 0x" << std::hex
        << bits(batch[i]);
  }
}

TEST(FpDeterminism, IncrementalGoldenBits) {
  const model::Network net = golden_network();
  const units::ProbabilityVector q = golden_q();
  SuccessProbabilityKernel kernel(net, units::Threshold(kBeta));
  kernel.set_probabilities(q);
  const std::vector<double>& inc = kernel.success_probabilities();
  for (std::size_t i = 0; i < kLinks; ++i) {
    EXPECT_EQ(bits(inc[i]), kGoldenIncremental[i])
        << "incremental golden moved at link " << i << ": 0x" << std::hex
        << bits(inc[i]);
  }
}

TEST(FpDeterminism, LogGoldenBits) {
  const model::Network net = golden_network();
  const units::ProbabilityVector q = golden_q();
  SuccessProbabilityKernel kernel(net, units::Threshold(kBeta));
  const std::vector<double> lg = kernel.evaluate_log(q);
  for (std::size_t i = 0; i < kLinks; ++i) {
    EXPECT_EQ(bits(lg[i]), kGoldenLog[i])
        << "log golden moved at link " << i << ": 0x" << std::hex
        << bits(lg[i]);
  }
}

// The scalar log companion promises bit-identity with the kernel's
// evaluate_log (core/success_probability.hpp); -inf entries (q_i == 0)
// compare equal by bit pattern too.
TEST(FpDeterminism, ScalarLogMatchesKernelLogBitwise) {
  const model::Network net = golden_network();
  const units::ProbabilityVector q = golden_q();
  SuccessProbabilityKernel kernel(net, units::Threshold(kBeta));
  const std::vector<double> klog = kernel.evaluate_log(q);
  for (LinkId i = 0; i < net.size(); ++i) {
    const double slog =
        rayleigh_success_log_probability(net, q, i, units::Threshold(kBeta));
    EXPECT_EQ(bits(slog), bits(klog[i])) << "log paths split at link " << i;
  }
}

// A perturb-and-restore update_link chain must land back on the
// from-scratch set_probabilities values exactly.
TEST(FpDeterminism, UpdateLinkRoundTripIsBitExact) {
  const model::Network net = golden_network();
  const units::ProbabilityVector q = golden_q();
  SuccessProbabilityKernel fresh(net, units::Threshold(kBeta));
  fresh.set_probabilities(q);
  const std::vector<double> reference = fresh.success_probabilities();

  SuccessProbabilityKernel walked(net, units::Threshold(kBeta));
  walked.set_probabilities(q);
  walked.update_link(3, units::Probability(0.9));
  walked.update_link(1, units::Probability(0.0));
  walked.update_link(3, q[3]);
  walked.update_link(1, q[1]);
  const std::vector<double>& restored = walked.success_probabilities();
  for (std::size_t i = 0; i < kLinks; ++i) {
    EXPECT_EQ(bits(restored[i]), bits(reference[i]))
        << "update_link drifted at link " << i;
  }
}

// ---------------------------------------------------------------------------
// update_link chain goldens. The product forest is refreshed along one
// leaf-to-root path per update_link; these pin the cached values after a
// chain of updates against bits captured before the kernel lost its
// sparse (value-only) refresh. A sparse q (at most 32 nonzero entries) took
// that path; a dense q took the eager forest walk. Both must keep every bit.
// ---------------------------------------------------------------------------

constexpr std::size_t kChainLinks = 40;

void expect_chain_bits(const std::vector<double>& got,
                       const std::uint64_t (&want)[kChainLinks]) {
  ASSERT_EQ(got.size(), kChainLinks);
  for (std::size_t i = 0; i < kChainLinks; ++i) {
    EXPECT_EQ(bits(got[i]), want[i])
        << "chain golden moved at link " << i << ": 0x" << std::hex
        << bits(got[i]);
  }
}

constexpr std::uint64_t kGoldenSparseChain[kChainLinks] = {
    0x0000000000000000, 0x0000000000000000, 0x0000000000000000,
    0x0000000000000000, 0x0000000000000000, 0x3fe7c0781ad45747,
    0x0000000000000000, 0x0000000000000000, 0x0000000000000000,
    0x0000000000000000, 0x0000000000000000, 0x0000000000000000,
    0x0000000000000000, 0x0000000000000000, 0x0000000000000000,
    0x0000000000000000, 0x0000000000000000, 0x3febd76ddb333fbc,
    0x0000000000000000, 0x0000000000000000, 0x3fd7df4beff9a317,
    0x0000000000000000, 0x0000000000000000, 0x0000000000000000,
    0x0000000000000000, 0x0000000000000000, 0x0000000000000000,
    0x0000000000000000, 0x0000000000000000, 0x3fefe2a3b4d11485,
    0x0000000000000000, 0x0000000000000000, 0x0000000000000000,
    0x0000000000000000, 0x0000000000000000, 0x0000000000000000,
    0x0000000000000000, 0x0000000000000000, 0x3fefe93d0ac3f8a7,
    0x0000000000000000};
constexpr std::uint64_t kGoldenDenseChain[kChainLinks] = {
    0x0000000000000000, 0x3fcd2b759a4f37c6, 0x3fd627778c69ef60,
    0x3fddd7fb126ca3c8, 0x3fe2cec611c8b80d, 0x3fe6b9152a418f59,
    0x3feaa8eb3e91cf01, 0x3fbe8552bfe2c51e, 0x3fe26a0cfecd9731,
    0x3fd7156c985c32bb, 0x3fdee1424a1ef60e, 0x3fe35ae8450746a2,
    0x3fe748b89f58185a, 0x3feb396ed6c05d4d, 0x3fbf243283163688,
    0x3fcf32e1879b7ca1, 0x3fd770027e63ab93, 0x3fef4f4cd64e79bf,
    0x3fe3960c06107af0, 0x3fe7881ac3b97c31, 0x3feb7bd192d9f6d7,
    0x3fbf6cafb166bf64, 0x3fcf745f76e1c9b3, 0x3fd79c9224803336,
    0x3fdf81ebf2a5eb10, 0x3fe3b4f26b8b8347, 0x3fe7aa1870076499,
    0x3feba047376d28d7, 0x3fbf94c68393fa9e, 0x3fcf99622c803624,
    0x3fd7b642a9b1e77e, 0x3fdfa1b1f28d2bc4, 0x3fe3c76863f8861f,
    0x3fe7bebb2fe348ff, 0x3febb6bf49197022, 0x3fbfada331b0d53a,
    0x3fcfb0a7451c4ec1, 0x3fd7c69f47a153e4, 0x3fdfb62df4eef372,
    0x3fd3081b7c7babc0};

TEST(FpDeterminism, SparseUpdateChainGoldenBits) {
  std::vector<double> q(kChainLinks, 0.0);
  q[3] = 0.25;
  q[11] = 0.5;
  q[17] = 0.875;
  q[29] = 1.0;
  q[38] = 0.125;
  SuccessProbabilityKernel kernel(closed_form_network(kChainLinks),
                                  units::Threshold(kBeta));
  kernel.set_probabilities(units::probabilities(q));
  kernel.update_link(5, units::Probability(0.75));
  kernel.update_link(11, units::Probability(0.0));
  kernel.update_link(38, units::Probability(1.0));
  kernel.update_link(20, units::Probability(0.375));
  kernel.update_link(3, units::Probability(0.0));
  expect_chain_bits(kernel.success_probabilities(), kGoldenSparseChain);
}

TEST(FpDeterminism, DenseUpdateChainGoldenBits) {
  std::vector<double> q(kChainLinks);
  for (std::size_t i = 0; i < kChainLinks; ++i) {
    q[i] = static_cast<double>(1 + i % 7) / 8.0;
  }
  SuccessProbabilityKernel kernel(closed_form_network(kChainLinks),
                                  units::Threshold(kBeta));
  kernel.set_probabilities(units::probabilities(q));
  kernel.update_link(0, units::Probability(0.0));
  kernel.update_link(17, units::Probability(1.0));
  kernel.update_link(39, units::Probability(0.3));
  kernel.update_link(8, units::Probability(0.0));
  kernel.update_link(8, units::Probability(0.6));
  expect_chain_bits(kernel.success_probabilities(), kGoldenDenseChain);
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
  SuccessProbabilityKernel kernel(net, units::Threshold(kBeta));
  const std::vector<double> linear = kernel.evaluate(q);
  const std::vector<double> lg = kernel.evaluate_log(q);
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

  SuccessProbabilityKernel kernel(net, beta);
  const std::vector<double> linear = kernel.evaluate(q);
  const std::vector<double> lg = kernel.evaluate_log(q);
  for (LinkId i = 0; i < n; ++i) {
    // The linear product underflows to exact zero...
    EXPECT_EQ(linear[i], 0.0) << "expected underflow at link " << i;
    EXPECT_EQ(
        bits(rayleigh_success_probability(net, q, i, beta).value()),
        bits(linear[i]))
        << "scalar and batch disagree in the underflow regime, link " << i;
    // ...while the log form stays finite, deep below log(DBL_MIN), and
    // bit-identical between the scalar companion and the kernel.
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
