// Tests for time-correlated (block) fading and the correlated-ALOHA stress
// test of the Section-4 transformation.
#include <gtest/gtest.h>

#include "test_helpers.hpp"

namespace raysched::model {
namespace {

using raysched::testing::hand_matrix_network;
using raysched::testing::paper_network;

TEST(BlockFading, GainsConstantWithinBlock) {
  auto net = hand_matrix_network(0.1);
  BlockFadingChannel channel(net, /*coherence=*/4, /*m=*/1.0,
                             util::RngStream(7));
  const double g = channel.gain(0, 1);
  for (int s = 1; s < 4; ++s) {
    channel.advance_slot();
    EXPECT_DOUBLE_EQ(channel.gain(0, 1), g) << "slot " << s;
  }
  channel.advance_slot();  // crosses the block boundary
  EXPECT_NE(channel.gain(0, 1), g);
}

TEST(BlockFading, CoherenceOneResamplesEverySlot) {
  auto net = hand_matrix_network(0.1);
  BlockFadingChannel channel(net, 1, 1.0, util::RngStream(8));
  const double g = channel.gain(1, 2);
  channel.advance_slot();
  EXPECT_NE(channel.gain(1, 2), g);
}

TEST(BlockFading, MarginalDistributionMatchesRayleigh) {
  // Per-block gains are exponential with the right mean regardless of
  // coherence.
  auto net = hand_matrix_network(0.0);
  BlockFadingChannel channel(net, 3, 1.0, util::RngStream(9));
  sim::Accumulator acc;
  for (int s = 0; s < 30000; ++s) {
    if (channel.current_slot() % 3 == 0) acc.add(channel.gain(0, 0));
    channel.advance_slot();
  }
  EXPECT_NEAR(acc.mean(), net.signal(0), 0.25);
}

TEST(BlockFading, SinrAllConsistentWithGains) {
  auto net = hand_matrix_network(0.1);
  BlockFadingChannel channel(net, 2, 1.0, util::RngStream(10));
  const LinkSet active = {0, 1};
  const auto sinrs = channel.sinr_all(active);
  ASSERT_EQ(sinrs.size(), 2u);
  EXPECT_NEAR(sinrs[0],
              channel.gain(0, 0) / (channel.gain(1, 0) + 0.1), 1e-12);
  EXPECT_NEAR(sinrs[1],
              channel.gain(1, 1) / (channel.gain(0, 1) + 0.1), 1e-12);
}

TEST(BlockFading, CountSuccessesBounded) {
  auto net = hand_matrix_network(0.1);
  BlockFadingChannel channel(net, 2, 2.0, util::RngStream(11));
  EXPECT_LE(channel.count_successes({0, 1, 2}, units::Threshold(1.0)), 3u);
}

TEST(BlockFading, ValidatesParameters) {
  auto net = hand_matrix_network();
  EXPECT_THROW(BlockFadingChannel(net, 0, 1.0, util::RngStream(1)),
               raysched::error);
  EXPECT_THROW(BlockFadingChannel(net, 1, 0.0, util::RngStream(1)),
               raysched::error);
  BlockFadingChannel ok(net, 1, 1.0, util::RngStream(1));
  EXPECT_THROW(ok.gain(0, 9), raysched::error);
}

TEST(BlockFadingAloha, CompletesAtCoherenceOne) {
  auto net = paper_network(15, 21);
  BlockFadingChannel channel(net, 1, 1.0, util::RngStream(21));
  util::RngStream rng(22);
  const auto result =
      raysched::algorithms::aloha_schedule_block_fading(net, 2.5, channel, rng);
  EXPECT_TRUE(result.completed);
}

TEST(BlockFadingAloha, CompletesUnderLongCoherence) {
  auto net = paper_network(12, 23);
  BlockFadingChannel channel(net, 16, 1.0, util::RngStream(23));
  util::RngStream rng(24);
  const auto result = raysched::algorithms::aloha_schedule_block_fading(
      net, 2.5, channel, rng, {}, 400000);
  EXPECT_TRUE(result.completed);
}

// The block-fading form checks its options like aloha_schedule does.
TEST(BlockFadingAloha, ValidatesOptions) {
  auto net = paper_network(5, 10);
  BlockFadingChannel channel(net, 1, 1.0, util::RngStream(26));
  util::RngStream rng(27);
  raysched::algorithms::AlohaOptions floor_above_start;
  floor_above_start.initial_probability = 0.25;
  floor_above_start.min_probability = 0.5;
  EXPECT_THROW((void)raysched::algorithms::aloha_schedule_block_fading(
                   net, 2.5, channel, rng, floor_above_start),
               raysched::error);
  raysched::algorithms::AlohaOptions shrinking_raise;
  shrinking_raise.adaptive = true;
  shrinking_raise.raise_factor = 0.5;
  EXPECT_THROW((void)raysched::algorithms::aloha_schedule_block_fading(
                   net, 2.5, channel, rng, shrinking_raise),
               raysched::error);
}

TEST(BlockFadingAloha, CoherenceOneStatisticallyMatchesIidAloha) {
  // With coherence 1 the block channel is exactly the paper's i.i.d. model;
  // mean latency over several runs must be in the same ballpark as the
  // Rayleigh ALOHA scheduler.
  auto net = paper_network(12, 25);
  sim::Accumulator block_acc, iid_acc;
  for (std::uint64_t s = 0; s < 8; ++s) {
    BlockFadingChannel channel(net, 1, 1.0, util::RngStream(100 + s));
    util::RngStream r1(200 + s), r2(300 + s);
    const auto block = raysched::algorithms::aloha_schedule_block_fading(
        net, 2.5, channel, r1);
    const auto iid = raysched::algorithms::aloha_schedule(
        net, 2.5, raysched::core::Propagation::Rayleigh, r2);
    ASSERT_TRUE(block.completed && iid.completed);
    block_acc.add(static_cast<double>(block.slots));
    iid_acc.add(static_cast<double>(iid.slots));
  }
  EXPECT_LT(block_acc.mean(), 3.0 * iid_acc.mean());
  EXPECT_GT(block_acc.mean(), iid_acc.mean() / 3.0);
}

}  // namespace
}  // namespace raysched::model
