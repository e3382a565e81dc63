// Relocation pin for the RNG move (sim/rng.hpp -> util/rng.hpp).
//
// util::RngStream must produce bit-identical sequences to the pre-move
// sim::RngStream: every Monte-Carlo result, checkpoint replay, and pinned
// regression value depends on the generator, so the namespace move must not
// perturb a single bit. The golden values below were captured from
// sim::RngStream at the last commit before the move; if any of these tests
// fail, the relocation changed the generator and every seeded experiment in
// the repo silently diverged. (The deprecated sim/rng.hpp forwarding shim
// served its one-release grace period and is gone; an include of the old
// path no longer compiles.)
#include <gtest/gtest.h>

#include "util/rng.hpp"

namespace raysched::util {
namespace {

TEST(RngStreamRelocation, GoldenRawSequenceSeed42) {
  RngStream r(42);
  const std::uint64_t expected[] = {
      0xD0764D4F4476689FULL, 0x519E4174576F3791ULL, 0xFBE07CFB0C24ED8CULL,
      0xB37D9F600CD835B8ULL, 0xCB231C3874846A73ULL, 0x968D9F004E50DE7DULL,
      0x201718FF221A3556ULL, 0x9AE94E070ED8CB46ULL,
  };
  for (const std::uint64_t want : expected) EXPECT_EQ(r.next_u64(), want);
}

TEST(RngStreamRelocation, GoldenRawSequenceSeed0) {
  RngStream r(0);
  const std::uint64_t expected[] = {
      0x53175D61490B23DFULL, 0x61DA6F3DC380D507ULL, 0x5C0FDF91EC9A7BFCULL,
      0x02EEBF8C3BBE5E1AULL,
  };
  for (const std::uint64_t want : expected) EXPECT_EQ(r.next_u64(), want);
}

TEST(RngStreamRelocation, GoldenDerivedStreams) {
  RngStream base(7);
  RngStream child = base.derive(3);
  const std::uint64_t expected_child[] = {
      0x4D36D95CE05C85ACULL, 0xABB4EB7CE7DC652DULL, 0xF543DBBF64C1FFB2ULL,
      0xD8DEA20ED9FB46A8ULL,
  };
  for (const std::uint64_t want : expected_child) {
    EXPECT_EQ(child.next_u64(), want);
  }
  RngStream two_tag = base.derive(1, 2);
  const std::uint64_t expected_two_tag[] = {
      0x787BD832C66C566CULL, 0x58CA2CC8F206E823ULL, 0xA60D5E43736E106BULL,
      0xD4C5E091654979ABULL,
  };
  for (const std::uint64_t want : expected_two_tag) {
    EXPECT_EQ(two_tag.next_u64(), want);
  }
}

TEST(RngStreamRelocation, GoldenUniformDoubles) {
  // EXPECT_EQ on doubles on purpose: the pin is bitwise, not approximate.
  RngStream r(123);
  const double expected[] = {
      6.45848704029108212e-01, 8.38154212314795810e-01,
      6.65849804579044968e-01, 5.24365506212736698e-01,
  };
  for (const double want : expected) EXPECT_EQ(r.uniform(), want);
}

TEST(RngStreamRelocation, GoldenExponentialMean) {
  RngStream r(5);
  const double expected[] = {
      8.63358725614763345e-01, 2.36326543255429922e+00,
      2.57750060779834478e-01, 1.50997624107138323e-01,
  };
  for (const double want : expected) EXPECT_EQ(r.exponential_mean(2.5), want);
}

TEST(RngStreamRelocation, GoldenGamma) {
  RngStream r(9);
  const double expected[] = {
      5.12192738303105433e+00, 3.06297177945860422e-01,
      9.57536032468302656e-01, 2.97596748692728952e-01,
  };
  for (const double want : expected) EXPECT_EQ(r.gamma(1.7), want);
}

TEST(RngStreamRelocation, GoldenNormal) {
  RngStream r(11);
  const double expected[] = {
      3.61336994883308116e-01, 3.07790926928146968e-01,
      4.37229088355525430e-01, 9.72196865788952369e-02,
  };
  for (const double want : expected) EXPECT_EQ(r.normal(), want);
}

TEST(RngStreamRelocation, GoldenUniformIndex) {
  RngStream r(13);
  const std::uint64_t expected[] = {7, 7, 2, 4, 3, 5, 2, 3};
  for (const std::uint64_t want : expected) {
    EXPECT_EQ(r.uniform_index(10), want);
  }
}

}  // namespace
}  // namespace raysched::util
