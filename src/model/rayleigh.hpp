// raysched: the Rayleigh-fading channel.
//
// Under Rayleigh fading the received strength S(j,i) is an exponentially
// distributed random variable with mean S̄(j,i), independent across pairs and
// slots. This header provides slot realizations (sampling), the threshold
// kernel that decides which links of one realization clear beta, and the
// exact per-slot success probability for a *fixed* transmitting set, which
// is Theorem 1 specialized to q in {0,1}:
//
//   Pr[gamma_i^R >= beta | active set A, i in A]
//     = exp(-beta nu / S̄(i,i)) * prod_{j in A, j != i} 1/(1 + beta S̄(j,i)/S̄(i,i)).
//
// The probabilistic-access version (arbitrary q vectors) lives in
// core/success_probability.hpp.
#pragma once

#include <vector>

#include "model/link.hpp"
#include "model/network.hpp"
#include "util/rng.hpp"
#include "util/units.hpp"

namespace raysched::model {

/// One fading realization of link i's SINR when the links in `active`
/// transmit: samples S(j,i) ~ Exp(mean S̄(j,i)) for every j in `active`
/// (including i's own signal) and evaluates the SINR.
[[nodiscard]] double sinr_rayleigh(const Network& net, const LinkSet& active,
                                   LinkId i, util::RngStream& rng);

/// One fading realization of the SINR of every link in `active`
/// simultaneously; entry order matches `active`. Gains are sampled
/// independently per (sender, receiver) pair, exactly as in the model:
/// receiver by receiver, one uniform draw per sender with a nonzero mean
/// gain, in set order. Every id is validated before any gain is read.
/// For value callers; callers that only compare against beta use
/// rayleigh_successes, which makes the same decisions without a log per
/// pair.
[[nodiscard]] std::vector<double> sinr_rayleigh_all(const Network& net,
                                                    const LinkSet& active,
                                                    util::RngStream& rng);

/// Out-buffer form of sinr_rayleigh_all for steady-state callers (the serve
/// slot loop): `out` is resized to |active| and overwritten, so a reused
/// buffer reaches a fixed capacity and the call allocates nothing after
/// warm-up. Same draw order as the returning form — results are
/// bit-identical.
void sinr_rayleigh_all(const Network& net, const LinkSet& active,
                       util::RngStream& rng, std::vector<double>& out);

/// The threshold kernel: ok[a] = 1 iff the realized SINR of active[a] is
/// >= beta, for one fading realization; returns the success count. Each
/// decision equals `sinr_rayleigh_all(net, active, rng)[a] >= beta`, and
/// `rng` ends in the same state, because the kernel makes the same draws
/// in the same order. It sums the interference with a certified fast -ln
/// (util/neg_log.hpp) and replays a receiver through the exact arithmetic
/// only when its SINR lands within a relative 1e-6 of beta, or the sum
/// leaves the certified range (docs/PERFORMANCE.md, "Rayleigh success
/// test"). `ok` is resized to |active| and overwritten, so a reused buffer
/// allocates nothing after warm-up. Throws on an out-of-range id or a
/// non-positive beta before reading any gain.
std::size_t rayleigh_successes(const Network& net, const LinkSet& active,
                               units::Threshold beta, util::RngStream& rng,
                               std::vector<char>& ok);

/// Number of links of `active` whose realized SINR is >= beta in one slot:
/// rayleigh_successes without the per-link output, so it allocates nothing.
[[nodiscard]] std::size_t count_successes_rayleigh(const Network& net,
                                                   const LinkSet& active,
                                                   units::Threshold beta,
                                                   util::RngStream& rng);

/// Exact probability that link i (a member of `active`) reaches SINR >= beta
/// in the Rayleigh model when exactly `active` transmits. Closed form; no
/// sampling.
[[nodiscard]] units::Probability success_probability_rayleigh(
    const Network& net, const LinkSet& active, LinkId i,
    units::Threshold beta);

/// Exact expected number of successful transmissions in one slot when
/// exactly `active` transmits: sum over i in active of
/// success_probability_rayleigh. Closed form; no sampling. Validates the
/// set once, not once per link.
[[nodiscard]] double expected_successes_rayleigh(const Network& net,
                                                 const LinkSet& active,
                                                 units::Threshold beta);

namespace detail {

/// success_probability_rayleigh with validation stripped: callers (the
/// aggregate above and core's batch unit) validate ids / beta / membership
/// once and loop over this. Same division form and set order as the public
/// function, so results are bit-identical.
[[nodiscard]] double success_probability_rayleigh_unchecked(
    const Network& net, const LinkSet& active, LinkId i,
    units::Threshold beta);

}  // namespace detail

}  // namespace raysched::model
