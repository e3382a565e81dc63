// raysched: the Rayleigh-fading channel.
//
// Under Rayleigh fading the received strength S(j,i) is an exponentially
// distributed random variable with mean S̄(j,i), independent across pairs and
// slots. This header provides slot realizations (sampling), the threshold
// kernel that decides which links of one slot clear beta, and the exact
// per-slot success probability for a *fixed* transmitting set, which is
// Theorem 1 specialized to q in {0,1}:
//
//   Q_i = Pr[gamma_i^R >= beta | active set A, i in A]
//       = exp(-beta nu / S̄(i,i)) * prod_{j in A, j != i} 1/(1 + beta S̄(j,i)/S̄(i,i)).
//
// Receiver i's outcome reads only its own column {S(j,i) : j in A}, and
// different receivers read disjoint columns, so the outcomes of one slot are
// independent Bernoulli(Q_i). The threshold kernel samples exactly that law:
// one uniform per receiver against Q_i, instead of |A|^2 exponential draws.
// sinr_rayleigh_all keeps the explicit draws as the independent pairwise
// reference (tests/test_stat_gate.cpp checks the kernel against it).
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
/// For value callers and as the pairwise reference; callers that only
/// compare against beta use rayleigh_successes, which samples the same law
/// of decisions from Q_i.
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

/// The threshold kernel: decides which members of `active` clear beta in
/// one slot; ok[a] = 1 iff active[a] succeeds. Returns the success count.
/// An exact Theorem-1 sampler: receiver active[a] succeeds iff one
/// rng.uniform() falls below its Q_i (product form, computed on `net`), so
/// the decisions have the law of thresholding sinr_rayleigh_all but not its
/// draws. A call draws exactly |active| uniforms, in set order, one per
/// receiver, also for a receiver whose Q_i is 0 (no own signal). `ok` is
/// resized to |active| and overwritten, so a reused buffer allocates nothing
/// after warm-up. Throws on an out-of-range id or a non-positive beta before
/// reading any gain.
std::size_t rayleigh_successes(const Network& net, const LinkSet& active,
                               units::Threshold beta, util::RngStream& rng,
                               std::vector<char>& ok);

/// Receivers form: ok[a] = 1 iff receivers[a] clears beta against the
/// interferers senders \ {receivers[a]}, the counterfactual "if it sent"
/// for a receiver outside `senders`. One uniform per receiver, in order,
/// against Q_i of the set senders + {receivers[a]}; the active form above
/// is this form with receivers == senders.
std::size_t rayleigh_successes(const Network& net, const LinkSet& senders,
                               const LinkSet& receivers, units::Threshold beta,
                               util::RngStream& rng, std::vector<char>& ok);

/// Number of links of `active` that clear beta in one slot:
/// rayleigh_successes without the per-link output, so it allocates nothing.
/// Same draws and decisions.
[[nodiscard]] std::size_t count_successes_rayleigh(const Network& net,
                                                   const LinkSet& active,
                                                   units::Threshold beta,
                                                   util::RngStream& rng);

/// Exact probability that link i (a member of `active`) reaches SINR >= beta
/// in the Rayleigh model when exactly `active` transmits: the validated form
/// of detail::success_chance, so 0 for a link whose own signal is 0. Closed
/// form; no sampling.
[[nodiscard]] units::Probability success_probability_rayleigh(
    const Network& net, const LinkSet& active, LinkId i,
    units::Threshold beta);

/// Exact expected number of successful transmissions in one slot when
/// exactly `active` transmits: sum over i in active of
/// success_probability_rayleigh, added in set order. Closed form; no
/// sampling. Validates the set once, not once per link, and allocates
/// nothing.
[[nodiscard]] double expected_successes_rayleigh(const Network& net,
                                                 const LinkSet& active,
                                                 units::Threshold beta);

namespace detail {

/// Q_i, the one closed form for a fixed set: Theorem 1 at q in {0,1} in
/// product form, the probability that receiver i clears beta when the
/// members of `senders` other than i transmit. c = beta / S̄(i,i), one
/// exp(-c nu), the product of the factors (1 + c S̄(j,i)) and one division;
/// where c overflows, one division per factor instead. 0 when S̄(i,i) is 0
/// (a geometric gain that underflowed). The threshold kernel and the value
/// functions above call it after validating ids, beta and membership; it
/// checks nothing itself.
[[nodiscard]] double success_chance(const Network& net, const LinkSet& senders,
                                    LinkId i, units::Threshold beta);

}  // namespace detail

}  // namespace raysched::model
