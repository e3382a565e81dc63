#include "core/latency_exact.hpp"

#include <cmath>
#include <vector>

#include "core/latency_transform.hpp"
#include "model/rayleigh.hpp"
#include "model/sinr.hpp"
#include "util/error.hpp"

namespace raysched::core {

using model::LinkId;
using model::LinkSet;
using model::Network;

namespace {

LinkSet mask_to_set(unsigned mask, std::size_t n) {
  LinkSet out;
  for (std::size_t i = 0; i < n; ++i) {
    if (mask & (1u << i)) out.push_back(static_cast<LinkId>(i));
  }
  return out;
}

}  // namespace

double exact_aloha_expected_macro_steps(const Network& net,
                                        units::Probability q_prob,
                                        units::Threshold beta,
                                        Propagation propagation,
                                        std::size_t max_n) {
  const double q = q_prob.value();
  const double b = beta.value();
  require(q > 0.0 && q <= 1.0,
          "exact_aloha_expected_macro_steps: q must be in (0, 1]");
  require(b > 0.0, "exact_aloha_expected_macro_steps: beta must be > 0");
  require(net.size() <= max_n && net.size() <= 20,
          "exact_aloha_expected_macro_steps: instance too large for exact "
          "subset dynamic programming");
  const std::size_t n = net.size();
  const unsigned full = (1u << n) - 1u;
  const int repeats =
      propagation == Propagation::Rayleigh ? kLatencyRepeats : 1;

  // Per-macro-step success probability of link i given transmit set A
  // (conditioned on i in A). Memoize per A.
  std::vector<std::vector<double>> success(full + 1);
  for (unsigned a = 1; a <= full; ++a) {
    const LinkSet active = mask_to_set(a, n);
    success[a].assign(n, 0.0);
    for (LinkId i : active) {
      double per_slot;
      if (propagation == Propagation::NonFading) {
        per_slot = model::sinr_nonfading(net, active, i) >= b ? 1.0 : 0.0;
      } else {
        per_slot =
            model::success_probability_rayleigh(net, active, i, beta).value();
      }
      double fail = 1.0;
      for (int r = 0; r < repeats; ++r) fail *= 1.0 - per_slot;
      success[a][i] = 1.0 - fail;
    }
  }

  // E[mask]: expected macro steps from remaining set `mask`.
  std::vector<double> expected(full + 1, 0.0);
  for (unsigned mask = 1; mask <= full; ++mask) {
    // Accumulate Σ_{R' ⊊ R} P(R→R') E[R'] and P(R→R) by conditioning on
    // the transmit subset A of R and, within A, on which members succeed.
    double stay = 0.0;       // P(R → R)
    double drift = 0.0;      // Σ_{R' ⊊ R} P(R→R') E[R']
    // Enumerate transmit subsets A ⊆ mask.
    for (unsigned a = mask;; a = (a - 1) & mask) {
      // P[A transmits | remaining = mask].
      double pa = 1.0;
      for (std::size_t i = 0; i < n; ++i) {
        if (!(mask & (1u << i))) continue;
        // Bounded enumeration (n <= kMaxExactLinks): the subset product
        // cannot meaningfully underflow and exact 0 is its correct limit.
        pa *= (a & (1u << i)) ? q : 1.0 - q;  // raysched-check: allow(RS-N4)
      }
      if (pa > 0.0) {
        if (a == 0) {
          stay += pa;  // nobody transmitted
        } else {
          // Given A, successes are independent; enumerate success subsets
          // S ⊆ A.
          for (unsigned s = a;; s = (s - 1) & a) {
            double ps = 1.0;
            for (std::size_t i = 0; i < n; ++i) {
              if (!(a & (1u << i))) continue;
              const double si = success[a][i];
              // Same bounded-enumeration argument as the pa product.
              ps *= (s & (1u << i))
                        ? si
                        : 1.0 - si;
            }
            if (ps > 0.0) {
              const unsigned next = mask & ~s;
              if (next == mask) stay += pa * ps;
              else drift += pa * ps * expected[next];
            }
            if (s == 0) break;
          }
        }
      }
      if (a == 0) break;
    }
    require(stay < 1.0 - 1e-15,
            "exact_aloha_expected_macro_steps: absorbing state unreachable "
            "(some link can never succeed); expected latency is infinite");
    expected[mask] = (1.0 + drift) / (1.0 - stay);
  }
  return expected[full];
}

double exact_aloha_expected_slots(const Network& net, units::Probability q,
                                  units::Threshold beta,
                                  Propagation propagation, std::size_t max_n) {
  const double steps =
      exact_aloha_expected_macro_steps(net, q, beta, propagation, max_n);
  const double per_step =
      propagation == Propagation::Rayleigh ? kLatencyRepeats : 1;
  return steps * per_step;
}

}  // namespace raysched::core
