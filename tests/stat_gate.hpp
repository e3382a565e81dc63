// A statistical gate for samplers whose draws may change but whose law may
// not.
//
// Golden hashes and bit-identity tests cannot tell a faster sampler of the
// same law from a wrong one: both move the draws. The gate checks the law.
// Every check is a sum, over a fixed number of independent trials, of a
// per-trial statistic whose mean and variance are known under the law being
// tested, and it fails when the standardized sum
//
//   z = (observed - expected) / sqrt(variance)
//
// leaves [-z*, z*]. z* is the two-sided normal quantile at kFamilyAlpha / K,
// K the number of checks in the gate (Bonferroni), so a correct sampler
// fails one gate run with probability about kFamilyAlpha. Seeds and trial
// counts are fixed, so a sampler that passes passes for good, and a failure
// is a finding, never a reason to re-seed.
//
// The Bernoulli-vector form below tests a sampler of independent 0/1
// coordinates with exact success probabilities p_k (Theorem 1's Q_i for a
// Rayleigh slot):
//  * each coordinate's success frequency against p_k;
//  * the per-trial count's mean and variance against the Poisson-binomial
//    sum p_k and sum p_k (1 - p_k); the variance check sums (C - mu)^2 with
//    the exact mu, whose own variance is kappa_4 + 2 sigma^4;
//  * the joint frequency of selected coordinate pairs against p_a p_b, which
//    tests independence.
// The two-sample form compares two samplers of the same Bernoulli vector
// without using p at all, with pooled estimates in the variances.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "util/rng.hpp"

namespace raysched::testing::stat_gate {

/// Probability that a correct sampler fails one gate run.
inline constexpr double kFamilyAlpha = 1e-6;

/// z with P(|N(0,1)| >= z) == alpha, by bisection on erfc.
inline double critical_z(double alpha) {
  double lo = 0.0, hi = 40.0;
  for (int it = 0; it < 200; ++it) {
    const double mid = 0.5 * (lo + hi);
    if (std::erfc(mid / std::sqrt(2.0)) > alpha) lo = mid;
    else hi = mid;
  }
  return hi;
}

/// The outcome of one gate run: a line per failing check, then the worst
/// |z| against the threshold.
struct Verdict {
  bool pass = true;
  std::string failures;
};

/// A family of z-checks evaluated together at the Bonferroni threshold.
class Gate {
 public:
  /// Registers one check. A zero variance demands observed == expected.
  void check(std::string name, double observed, double expected,
             double variance) {
    checks_.push_back({std::move(name), observed, expected, variance});
  }

  [[nodiscard]] Verdict verdict() const {
    Verdict v;
    const double threshold =
        critical_z(kFamilyAlpha / static_cast<double>(checks_.size()));
    double worst = 0.0;
    std::ostringstream out;
    for (const Check& c : checks_) {
      const double diff = c.observed - c.expected;
      double z = 0.0;
      if (c.variance > 0.0) {
        z = diff / std::sqrt(c.variance);
      } else if (diff != 0.0) {
        z = std::numeric_limits<double>::infinity();
      }
      worst = std::fmax(worst, std::fabs(z));
      if (!(std::fabs(z) <= threshold)) {
        v.pass = false;
        out << c.name << ": observed " << c.observed << " expected "
            << c.expected << " z " << z << "\n";
      }
    }
    out << "worst |z| " << worst << " threshold " << threshold << " over "
        << checks_.size() << " checks";
    v.failures = out.str();
    return v;
  }

 private:
  struct Check {
    std::string name;
    double observed;
    double expected;
    double variance;
  };
  std::vector<Check> checks_;
};

using Pairs = std::vector<std::pair<std::size_t, std::size_t>>;

/// Consecutive pairs (0,1), (1,2), ... among the first `limit` coordinates of
/// a k-coordinate vector, plus (0, k-1).
inline Pairs neighbour_pairs(std::size_t k, std::size_t limit = 8) {
  Pairs pairs;
  for (std::size_t a = 0; a + 1 < std::min(k, limit); ++a) {
    pairs.emplace_back(a, a + 1);
  }
  if (k > limit) pairs.emplace_back(0, k - 1);
  return pairs;
}

/// Tallies of a Bernoulli-vector sampler over its trials.
struct Tally {
  std::size_t trials = 0;
  std::vector<std::uint64_t> hits;   ///< per coordinate
  std::vector<std::uint64_t> joint;  ///< per pair: both coordinates hit
  std::vector<double> counts;        ///< per trial: number of hits
};

/// Runs `sample(rng, out)` `trials` times on one stream seeded with `seed`;
/// each call must leave `out` holding k entries, nonzero for a hit.
template <class Sampler>
Tally run(std::size_t k, const Pairs& pairs, std::size_t trials,
          std::uint64_t seed, Sampler&& sample) {
  Tally t;
  t.trials = trials;
  t.hits.assign(k, 0);
  t.joint.assign(pairs.size(), 0);
  t.counts.reserve(trials);
  util::RngStream rng(seed);
  std::vector<char> out;
  for (std::size_t trial = 0; trial < trials; ++trial) {
    sample(rng, out);
    std::size_t count = 0;
    for (std::size_t c = 0; c < k; ++c) {
      if (out.at(c) != 0) {
        ++t.hits[c];
        ++count;
      }
    }
    for (std::size_t q = 0; q < pairs.size(); ++q) {
      if (out[pairs[q].first] != 0 && out[pairs[q].second] != 0) ++t.joint[q];
    }
    t.counts.push_back(static_cast<double>(count));
  }
  return t;
}

/// One-sample gate: the tallies against independent Bernoulli(p[c]).
inline Gate against_law(const Tally& t, const std::vector<double>& p,
                        const Pairs& pairs) {
  Gate gate;
  const double n = static_cast<double>(t.trials);
  double mu = 0.0, var = 0.0, kappa4 = 0.0;
  for (std::size_t c = 0; c < p.size(); ++c) {
    const double v = p[c] * (1.0 - p[c]);
    gate.check("coordinate " + std::to_string(c),
               static_cast<double>(t.hits[c]), n * p[c], n * v);
    mu += p[c];
    var += v;
    kappa4 += v * (1.0 - 6.0 * v);
  }
  for (std::size_t q = 0; q < pairs.size(); ++q) {
    const double pj = p[pairs[q].first] * p[pairs[q].second];
    gate.check("pair " + std::to_string(pairs[q].first) + "," +
                   std::to_string(pairs[q].second),
               static_cast<double>(t.joint[q]), n * pj, n * pj * (1.0 - pj));
  }
  double sum = 0.0, sq = 0.0;
  for (double c : t.counts) {
    sum += c;
    sq += (c - mu) * (c - mu);
  }
  gate.check("count mean", sum, n * mu, n * var);
  gate.check("count variance", sq, n * var, n * (kappa4 + 2.0 * var * var));
  return gate;
}

/// Two-sample gate: the tallies of two samplers of the same vector against
/// each other, with pooled frequencies and sample moments as variances.
inline Gate against_sample(const Tally& a, const Tally& b,
                           const Pairs& pairs) {
  Gate gate;
  const double n = static_cast<double>(a.trials);
  const auto frequency = [&](const std::string& name, std::uint64_t ha,
                             std::uint64_t hb) {
    const double pooled = static_cast<double>(ha + hb) / (2.0 * n);
    gate.check(name, static_cast<double>(ha), static_cast<double>(hb),
               2.0 * n * pooled * (1.0 - pooled));
  };
  for (std::size_t c = 0; c < a.hits.size(); ++c) {
    frequency("coordinate " + std::to_string(c), a.hits[c], b.hits[c]);
  }
  for (std::size_t q = 0; q < pairs.size(); ++q) {
    frequency("pair " + std::to_string(pairs[q].first) + "," +
                  std::to_string(pairs[q].second),
              a.joint[q], b.joint[q]);
  }
  // Sample mean, variance and fourth central moment of a trial count.
  struct Moments {
    double mean = 0.0, var = 0.0, m4 = 0.0;
  };
  const auto moments = [](const std::vector<double>& xs) {
    Moments m;
    for (double x : xs) m.mean += x;
    m.mean /= static_cast<double>(xs.size());
    for (double x : xs) {
      const double d2 = (x - m.mean) * (x - m.mean);
      m.var += d2;
      m.m4 += d2 * d2;
    }
    m.var /= static_cast<double>(xs.size());
    m.m4 /= static_cast<double>(xs.size());
    return m;
  };
  const Moments ma = moments(a.counts), mb = moments(b.counts);
  gate.check("count mean", ma.mean, mb.mean, (ma.var + mb.var) / n);
  gate.check("count variance", ma.var, mb.var,
             (ma.m4 - ma.var * ma.var + mb.m4 - mb.var * mb.var) / n);
  return gate;
}

}  // namespace raysched::testing::stat_gate
