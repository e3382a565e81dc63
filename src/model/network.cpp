#include "model/network.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "util/contracts.hpp"

namespace raysched::model {

namespace {

/// Contract shared by every constructor: a gain matrix with a NaN or Inf
/// entry poisons every closed form downstream (Theorem 1's product, the
/// affectance sums), so catch it at the boundary where the matrix is built.
void expect_finite_gains(const std::vector<double>& gains) {
#if defined(RAYSCHED_CONTRACTS)
  for (double g : gains) {
    RAYSCHED_EXPECT(std::isfinite(g), "mean gain matrix entry is not finite");
  }
#else
  (void)gains;
#endif
}

}  // namespace

Network::Network(std::vector<Link> links, const PowerAssignment& powers,
                 double alpha, units::Power noise)
    : n_(links.size()), links_(std::move(links)), alpha_(alpha),
      noise_(noise.value()) {
  require(n_ > 0, "Network: need at least one link");
  require(alpha > 0.0, "Network: alpha must be positive");
  require(noise_ >= 0.0, "Network: noise must be non-negative");
  gains_.resize(n_ * n_);
  powers_.resize(n_);
  for (LinkId j = 0; j < n_; ++j) {
    powers_[j] = powers.power(j, links_[j], alpha_).value();
    require(powers_[j] > 0.0, "Network: computed power must be positive");
  }
  for (LinkId j = 0; j < n_; ++j) {
    for (LinkId i = 0; i < n_; ++i) {
      const double d = distance(links_[j].sender, links_[i].receiver);
      require(d > 0.0,
              "Network: sender of one link coincides with a receiver; "
              "gains would be infinite");
      gains_[j * n_ + i] = powers_[j] / std::pow(d, alpha_);
    }
  }
  expect_finite_gains(gains_);
}

Network::Network(std::vector<Link> links, const PowerAssignment& powers,
                 const PathLoss& loss, units::Power noise)
    : n_(links.size()), links_(std::move(links)),
      alpha_(loss.nominal_alpha()), noise_(noise.value()) {
  require(n_ > 0, "Network: need at least one link");
  require(noise_ >= 0.0, "Network: noise must be non-negative");
  gains_.resize(n_ * n_);
  powers_.resize(n_);
  for (LinkId j = 0; j < n_; ++j) {
    powers_[j] = powers.power(j, links_[j], alpha_).value();
    require(powers_[j] > 0.0, "Network: computed power must be positive");
  }
  for (LinkId j = 0; j < n_; ++j) {
    for (LinkId i = 0; i < n_; ++i) {
      const double d = distance(links_[j].sender, links_[i].receiver);
      require(d > 0.0,
              "Network: sender of one link coincides with a receiver; "
              "gains would be infinite");
      gains_[j * n_ + i] =
          powers_[j] * loss.gain_factor(units::Distance(d)).value();
    }
  }
  expect_finite_gains(gains_);
}

Network::Network(std::size_t n, std::vector<double> mean_gains,
                 units::Power noise)
    : n_(n), gains_(std::move(mean_gains)), noise_(noise.value()) {
  require(n_ > 0, "Network: need at least one link");
  require(gains_.size() == n_ * n_, "Network: gain matrix must be n x n");
  require(noise_ >= 0.0, "Network: noise must be non-negative");
  for (LinkId j = 0; j < n_; ++j) {
    for (LinkId i = 0; i < n_; ++i) {
      require(gains_[j * n_ + i] >= 0.0, "Network: gains must be >= 0");
    }
    require(gains_[j * n_ + j] > 0.0,
            "Network: diagonal gains S(i,i) must be positive");
  }
  expect_finite_gains(gains_);
}

void Network::set_powers(const std::vector<double>& new_powers) {
  require(has_geometry(),
          "Network::set_powers: only geometric networks carry powers");
  require(new_powers.size() == n_, "Network::set_powers: size mismatch");
  for (LinkId j = 0; j < n_; ++j) {
    require(new_powers[j] > 0.0, "Network::set_powers: powers must be > 0");
    RAYSCHED_EXPECT(powers_[j] > 0.0,
                    "Network invariant: stored powers are positive");
    const double scale = new_powers[j] / powers_[j];
    for (LinkId i = 0; i < n_; ++i) gains_[j * n_ + i] *= scale;
    powers_[j] = new_powers[j];
  }
}

void Network::assign_restriction(const Network& parent,
                                 std::span<const LinkId> ids) {
  require(&parent != this, "Network::assign_restriction: parent is target");
  for (LinkId id : ids) {
    require(id < parent.n_, "Network::assign_restriction: id out of range");
  }
  const std::size_t m = ids.size();
  n_ = m;
  links_.clear();
  powers_.clear();
  alpha_ = 0.0;
  noise_ = parent.noise_;
  gains_.resize(m * m);
  for (std::size_t a = 0; a < m; ++a) {
    const double* row = parent.gains_.data() + ids[a] * parent.n_;
    double* out = gains_.data() + a * m;
    for (std::size_t b = 0; b < m; ++b) out[b] = row[ids[b]];
  }
}

double Network::length_ratio() const {
  require(has_geometry(), "Network::length_ratio: requires geometry");
  double lo = std::numeric_limits<double>::infinity();
  double hi = 0.0;
  for (const Link& l : links_) {
    const double len = l.length();
    lo = std::min(lo, len);
    hi = std::max(hi, len);
  }
  require(lo > 0.0, "Network::length_ratio: zero-length link");
  return hi / lo;
}

}  // namespace raysched::model
