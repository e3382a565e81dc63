// raysched: the network — links, noise, and the mean-gain matrix.
//
// A Network fixes everything deterministic about an instance: the n links,
// ambient noise nu, and the matrix of mean received signal strengths
// S̄(j,i) = mean power received at receiver i from sender j. In the
// non-fading model the received strength *is* S̄(j,i); in the Rayleigh model
// it is exponentially distributed with mean S̄(j,i) (see rayleigh.hpp).
//
// Networks can be built geometrically (links + power assignment + path-loss
// alpha: S̄(j,i) = p_j / d(s_j, r_i)^alpha) or from an arbitrary gain matrix
// — the paper's reduction makes no geometric assumptions, and the
// geometry-free constructor keeps that generality available.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "model/link.hpp"
#include "model/pathloss.hpp"
#include "model/power.hpp"
#include "util/error.hpp"
#include "util/units.hpp"

namespace raysched::model {

class Network {
 public:
  /// Geometric construction: S̄(j,i) = p_j / d(s_j, r_i)^alpha.
  /// Requires all cross distances to be positive (no sender placed exactly
  /// on another link's receiver).
  Network(std::vector<Link> links, const PowerAssignment& powers, double alpha,
          units::Power noise);

  /// Geometric construction with a general path-loss law:
  /// S̄(j,i) = p_j * loss.gain_factor(d(s_j, r_i)). Power-assignment
  /// length-dependence (square-root/linear) uses the law's nominal alpha.
  Network(std::vector<Link> links, const PowerAssignment& powers,
          const PathLoss& loss, units::Power noise);

  /// Geometry-free construction from an explicit n x n mean-gain matrix,
  /// row-major with entry [j*n + i] = S̄(j,i). Diagonal entries must be
  /// positive (a link must be able to hear its own sender).
  Network(std::size_t n, std::vector<double> mean_gains, units::Power noise);

  [[nodiscard]] std::size_t size() const { return n_; }

  /// Ambient noise nu as a raw double — the hot-loop escape hatch used by
  /// every closed form; the typed view is noise_power().
  [[nodiscard]] double noise() const { return noise_; }
  [[nodiscard]] units::Power noise_power() const {
    return units::Power(noise_);
  }

  /// Path-loss exponent (only meaningful for geometric networks; 0 if the
  /// network was built from a raw matrix).
  [[nodiscard]] double alpha() const { return alpha_; }
  [[nodiscard]] bool has_geometry() const { return !links_.empty(); }

  /// The links (empty for geometry-free networks).
  [[nodiscard]] const std::vector<Link>& links() const { return links_; }

  [[nodiscard]] const Link& link(LinkId i) const {
    require(i < links_.size(), "Network::link: id out of range");
    return links_[i];
  }

  /// Mean received strength at receiver i from sender j (S̄(j,i)).
  [[nodiscard]] double mean_gain(LinkId j, LinkId i) const {
    return gains_[j * n_ + i];
  }

  /// Row j of the mean-gain matrix: gain_row(j)[i] == mean_gain(j, i), so
  /// row-wise readers stream one contiguous span instead of n lookups. The
  /// span aliases the network and sees later set_powers rescales.
  [[nodiscard]] std::span<const double> gain_row(LinkId j) const {
    require(j < n_, "Network::gain_row: id out of range");
    return {gains_.data() + j * n_, n_};
  }

  /// Mean strength of link i's own signal (S̄(i,i)).
  [[nodiscard]] double signal(LinkId i) const { return gains_[i * n_ + i]; }

  /// Transmission power used by link i (1.0 for geometry-free networks,
  /// where powers are already folded into the gain matrix).
  [[nodiscard]] double power(LinkId i) const {
    return powers_.empty() ? 1.0 : powers_[i];
  }

  /// Replaces the power of every link, rescaling row j of the gain matrix by
  /// new_power/old_power. Only valid for geometric networks. This is how
  /// power-control algorithms apply their computed powers.
  void set_powers(const std::vector<double>& new_powers);

  /// Ratio Delta = max link length / min link length (geometric networks).
  [[nodiscard]] double length_ratio() const;

  /// Makes this network the restriction of `parent` to `ids`: a
  /// geometry-free network of |ids| links with mean_gain(a, b) ==
  /// parent.mean_gain(ids[a], ids[b]) bit for bit and the parent's noise.
  /// Every id is validated before the first read; an empty `ids` leaves
  /// an empty network. Reuses this network's storage, so refilling a
  /// warmed-up target allocates nothing. `parent` must not be *this.
  void assign_restriction(const Network& parent, std::span<const LinkId> ids);

 private:
  std::size_t n_ = 0;
  std::vector<Link> links_;
  std::vector<double> gains_;   // row-major [j*n + i] = S̄(j,i)
  std::vector<double> powers_;  // current per-link powers (geometric only)
  double alpha_ = 0.0;
  double noise_ = 0.0;
};

}  // namespace raysched::model
