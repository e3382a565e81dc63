// Shared fixtures and instance builders for the raysched test suite.
#pragma once

#include <vector>

#include "raysched.hpp"

namespace raysched::testing {

/// One slot's arrival events as per-link counts, 0 where a link has none.
inline std::vector<std::uint32_t> dense_arrivals(
    const std::vector<serve::ArrivalEvent>& events, std::size_t n) {
  std::vector<std::uint32_t> counts(n, 0);
  for (const serve::ArrivalEvent& event : events) {
    counts.at(event.link) += event.count;
  }
  return counts;
}

/// Two parallel links far apart: both trivially feasible at moderate beta.
inline model::Network two_far_links(double noise = 0.0) {
  std::vector<model::Link> links = {
      {model::Point{0.0, 0.0}, model::Point{1.0, 0.0}},
      {model::Point{0.0, 100.0}, model::Point{1.0, 100.0}},
  };
  return model::Network(std::move(links), model::PowerAssignment::uniform(1.0),
                        2.0, units::Power(noise));
}

/// Two co-located links: heavy mutual interference, at most one can meet a
/// beta >= 1 threshold.
inline model::Network two_close_links(double noise = 0.0) {
  std::vector<model::Link> links = {
      {model::Point{0.0, 0.0}, model::Point{1.0, 0.0}},
      {model::Point{0.0, 0.5}, model::Point{1.0, 0.5}},
  };
  return model::Network(std::move(links), model::PowerAssignment::uniform(1.0),
                        2.0, units::Power(noise));
}

/// A 3-link geometry-free network with a hand-chosen gain matrix.
/// Row-major [j*n + i] = S(j,i):
///   own signals 10, cross gains small and asymmetric.
inline model::Network hand_matrix_network(double noise = 0.1) {
  const std::vector<double> gains = {
      10.0, 1.0, 0.5,   // sender 0 at receivers 0,1,2
      2.0, 10.0, 0.25,  // sender 1
      0.5, 0.5, 10.0,   // sender 2
  };
  return model::Network(3, gains, units::Power(noise));
}

/// Paper-style random plane network (Figure 1 family, scaled down).
inline model::Network paper_network(std::size_t n, std::uint64_t seed,
                                    double alpha = 2.2, double noise = 4e-7,
                                    double power = 2.0,
                                    double min_len = 20.0,
                                    double max_len = 40.0) {
  util::RngStream rng(seed);
  model::RandomPlaneParams params;
  params.num_links = n;
  params.min_length = min_len;
  params.max_length = max_len;
  auto links = model::random_plane_links(params, rng);
  return model::Network(std::move(links),
                        model::PowerAssignment::uniform(power), alpha, units::Power(noise));
}

}  // namespace raysched::testing
