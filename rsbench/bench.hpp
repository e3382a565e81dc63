// rsbench: shared pieces of the raysched benchmark binary — the run
// options, the metric record every workload fills, timing and percentile
// helpers, the allocation counter and the paper's network geometry.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "model/network.hpp"
#include "util/rng.hpp"

namespace rsbench {

using Clock = std::chrono::steady_clock;

/// Command-line options of one run.
struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string scratch;  ///< directory for files a workload writes
};

/// One reported number. `samples` is the sample count behind a median or
/// percentile (0 otherwise). Units come from main.cpp's metric tables.
struct Metric {
  std::string name;
  double value = 0.0;
  std::size_t samples = 0;
  bool end_to_end = false;  ///< printed in the untraced run's JSON
};

/// What a workload hands back to main().
struct Result {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> metrics;
  std::vector<std::string> check_failures;  ///< empty when all checks pass
  std::vector<std::string> notes;           ///< hashes and counts to print

  void e2e(const std::string& name, double value, std::size_t samples = 0) {
    metrics.push_back({name, value, samples, true});
  }
  /// Per-layer metrics a workload does not report print as 0 (layer idle).
  void layer(const std::string& name, double value, std::size_t samples = 0) {
    metrics.push_back({name, value, samples, false});
  }
  /// Records a failed check; after 20 failures only the first 20 are kept.
  void check(bool ok, const std::string& what) {
    if (!ok && check_failures.size() < 20) check_failures.push_back(what);
  }
};

// The paper's Section-7 geometry and SINR parameters.
inline constexpr double kBeta = 2.5;
inline constexpr double kAlpha = 2.2;
inline constexpr double kNoise = 4e-7;
inline constexpr double kPower = 2.0;

/// random_plane_links(n) under uniform power 2, alpha 2.2, noise 4e-7.
[[nodiscard]] raysched::model::Network paper_network(
    std::size_t n, raysched::util::RngStream& rng);

[[nodiscard]] inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}
[[nodiscard]] inline double micros_since(Clock::time_point t0) {
  return std::chrono::duration<double, std::micro>(Clock::now() - t0).count();
}

/// Linear-interpolated percentile (p in [0, 1]) of an unsorted sample; 0
/// for an empty sample.
[[nodiscard]] double percentile(std::vector<double> values, double p);
[[nodiscard]] double median(std::vector<double> values);
[[nodiscard]] double sum(const std::vector<double>& values);
[[nodiscard]] double mean(const std::vector<double>& values);

/// Global operator-new calls so far (main.cpp replaces operator new with
/// a counting forwarder).
[[nodiscard]] std::uint64_t alloc_count();

/// Peak resident set size of this process, in MiB.
[[nodiscard]] double peak_rss_mib();

// Host speed normalization. On a shared host the same code runs up to 1.7x
// slower for tens of seconds at a time, and every timing in a run moves
// with it. The benchmark therefore times a fixed calibration kernel between
// slots (or batches) and reports every timing of the run at reference host
// speed: measured time × kReferenceCalibrationUs / median calibration time,
// so the number reads as the time on a host where the kernel takes 300 us.

/// The calibration kernel's time on the quiet 4-core x86 host the benchmark
/// was tuned on; it only fixes the scale of the reported timings.
inline constexpr double kReferenceCalibrationUs = 300.0;

/// Runs the calibration kernel on `threads` threads at once (started
/// together; thread start-up is not timed) and returns the slowest thread's
/// time in microseconds.
[[nodiscard]] double calibration_us(std::size_t threads);

/// The factor that turns a time measured while calibration_us() read
/// `calibration` into reference-speed time (divide rates by it).
[[nodiscard]] inline double reference_scale(double calibration) {
  return kReferenceCalibrationUs / calibration;
}

/// Megabytes of `doubles` 8-byte values (computed, not measured).
[[nodiscard]] inline double mib_of_doubles(double doubles) {
  return doubles * 8.0 / (1024.0 * 1024.0);
}

Result run_serve_maxweight(const Options& options);
Result run_serve_rayleigh_ahm(const Options& options);
Result run_sweep_fig1(const Options& options);

}  // namespace rsbench
