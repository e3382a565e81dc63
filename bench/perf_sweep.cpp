// P8: engine-sweep performance harness (perf regression gates). Times the
// Monte-Carlo experiment engine (sim::run_experiment) end to end — instance
// generation, per-cell trial evaluation, fault bookkeeping, and the
// deterministic network-index-order reduction — at a configurable
// networks x trials grid (default 100 x 100 = 10^4 cells) across a sweep
// of thread counts, and emits machine-readable JSON (BENCH_8.json) for the
// perf-smoke CI gate and docs/PERFORMANCE.md.
//
// Methodology: each (thread count) sweep is run --reps times and the
// fastest wall time is kept (min: the least-perturbed run on a shared
// machine). Every sweep's aggregated statistics are folded into a checksum
// that is printed into the JSON, so the work cannot be discarded — and,
// because the engine derives RNG streams per cell independently of
// scheduling, the checksum must be BIT-IDENTICAL across all thread counts.
// A mismatch sets deterministic_ok=false, which perf_compare.py treats as
// a hard failure at any tolerance (like conservation_ok in BENCH_6).
//
// The harness exits nonzero if any throughput is non-finite or
// non-positive, or if determinism across thread counts broke, so CI can
// gate on the exit code alone.
#include <bit>
#include <charconv>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "raysched.hpp"

using namespace raysched;

namespace {

using Clock = std::chrono::steady_clock;

double elapsed_ns(Clock::time_point t0, Clock::time_point t1) {
  return std::chrono::duration<double, std::nano>(t1 - t0).count();
}

std::vector<std::size_t> parse_threads(const std::string& csv) {
  std::vector<std::size_t> counts;
  std::stringstream ss(csv);
  std::string tok;
  while (std::getline(ss, tok, ',')) {
    if (tok.empty()) continue;
    const long long v = std::stoll(tok);
    require(v > 0, "perf_sweep: --threads entries must be positive");
    counts.push_back(static_cast<std::size_t>(v));
  }
  require(!counts.empty(),
          "perf_sweep: --threads must name at least one count");
  return counts;
}

/// Full-precision double for JSON (never NaN/Inf by the time we emit).
std::string json_num(double v) {
  std::ostringstream os;
  os.precision(17);
  os << v;
  return os.str();
}

/// Shortest round-trip double for *configuration* metadata, so "0.1" does
/// not become max_digits10 noise in the artifact header. Results keep the
/// full json_num precision.
std::string json_num_meta(double v) {
  char buf[64];
  const auto [ptr, ec] = std::to_chars(buf, buf + sizeof(buf), v);
  require(ec == std::errc(), "perf_sweep: metadata double formatting failed");
  return std::string(buf, ptr);
}

struct ThreadResult {
  std::size_t threads = 0;
  double cells_per_sec = 0.0;
  double sweep_ms = 0.0;  ///< best single-sweep wall time
  double checksum = 0.0;  ///< bit-identical across thread counts
};

/// One full engine sweep at the given thread count; returns the aggregate
/// checksum (pooled and per-network means over both metrics).
double run_sweep(std::size_t networks, std::size_t trials, std::size_t links,
                 double beta_value, std::size_t threads) {
  sim::ExperimentConfig config;
  config.num_networks = networks;
  config.trials_per_network = trials;
  config.master_seed = 0x5EED8;
  config.num_threads = threads;

  const units::Threshold beta(beta_value);
  const auto result = sim::run_experiment(
      config, {"successes", "transmitters"},
      [links](util::RngStream& rng) {
        model::RandomPlaneParams params;
        params.num_links = links;
        auto plane = model::random_plane_links(params, rng);
        return model::Network(std::move(plane),
                              model::PowerAssignment::uniform(2.0), 2.2,
                              units::Power(4e-7));
      },
      [beta](const model::Network& net, util::RngStream& rng) {
        // Paper-style trial: a Bernoulli(0.3) transmit set, then one
        // Rayleigh fading draw and the per-slot success count.
        model::LinkSet active;
        for (model::LinkId i = 0; i < net.size(); ++i) {
          if (rng.bernoulli(0.3)) active.push_back(i);
        }
        const auto wins = model::count_successes_rayleigh(net, active, beta,
                                                          rng);
        return std::vector<double>{static_cast<double>(wins),
                                   static_cast<double>(active.size())};
      });

  double checksum = 0.0;
  for (std::size_t m = 0; m < result.num_metrics(); ++m) {
    checksum += result.per_trial[m].mean() + result.per_network[m].mean();
  }
  return checksum;
}

}  // namespace

int main(int argc, char** argv) {
  util::Flags flags;
  flags.add_int("networks", 100, "outer sweep dimension (instances)");
  flags.add_int("trials", 100, "trials per network (10^4 cells by default)");
  flags.add_int("links", 30, "links per generated network");
  flags.add_string("threads", "1,4",
                   "comma-separated engine thread counts to sweep");
  flags.add_int("reps", 3, "sweeps per thread count (best kept)");
  flags.add_double("beta", 2.5, "SINR threshold");
  flags.add_string("out", "BENCH_8.json", "output JSON path");
  try {
    flags.parse(argc, argv);
  } catch (const error& e) {
    std::cerr << e.what() << "\n" << flags.usage(argv[0]);
    return 1;
  }
  if (flags.help_requested()) {
    std::cout << flags.usage(argv[0]);
    return 0;
  }

  const auto networks = static_cast<std::size_t>(flags.get_int("networks"));
  const auto trials = static_cast<std::size_t>(flags.get_int("trials"));
  const auto links = static_cast<std::size_t>(flags.get_int("links"));
  const auto thread_counts = parse_threads(flags.get_string("threads"));
  const long long reps = std::max(1LL, flags.get_int("reps"));
  const double beta = flags.get_double("beta");
  const double cells = static_cast<double>(networks * trials);

  util::Table table({"threads", "sweep_ms", "cells_per_sec", "checksum"});
  std::vector<ThreadResult> results;
  for (const std::size_t threads : thread_counts) {
    std::cerr << "perf_sweep: timing " << networks << "x" << trials
              << " cells, threads=" << threads << "\n";
    ThreadResult r;
    r.threads = threads;
    double best_ns = std::numeric_limits<double>::infinity();
    for (long long rep = 0; rep < reps; ++rep) {
      const auto t0 = Clock::now();
      r.checksum = run_sweep(networks, trials, links, beta, threads);
      best_ns = std::min(best_ns, elapsed_ns(t0, Clock::now()));
    }
    r.sweep_ms = best_ns / 1e6;
    r.cells_per_sec = cells / (best_ns * 1e-9);
    table.add_row({static_cast<long long>(r.threads), r.sweep_ms,
                   r.cells_per_sec, r.checksum});
    results.push_back(r);
  }
  table.print_text(std::cout);

  // Determinism gate: the engine contract says thread count never changes
  // results, so every sweep's checksum must match the serial one bitwise.
  bool deterministic = true;
  for (const ThreadResult& r : results) {
    deterministic = deterministic &&
                    std::bit_cast<std::uint64_t>(r.checksum) ==
                        std::bit_cast<std::uint64_t>(results.front().checksum);
  }

  // Gate before writing: CI trusts the exit code.
  bool ok = deterministic;
  for (const ThreadResult& r : results) {
    ok = ok && std::isfinite(r.cells_per_sec) && r.cells_per_sec > 0.0 &&
         std::isfinite(r.checksum);
  }
  if (!ok) {
    std::cerr << "perf_sweep: non-finite measurement or thread-count "
                 "nondeterminism\n";
    return 1;
  }

  std::ostringstream json;
  json << "{\n"
       << "  \"bench\": \"perf_sweep\",\n"
       << "  \"networks\": " << networks << ",\n"
       << "  \"trials\": " << trials << ",\n"
       << "  \"links\": " << links << ",\n"
       << "  \"beta\": " << json_num_meta(beta) << ",\n"
       << "  \"reps\": " << reps << ",\n"
       << "  \"deterministic_ok\": " << (deterministic ? "true" : "false")
       << ",\n"
       << "  \"sizes\": [\n";
  for (std::size_t k = 0; k < results.size(); ++k) {
    const ThreadResult& r = results[k];
    json << "    {\"n\": " << r.threads                            //
         << ", \"sweep_ms\": " << json_num(r.sweep_ms)             //
         << ", \"cells_per_sec\": " << json_num(r.cells_per_sec)   //
         << ", \"speedup_threads\": "
         << json_num(results.front().sweep_ms / r.sweep_ms)
         << ", \"checksum\": " << json_num(r.checksum) << "}"
         << (k + 1 < results.size() ? "," : "") << "\n";
  }
  json << "  ]\n"
       << "}\n";

  const std::string path = flags.get_string("out");
  std::ofstream f(path);
  f << json.str();
  if (!f) {
    std::cerr << "perf_sweep: failed to write " << path << "\n";
    return 1;
  }
  std::cout << "wrote " << path << "\n";
  return 0;
}
