// rsbench: the Figure-1 Monte-Carlo sweep workload.
//
// One batch is one sim::run_experiment call over kNetworks paper networks of
// kLinks links on kThreads engine threads. Each cell (network, trial) is one
// simulated slot: a Bernoulli(q) transmit set, with q cycling through the
// 20 Fig-1 points by trial index, evaluated by
//   model::count_successes_nonfading,
//   core::batch_expected_successes_active (the Theorem-1 batch path; the
//     traced run checks it bit for bit against
//     model::expected_successes_rayleigh), and
//   model::count_successes_rayleigh.
// Batches run back to back (closed loop) until --seconds have passed. Every
// batch draws the same cells, so every batch must reproduce the first
// batch's checksum, and so must a 1-thread batch.
#include <atomic>
#include <bit>
#include <cstdint>
#include <string>
#include <vector>

#include "bench.hpp"
#include "core/success_probability_batch.hpp"
#include "model/rayleigh.hpp"
#include "model/sinr.hpp"
#include "sim/engine.hpp"

namespace rsbench {
namespace {

using namespace raysched;

constexpr std::size_t kLinks = 100;
constexpr std::size_t kNetworks = 32;
constexpr std::size_t kQPoints = 20;
constexpr std::size_t kTrials = 2 * kQPoints;
constexpr std::size_t kCells = kNetworks * kTrials;
constexpr std::size_t kThreads = 4;
constexpr std::size_t kMinBatches = 20;
constexpr int kSetups = 25;
constexpr int kSerialBatches = 9;  // traced run: 1-thread batches

// Row layout returned by each cell.
enum Column : std::size_t { kTx, kNonFading, kExpected, kRayleigh };

/// Per-cell timings of the last batch, indexed net * kTrials + trial. The
/// engine runs each network on exactly one worker, so no two threads write
/// one element.
struct CellTimes {
  std::vector<double> instance_us = std::vector<double>(kNetworks);
  std::vector<double> cell_us = std::vector<double>(kCells);
  std::vector<double> expected_us = std::vector<double>(kCells);
  std::vector<double> rayleigh_us = std::vector<double>(kCells);
  std::vector<double> check_us = std::vector<double>(kCells);
  std::vector<double> tx = std::vector<double>(kCells);
};

std::uint64_t checksum(const sim::ExperimentResult& result) {
  std::uint64_t h = 14695981039346656037ULL;  // FNV-1a over the mean bits
  auto mix = [&h](double v) {
    const auto bits = std::bit_cast<std::uint64_t>(v);
    for (int byte = 0; byte < 8; ++byte) {
      h ^= (bits >> (8 * byte)) & 0xFF;
      h *= 1099511628211ULL;
    }
  };
  for (std::size_t m = 0; m < result.num_metrics(); ++m) {
    mix(result.per_trial[m].mean());
    mix(result.per_network[m].mean());
  }
  return h;
}

class Sweep {
 public:
  explicit Sweep(const Options& options)
      : seed_(options.seed), trace_(options.trace) {}

  sim::ExperimentResult run(std::size_t threads) {
    sim::ExperimentConfig config;
    config.num_networks = kNetworks;
    config.trials_per_network = kTrials;
    config.master_seed = seed_;
    config.num_threads = threads;
    config.fault_policy = sim::FaultPolicy::Skip;
    return sim::run_experiment(
        config, {"transmitters", "nonfading", "expected_rayleigh", "rayleigh"},
        [this](util::RngStream& rng) { return instance(rng); },
        [this](const model::Network& net, util::RngStream& rng) {
          return trial(net, rng);
        });
  }

  const CellTimes& times() const { return times_; }
  std::size_t scalar_mismatches() const { return mismatches_.load(); }

 private:
  model::Network instance(util::RngStream& rng) {
    const auto t0 = Clock::now();
    model::Network net = paper_network(kLinks, rng);
    times_.instance_us[sim::current_cell().net_idx] = micros_since(t0);
    return net;
  }

  std::vector<double> trial(const model::Network& net, util::RngStream& rng) {
    const sim::CellRef cell = sim::current_cell();
    const std::size_t idx = cell.net_idx * kTrials + cell.trial_idx;
    const double q = static_cast<double>(cell.trial_idx % kQPoints + 1) /
                     static_cast<double>(kQPoints);
    const units::Threshold beta(kBeta);
    const auto t0 = Clock::now();
    model::LinkSet active;
    for (model::LinkId i = 0; i < net.size(); ++i) {
      if (rng.bernoulli(q)) active.push_back(i);
    }
    const auto nonfading = static_cast<double>(
        model::count_successes_nonfading(net, active, beta));
    const auto t1 = Clock::now();
    const double expected =
        core::batch_expected_successes_active(net, active, beta);
    const auto t2 = Clock::now();
    const auto rayleigh = static_cast<double>(
        model::count_successes_rayleigh(net, active, beta, rng));
    const auto t3 = Clock::now();
    using us = std::chrono::duration<double, std::micro>;
    times_.cell_us[idx] = us(t3 - t0).count();
    times_.expected_us[idx] = us(t2 - t1).count();
    times_.rayleigh_us[idx] = us(t3 - t2).count();
    times_.tx[idx] = static_cast<double>(active.size());
    if (trace_) {
      const double scalar =
          model::expected_successes_rayleigh(net, active, beta);
      if (std::bit_cast<std::uint64_t>(scalar) !=
          std::bit_cast<std::uint64_t>(expected)) {
        mismatches_.fetch_add(1);
      }
      times_.check_us[idx] = micros_since(t3);
    }
    return {static_cast<double>(active.size()), nonfading, expected, rayleigh};
  }

  std::uint64_t seed_;
  bool trace_;
  CellTimes times_;
  std::atomic<std::size_t> mismatches_{0};
};

}  // namespace

Result run_sweep_fig1(const Options& options) {
  Result result;

  // Set-up: draw the grid's instance set, kSetups times.
  std::vector<double> setup_s;
  std::vector<double> network_s;
  for (int k = 0; k < kSetups; ++k) {
    const auto t0 = Clock::now();
    for (std::size_t net = 0; net < kNetworks; ++net) {
      const auto n0 = Clock::now();
      util::RngStream rng = util::RngStream(options.seed).derive(net);
      const model::Network instance = paper_network(kLinks, rng);
      network_s.push_back(seconds_since(n0));
    }
    setup_s.push_back(seconds_since(t0));
  }

  Sweep sweep(options);
  const sim::ExperimentResult first = sweep.run(kThreads);  // warm-up
  const std::uint64_t expected_sum = checksum(first);
  result.notes.push_back("checksum " + std::to_string(expected_sum) +
                         " rayleigh_mean " +
                         std::to_string(first.per_trial[kRayleigh].mean()));

  std::vector<double> serial_s;
  for (int k = 0; k < (options.trace ? kSerialBatches : 1); ++k) {
    const auto t0 = Clock::now();
    const sim::ExperimentResult serial = sweep.run(1);
    serial_s.push_back(seconds_since(t0));
    result.check(checksum(serial) == expected_sum,
                 "1-thread sweep checksum differs from the 4-thread one");
  }

  std::vector<double> batch_s;
  std::vector<double> calibration;
  std::vector<double> batch_p50_us;
  std::vector<double> batch_p99_us;
  std::vector<double> busy;
  // Traced run only: every cell's and instance's timings, pooled.
  std::vector<double> cell_us;
  std::vector<double> instance_us;
  std::vector<double> expected_us;
  std::vector<double> rayleigh_us;
  double check_us = 0.0;
  double tx_sum = 0.0;
  std::size_t skipped = 0;
  std::size_t mismatched_batches = 0;
  const auto loop_t0 = Clock::now();
  while (batch_s.size() < kMinBatches ||
         seconds_since(loop_t0) < options.seconds) {
    const auto t0 = Clock::now();
    const sim::ExperimentResult batch = sweep.run(kThreads);
    const double wall = seconds_since(t0);
    if (checksum(batch) != expected_sum) ++mismatched_batches;
    skipped += batch.cells_skipped;
    batch_s.push_back(wall);
    calibration.push_back(calibration_us(kThreads));
    const CellTimes& t = sweep.times();
    batch_p50_us.push_back(percentile(t.cell_us, 0.50));
    batch_p99_us.push_back(percentile(t.cell_us, 0.99));
    busy.push_back((sum(t.instance_us) + sum(t.cell_us)) * 1e-6 /
                   (wall * static_cast<double>(kThreads)));
    if (options.trace) {
      cell_us.insert(cell_us.end(), t.cell_us.begin(), t.cell_us.end());
      instance_us.insert(instance_us.end(), t.instance_us.begin(),
                         t.instance_us.end());
      expected_us.insert(expected_us.end(), t.expected_us.begin(),
                         t.expected_us.end());
      rayleigh_us.insert(rayleigh_us.end(), t.rayleigh_us.begin(),
                         t.rayleigh_us.end());
      check_us += sum(t.check_us);
      tx_sum += sum(t.tx);
    }
  }
  const double loop_s = seconds_since(loop_t0);
  const double speedup = median(serial_s) / median(batch_s);

  // Every timing of the run at reference host speed (bench.hpp).
  const double host_us = median(calibration);
  const double scale = reference_scale(host_us);
  for (std::vector<double>* series :
       {&setup_s, &network_s, &batch_s, &batch_p50_us, &batch_p99_us,
        &cell_us, &instance_us, &expected_us, &rayleigh_us}) {
    for (double& t : *series) t *= scale;
  }
  result.notes.push_back("host calibration " + std::to_string(host_us) +
                         " us; timings scaled by " + std::to_string(scale));
  const std::size_t cells = batch_s.size() * kCells;
  const double cells_per_s = static_cast<double>(cells) / sum(batch_s);
  // Each batch holds kCells = 1280 cells, so its p99 has 12 cells beyond it.
  const double p50 = mean(batch_p50_us);
  const double p99 = mean(batch_p99_us);

  result.check(mismatched_batches == 0,
               "a sweep batch's checksum differs from the first batch's");
  result.check(sweep.scalar_mismatches() == 0,
               "core batch expected successes differ from the scalar model");
  result.attempted = cells;
  result.failed = skipped;

  const sim::Accumulator& tx = first.per_trial[kTx];
  const sim::Accumulator& rayleigh = first.per_trial[kRayleigh];
  if (!options.trace) {
    result.e2e("setup_s", median(setup_s), setup_s.size());
    result.e2e("slots_per_s", cells_per_s, cells);
    result.e2e("slot_p50_us", p50, cells);
    result.e2e("slot_p99_us", p99, cells);
    result.e2e("served_per_slot", rayleigh.mean());
    result.e2e("fail_ratio", 1.0 - rayleigh.mean() / tx.mean());
    result.e2e("peak_rss_mib", peak_rss_mib());
    return result;
  }

  result.layer("trace.slots_per_s", cells_per_s, cells);
  result.layer("trace.slot_p50_us", p50, cells);
  result.layer("trace.slot_p99_us", p99, cells);
  result.layer("trace.overhead_pct",
               100.0 * check_us * 1e-6 /
                   (loop_s * static_cast<double>(kThreads)));
  result.layer("host.calibration_us", host_us, calibration.size());
  result.layer("model.network_build_s", median(network_s), network_s.size());
  result.layer("model.sinr_rayleigh_p50_us", percentile(rayleigh_us, 0.50),
               rayleigh_us.size());
  result.layer("model.live_set_size",
               tx_sum / static_cast<double>(cells));
  result.layer("model.gain_mib",
               mib_of_doubles(static_cast<double>(kLinks * kLinks)));
  result.layer("core.expected_rayleigh_p50_us", percentile(expected_us, 0.50),
               expected_us.size());
  result.layer("sim.instance_p50_us", percentile(instance_us, 0.50),
               instance_us.size());
  result.layer("sim.trial_p50_us", percentile(cell_us, 0.50), cell_us.size());
  result.layer("sim.trial_p99_us", percentile(cell_us, 0.99), cell_us.size());
  result.layer("sim.busy_frac", median(busy), busy.size());
  result.layer("sim.cells_skipped", static_cast<double>(skipped));
  result.layer("sim.speedup_4t", speedup, serial_s.size());
  return result;
}

}  // namespace rsbench
