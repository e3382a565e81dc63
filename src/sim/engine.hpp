// raysched: the Monte-Carlo experiment engine.
//
// The paper's experiments nest three seed dimensions: network seeds x
// transmit seeds x fading seeds. Experiment captures that pattern once:
// an instance factory draws a network per network-seed, a trial function
// evaluates one (network, trial) cell and returns one or more metric rows,
// and the engine aggregates per-metric statistics — optionally in parallel
// across networks, with fully deterministic stream derivation so that the
// thread count never changes results.
//
// Long sweeps are fault-isolated: a throwing trial function, a NaN/Inf
// metric, a wrong-width row, or an overlong cell can be skipped or retried
// (ExperimentConfig::fault_policy) instead of aborting the sweep, with every
// contained fault recorded as a CellFailure carrying exact reproduction
// coordinates. Sweeps can checkpoint completed networks to disk, resume from
// a checkpoint, honor a cooperative cancellation flag, and stop at a
// wall-clock deadline.
//
// Concurrency contract: each network slot is written by exactly one worker;
// the only cross-thread state (published-slot flags + checkpoint cadence)
// lives behind an annotated util::Mutex in engine.cpp, checked by the Clang
// thread-safety analysis (THREAD_SAFETY_ANALYSIS build / CI job).
#pragma once

#include <atomic>
#include <functional>
#include <string>
#include <vector>

#include "model/network.hpp"
#include "sim/failure.hpp"
#include "util/rng.hpp"
#include "sim/stats.hpp"
#include "sim/thread_pool.hpp"

namespace raysched::sim {

/// What to do when a (network, trial) cell fails (throw / non-finite metric
/// / wrong row width / cell timeout).
enum class FaultPolicy {
  Abort,          ///< rethrow immediately, discarding the sweep (default)
  Skip,           ///< record a CellFailure and continue without the cell
  RetryThenSkip,  ///< retry with re-derived substreams, then skip
};

/// Configuration of a nested Monte-Carlo sweep.
struct ExperimentConfig {
  std::size_t num_networks = 10;   ///< outer dimension (instances)
  std::size_t trials_per_network = 25;  ///< inner dimension (e.g. transmit seeds)
  std::uint64_t master_seed = 1;
  std::size_t num_threads = 1;  ///< threads that claim networks, caller included

  // --- fault isolation ---
  FaultPolicy fault_policy = FaultPolicy::Abort;
  std::size_t max_retries = 2;  ///< extra attempts per cell (RetryThenSkip)
  /// Seconds a single cell may take before it is flagged as a Timeout
  /// failure (cooperative: measured after the cell returns). 0 disables.
  double cell_time_limit = 0.0;

  // --- checkpoint / resume ---
  /// Non-empty: completed networks are snapshotted here (atomic rename)
  /// every `checkpoint_every` networks and once more when the sweep ends.
  std::string checkpoint_path;
  std::size_t checkpoint_every = 8;
  /// Non-empty: load this checkpoint and skip its completed networks. The
  /// checkpoint fingerprint (seed, dims, metric names) must match.
  std::string resume_from;

  // --- cancellation ---
  /// Optional cooperative stop flag, polled between cells. When it becomes
  /// true the sweep stops early and the result is marked interrupted.
  const std::atomic<bool>* cancel = nullptr;
  /// Wall-clock budget in seconds for the whole sweep (0 = unlimited);
  /// polled between cells, marks the result interrupted when exceeded.
  double deadline = 0.0;
};

/// Builds one problem instance from its dedicated stream.
using InstanceFactory = std::function<model::Network(util::RngStream&)>;

/// Evaluates one trial of one instance; returns one value per metric.
/// Metric count must be constant across calls.
using TrialFunction = std::function<std::vector<double>(
    const model::Network&, util::RngStream&)>;

/// Aggregated result: per-metric statistics over all (network, trial) cells,
/// plus per-network means (for between-network variance), plus a full
/// account of contained faults.
struct ExperimentResult {
  std::vector<std::string> metric_names;
  std::vector<Accumulator> per_trial;    ///< pooled over all surviving cells
  std::vector<Accumulator> per_network;  ///< of per-network trial means

  std::vector<CellFailure> failures;  ///< contained faults, (net, trial) order
  std::size_t cells_completed = 0;    ///< cells that contributed a row
  std::size_t cells_skipped = 0;      ///< cells abandoned under Skip/Retry
  std::size_t retries_used = 0;       ///< extra attempts consumed
  std::size_t networks_completed = 0; ///< processed networks (incl. resumed)
  std::size_t networks_resumed = 0;   ///< restored from resume_from
  bool interrupted = false;  ///< cancel flag or deadline stopped the sweep

  [[nodiscard]] std::size_t num_metrics() const { return metric_names.size(); }
};

/// Coordinates of the cell currently being evaluated by the calling thread.
/// Valid only while run_experiment is inside the InstanceFactory
/// (trial_idx == kNoTrial) or the TrialFunction; attempt counts retries.
/// This is the hook the fault-injection harness uses to target exact cells.
struct CellRef {
  std::size_t net_idx = 0;
  std::size_t trial_idx = kNoTrial;
  std::size_t attempt = 0;
  bool active = false;
};

/// The cell the calling thread is evaluating right now (thread-local;
/// `active` is false outside factory/trial invocations).
[[nodiscard]] CellRef current_cell();

/// Runs the sweep. Streams are derived as
///   master.derive(network_index, kInstanceStreamTag) -> instance generation
///   master.derive(network_index, kTrialStreamTag).derive(trial_index) -> trial
/// (retry attempt r > 0 derives once more by kRetryStreamTag + r), so results
/// are independent of scheduling and thread count: per-network partial
/// statistics are always reduced in network-index order.
[[nodiscard]] ExperimentResult run_experiment(
    const ExperimentConfig& config, const std::vector<std::string>& metric_names,
    const InstanceFactory& make_instance, const TrialFunction& run_trial);

}  // namespace raysched::sim
