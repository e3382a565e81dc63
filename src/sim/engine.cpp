#include "sim/engine.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <optional>
#include <sstream>
#include <utility>

#include "model/network.hpp"
#include "sim/checkpoint.hpp"
#include "util/error.hpp"
#include "util/sync.hpp"
#include "util/thread_annotations.hpp"

namespace raysched::sim {

namespace {

thread_local CellRef t_current_cell;

/// RAII guard publishing the cell coordinates the thread is evaluating, for
/// current_cell() (fault injection / diagnostics).
class CellScope {
 public:
  CellScope(std::size_t net_idx, std::size_t trial_idx, std::size_t attempt) {
    t_current_cell = CellRef{net_idx, trial_idx, attempt, true};
  }
  ~CellScope() { t_current_cell = CellRef{}; }
  CellScope(const CellScope&) = delete;
  CellScope& operator=(const CellScope&) = delete;
};

/// Polls the cooperative cancellation flag and the wall-clock deadline.
/// This is a raysched_check RS-D2 whitelisted timing site: the clock feeds
/// only the deadline/timeout *policy* (when to stop), never a result — the
/// sweep's statistics stay bit-identical whatever the clock reads.
class SweepClock {
 public:
  explicit SweepClock(const ExperimentConfig& config)
      : cancel_(config.cancel),
        deadline_(config.deadline),
        start_(std::chrono::steady_clock::now()) {}

  [[nodiscard]] bool stop_requested() const {
    if (cancel_ != nullptr && cancel_->load(std::memory_order_relaxed)) {
      return true;
    }
    return deadline_ > 0.0 && elapsed() > deadline_;
  }

  [[nodiscard]] double elapsed() const {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         start_)
        .count();
  }

 private:
  const std::atomic<bool>* cancel_;
  double deadline_;
  std::chrono::steady_clock::time_point start_;
};

/// Partial results of one network; merged into the ExperimentResult in
/// network-index order so statistics never depend on thread scheduling.
struct NetworkOutcome {
  std::vector<Accumulator> trial_acc;  ///< one per metric
  std::vector<CellFailure> failures;
  std::size_t cells_completed = 0;
  std::size_t cells_skipped = 0;
  std::size_t retries_used = 0;
  bool done = false;  ///< network fully processed (or resumed)
};

/// A contained fault of one attempt, before it is promoted to a CellFailure.
struct AttemptFault {
  FailureKind kind = FailureKind::Exception;
  std::string what;
};

struct RunContext {
  const ExperimentConfig& config;
  const util::RngStream& master;
  const std::vector<std::string>& metric_names;
  const InstanceFactory& make_instance;
  const TrialFunction& run_trial;
  const SweepClock& clock;
  const std::atomic<bool>& stopped;
};

CellFailure make_failure(const RunContext& ctx, std::size_t net_idx,
                         std::size_t trial_idx, std::size_t attempt,
                         const AttemptFault& fault) {
  CellFailure failure;
  failure.net_idx = net_idx;
  failure.trial_idx = trial_idx;
  failure.kind = fault.kind;
  failure.what = fault.what;
  failure.seed_coords = SeedCoords{ctx.config.master_seed, net_idx, trial_idx,
                                   attempt};
  return failure;
}

/// Validates a returned metric row; nullopt means the row is acceptable.
std::optional<AttemptFault> validate_row(const RunContext& ctx,
                                         const std::vector<double>& row) {
  if (row.size() != ctx.metric_names.size()) {
    std::ostringstream os;
    os << "run_experiment: trial returned wrong metric count (got "
       << row.size() << ", expected " << ctx.metric_names.size() << ")";
    return AttemptFault{FailureKind::WrongArity, os.str()};
  }
  for (std::size_t k = 0; k < row.size(); ++k) {
    if (!std::isfinite(row[k])) {
      std::ostringstream os;
      os << "run_experiment: non-finite metric '" << ctx.metric_names[k]
         << "' = " << row[k];
      return AttemptFault{FailureKind::NonfiniteMetric, os.str()};
    }
  }
  return std::nullopt;
}

/// The attempt loop of instances and cells. `attempt_once(rng, fault)`
/// returns the result, or nullopt with `fault` set; a throw is an Exception
/// fault. Retries re-derive `stream` by the retry tag. Under Abort a fault
/// propagates; otherwise, once every attempt failed, the first failure is
/// recorded and the `cells` it costs are counted as skipped. A template,
/// not a std::function: it runs once per cell.
// raysched:hot
template <class Result, class Attempt>
std::optional<Result> run_attempts(const RunContext& ctx,
                                   const util::RngStream& stream,
                                   std::size_t net_idx, std::size_t trial_idx,
                                   std::size_t cells, NetworkOutcome& outcome,
                                   Attempt&& attempt_once) {
  const FaultPolicy policy = ctx.config.fault_policy;
  const std::size_t attempts =
      policy == FaultPolicy::RetryThenSkip ? ctx.config.max_retries + 1 : 1;
  std::optional<CellFailure> first_failure;
  for (std::size_t attempt = 0; attempt < attempts; ++attempt) {
    util::RngStream rng =
        attempt == 0 ? stream : stream.derive(kRetryStreamTag + attempt);
    std::optional<AttemptFault> fault;
    try {
      CellScope scope(net_idx, trial_idx, attempt);
      std::optional<Result> result = attempt_once(rng, fault);
      if (result) return result;
    } catch (const std::exception& e) {
      if (policy == FaultPolicy::Abort) throw;
      fault = AttemptFault{FailureKind::Exception, e.what()};
    } catch (...) {
      if (policy == FaultPolicy::Abort) throw;
      fault = AttemptFault{FailureKind::Exception, "unknown exception"};
    }
    if (policy == FaultPolicy::Abort) throw error(fault->what);
    if (!first_failure) {
      first_failure = make_failure(ctx, net_idx, trial_idx, attempt, *fault);
    }
    if (attempt + 1 < attempts) ++outcome.retries_used;
  }
  outcome.failures.push_back(std::move(*first_failure));
  outcome.cells_skipped += cells;
  return std::nullopt;
}

/// Builds the instance for `net_idx`, honoring the fault policy. Returns
/// nullopt if every attempt failed (a factory CellFailure was recorded).
std::optional<model::Network> build_instance(const RunContext& ctx,
                                             std::size_t net_idx,
                                             NetworkOutcome& outcome) {
  // A failed instance costs all of the network's cells, so the sweep-level
  // bookkeeping still adds up to networks x trials.
  return run_attempts<model::Network>(
      ctx, ctx.master.derive(net_idx, kInstanceStreamTag), net_idx, kNoTrial,
      ctx.config.trials_per_network, outcome,
      [&ctx](util::RngStream& rng, std::optional<AttemptFault>&) {
        return std::optional<model::Network>(ctx.make_instance(rng));
      });
}

/// Evaluates one (network, trial) cell, honoring the fault policy. Returns
/// nullopt when the cell was abandoned (a CellFailure was recorded).
// raysched:hot
std::optional<std::vector<double>> evaluate_cell(const RunContext& ctx,
                                                 const model::Network& net,
                                                 std::size_t net_idx,
                                                 std::size_t trial_idx,
                                                 NetworkOutcome& outcome) {
  const auto attempt_once =
      [&ctx, &net](util::RngStream& rng, std::optional<AttemptFault>& fault)
      -> std::optional<std::vector<double>> {
    const auto cell_start = std::chrono::steady_clock::now();
    // The trial function owns its metric row; one short vector per cell is
    // the handoff contract, not a hot-loop leak.
    std::vector<double> row = ctx.run_trial(net, rng);  // raysched-check: allow(RS-M4): per-cell metric row, trial owns allocation
    fault = validate_row(ctx, row);
    if (!fault && ctx.config.cell_time_limit > 0.0) {
      const double took =
          std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                        cell_start)
              .count();
      if (took > ctx.config.cell_time_limit) {
        std::ostringstream os;
        os << "run_experiment: cell took " << took << "s (limit "
           << ctx.config.cell_time_limit << "s)";
        fault = AttemptFault{FailureKind::Timeout, os.str()};
      }
    }
    if (fault) return std::nullopt;
    return row;
  };
  return run_attempts<std::vector<double>>(
      ctx, ctx.master.derive(net_idx, kTrialStreamTag).derive(trial_idx),
      net_idx, trial_idx, 1, outcome, attempt_once);
}

/// Processes one network end to end. outcome.done stays false if the sweep
/// was cancelled mid-network (partial cells are then discarded — the
/// checkpoint granularity is whole networks).
NetworkOutcome run_one_network(const RunContext& ctx, std::size_t net_idx) {
  NetworkOutcome outcome;
  outcome.trial_acc.resize(ctx.metric_names.size());

  const std::optional<model::Network> net =
      build_instance(ctx, net_idx, outcome);
  if (!net) {
    outcome.done = true;
    return outcome;
  }

  for (std::size_t t = 0; t < ctx.config.trials_per_network; ++t) {
    if (ctx.stopped.load(std::memory_order_relaxed) ||
        ctx.clock.stop_requested()) {
      return outcome;  // abandoned: done stays false
    }
    const std::optional<std::vector<double>> row =
        evaluate_cell(ctx, *net, net_idx, t, outcome);
    if (!row) continue;
    for (std::size_t k = 0; k < row->size(); ++k) {
      outcome.trial_acc[k].add((*row)[k]);
    }
    ++outcome.cells_completed;
  }
  outcome.done = true;
  return outcome;
}

/// Cross-thread sweep bookkeeping: which network slots are published and
/// when to checkpoint. Each NetworkOutcome slot is written by exactly one
/// thread; publish() is the only cross-thread handoff, so `completed_` and
/// the checkpoint cadence are the only mutex-guarded state (and the
/// thread-safety analysis proves nothing else is touched without the lock).
class SweepState {
 public:
  SweepState(const ExperimentConfig& config,
             const std::vector<std::string>& metric_names,
             const std::vector<NetworkOutcome>& outcomes)
      : config_(config),
        metric_names_(metric_names),
        outcomes_(outcomes),
        completed_(config.num_networks, 0) {}

  /// Marks a slot restored from resume_from (called before workers start,
  /// but locked anyway so the analysis sees one consistent discipline).
  void mark_resumed(std::size_t idx) RAYSCHED_EXCLUDES(mutex_) {
    util::MutexLock lock(mutex_);
    completed_[idx] = 1;
  }

  /// Publishes a finished network slot and checkpoints every
  /// `checkpoint_every` publications. The slot's NetworkOutcome must be
  /// fully written by the calling thread before publish().
  void publish(std::size_t idx) RAYSCHED_EXCLUDES(mutex_) {
    util::MutexLock lock(mutex_);
    completed_[idx] = 1;
    if (config_.checkpoint_path.empty()) return;
    if (++since_checkpoint_ >=
        std::max<std::size_t>(1, config_.checkpoint_every)) {
      since_checkpoint_ = 0;
      write_snapshot();
    }
  }

  /// Final end-of-sweep snapshot (workers have joined by now).
  void final_snapshot() RAYSCHED_EXCLUDES(mutex_) {
    util::MutexLock lock(mutex_);
    write_snapshot();
  }

 private:
  void write_snapshot() RAYSCHED_REQUIRES(mutex_) {
    Checkpoint ckpt;
    ckpt.master_seed = config_.master_seed;
    ckpt.num_networks = config_.num_networks;
    ckpt.trials_per_network = config_.trials_per_network;
    ckpt.metric_names = metric_names_;
    for (std::size_t i = 0; i < outcomes_.size(); ++i) {
      if (!completed_[i]) continue;
      NetworkCheckpoint net;
      net.net_idx = i;
      net.trial_acc = outcomes_[i].trial_acc;
      net.cells_completed = outcomes_[i].cells_completed;
      net.cells_skipped = outcomes_[i].cells_skipped;
      net.retries_used = outcomes_[i].retries_used;
      net.failures = outcomes_[i].failures;
      ckpt.networks.push_back(std::move(net));
    }
    save_checkpoint_atomic(config_.checkpoint_path, ckpt);
  }

  const ExperimentConfig& config_;
  const std::vector<std::string>& metric_names_;
  const std::vector<NetworkOutcome>& outcomes_;
  util::Mutex mutex_;
  std::vector<char> completed_ RAYSCHED_GUARDED_BY(mutex_);
  std::size_t since_checkpoint_ RAYSCHED_GUARDED_BY(mutex_) = 0;
};

}  // namespace

CellRef current_cell() { return t_current_cell; }

ExperimentResult run_experiment(const ExperimentConfig& config,
                                const std::vector<std::string>& metric_names,
                                const InstanceFactory& make_instance,
                                const TrialFunction& run_trial) {
  require(config.num_networks > 0, "run_experiment: num_networks must be > 0");
  require(config.trials_per_network > 0,
          "run_experiment: trials_per_network must be > 0");
  require(!metric_names.empty(), "run_experiment: need at least one metric");
  require(static_cast<bool>(make_instance) && static_cast<bool>(run_trial),
          "run_experiment: factory and trial function must be non-empty");
  if (!config.checkpoint_path.empty() || !config.resume_from.empty()) {
    for (const std::string& name : metric_names) {
      require(!name.empty(),
              "run_experiment: checkpointing needs non-empty metric names");
    }
  }

  const std::size_t m = metric_names.size();
  ExperimentResult result;
  result.metric_names = metric_names;
  result.per_trial.resize(m);
  result.per_network.resize(m);

  const util::RngStream master(config.master_seed);

  // One slot per network; each slot is written by exactly one thread and
  // only read by others (for checkpointing) after SweepState::publish
  // released the flag under its mutex.
  std::vector<NetworkOutcome> outcomes(config.num_networks);
  SweepState state(config, metric_names, outcomes);

  if (!config.resume_from.empty()) {
    const Checkpoint ckpt = load_checkpoint(config.resume_from);
    require(ckpt.master_seed == config.master_seed &&
                ckpt.num_networks == config.num_networks &&
                ckpt.trials_per_network == config.trials_per_network &&
                ckpt.metric_names == metric_names,
            "run_experiment: resume_from checkpoint does not match this "
            "experiment (seed, dimensions, or metric names differ)");
    for (const NetworkCheckpoint& net : ckpt.networks) {
      NetworkOutcome& out = outcomes[net.net_idx];
      out.trial_acc = net.trial_acc;
      out.failures = net.failures;
      out.cells_completed = net.cells_completed;
      out.cells_skipped = net.cells_skipped;
      out.retries_used = net.retries_used;
      out.done = true;
      state.mark_resumed(net.net_idx);
      ++result.networks_resumed;
    }
  }

  const SweepClock clock(config);
  std::atomic<bool> stopped{false};
  const RunContext ctx{config,    master, metric_names, make_instance,
                       run_trial, clock,  stopped};

  // Claimers take one network at a time, so at most num_threads instances
  // are alive at once and a slow network never holds up a queue behind it.
  auto process_range = [&](std::size_t begin, std::size_t end) {
    for (std::size_t idx = begin; idx < end; ++idx) {
      if (outcomes[idx].done) continue;  // resumed before threads started
      if (stopped.load(std::memory_order_relaxed) || clock.stop_requested()) {
        stopped.store(true, std::memory_order_relaxed);
        return;
      }
      NetworkOutcome out = run_one_network(ctx, idx);
      if (!out.done) {
        stopped.store(true, std::memory_order_relaxed);
        return;
      }
      outcomes[idx] = std::move(out);
      state.publish(idx);
    }
  };

  if (config.num_threads <= 1) {
    process_range(0, config.num_networks);
  } else {
    // The calling thread claims too, so num_threads - 1 workers suffice.
    ThreadPool& pool = default_pool();
    pool.grow(config.num_threads - 1);
    parallel_for(pool, config.num_networks, process_range, /*min_chunk=*/1,
                 /*max_claimers=*/config.num_threads);
  }

  result.interrupted = stopped.load(std::memory_order_relaxed);

  // Deterministic reduction: always merge in network-index order, so the
  // pooled statistics are bitwise-identical at any thread count and across
  // checkpoint/resume boundaries.
  for (std::size_t idx = 0; idx < outcomes.size(); ++idx) {
    const NetworkOutcome& out = outcomes[idx];
    if (!out.done) continue;
    ++result.networks_completed;
    result.cells_completed += out.cells_completed;
    result.cells_skipped += out.cells_skipped;
    result.retries_used += out.retries_used;
    for (const CellFailure& f : out.failures) result.failures.push_back(f);
    for (std::size_t k = 0; k < m; ++k) {
      result.per_trial[k].merge(out.trial_acc[k]);
    }
    // Guard each metric's accumulator separately: a network whose surviving
    // trials were all quarantined contributes nothing instead of tripping
    // Accumulator::mean's no-samples contract.
    for (std::size_t k = 0; k < m; ++k) {
      if (out.trial_acc[k].count() > 0) {
        result.per_network[k].add(out.trial_acc[k].mean());
      }
    }
  }

  if (!config.checkpoint_path.empty()) {
    state.final_snapshot();
  }
  return result;
}

}  // namespace raysched::sim
