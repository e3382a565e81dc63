// Tests for the Monte-Carlo experiment engine.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <fstream>
#include <iterator>
#include <sstream>
#include <string>
#include <thread>

#include "fault_injection.hpp"
#include "test_helpers.hpp"

namespace raysched::sim {
namespace {

model::Network tiny_instance(util::RngStream& rng) {
  model::RandomPlaneParams params;
  params.num_links = 5;
  auto links = model::random_plane_links(params, rng);
  return model::Network(std::move(links), model::PowerAssignment::uniform(2.0),
                        2.2, units::Power(4e-7));
}

TEST(Engine, RunsAllCells) {
  ExperimentConfig config;
  config.num_networks = 4;
  config.trials_per_network = 6;
  std::atomic<int> calls{0};
  const auto result = run_experiment(
      config, {"one"}, tiny_instance,
      [&](const model::Network&, util::RngStream&) {
        calls.fetch_add(1);
        return std::vector<double>{1.0};
      });
  EXPECT_EQ(calls.load(), 24);
  EXPECT_EQ(result.per_trial[0].count(), 24u);
  EXPECT_EQ(result.per_network[0].count(), 4u);
  EXPECT_DOUBLE_EQ(result.per_trial[0].mean(), 1.0);
}

TEST(Engine, MetricsAreSeparated) {
  ExperimentConfig config;
  config.num_networks = 2;
  config.trials_per_network = 3;
  const auto result = run_experiment(
      config, {"a", "b"}, tiny_instance,
      [](const model::Network&, util::RngStream&) {
        return std::vector<double>{2.0, 5.0};
      });
  EXPECT_EQ(result.num_metrics(), 2u);
  EXPECT_DOUBLE_EQ(result.per_trial[0].mean(), 2.0);
  EXPECT_DOUBLE_EQ(result.per_trial[1].mean(), 5.0);
}

TEST(Engine, DeterministicAcrossThreadCounts) {
  // The per-cell streams are derived from (network, trial), so thread count
  // must not change any statistic.
  auto trial = [](const model::Network& net, util::RngStream& rng) {
    model::LinkSet active;
    for (model::LinkId i = 0; i < net.size(); ++i) {
      if (rng.bernoulli(0.5)) active.push_back(i);
    }
    return std::vector<double>{
        static_cast<double>(model::count_successes_nonfading(net, active, units::Threshold(2.5)))};
  };
  ExperimentConfig seq;
  seq.num_networks = 6;
  seq.trials_per_network = 10;
  seq.num_threads = 1;
  ExperimentConfig par = seq;
  par.num_threads = 4;
  const auto a = run_experiment(seq, {"s"}, tiny_instance, trial);
  const auto b = run_experiment(par, {"s"}, tiny_instance, trial);
  EXPECT_DOUBLE_EQ(a.per_trial[0].mean(), b.per_trial[0].mean());
  EXPECT_DOUBLE_EQ(a.per_trial[0].variance(), b.per_trial[0].variance());
  EXPECT_DOUBLE_EQ(a.per_network[0].mean(), b.per_network[0].mean());
}

TEST(Engine, DifferentSeedsGiveDifferentInstances) {
  auto trial = [](const model::Network& net, util::RngStream&) {
    return std::vector<double>{net.link(0).receiver.x};
  };
  ExperimentConfig c1;
  c1.num_networks = 3;
  c1.trials_per_network = 1;
  c1.master_seed = 1;
  ExperimentConfig c2 = c1;
  c2.master_seed = 2;
  const auto a = run_experiment(c1, {"x"}, tiny_instance, trial);
  const auto b = run_experiment(c2, {"x"}, tiny_instance, trial);
  EXPECT_NE(a.per_trial[0].mean(), b.per_trial[0].mean());
}

TEST(Engine, PerNetworkAveragesTrialMeans) {
  // Each network contributes the mean of its trials, regardless of trial
  // count weighting.
  int network_counter = 0;
  auto factory = [&](util::RngStream& rng) {
    ++network_counter;
    return tiny_instance(rng);
  };
  int call = 0;
  ExperimentConfig config;
  config.num_networks = 2;
  config.trials_per_network = 2;
  const auto result = run_experiment(
      config, {"v"}, factory, [&](const model::Network&, util::RngStream&) {
        // Network 0 trials: 0, 2 (mean 1); network 1 trials: 10, 30 (mean 20).
        const double values[] = {0.0, 2.0, 10.0, 30.0};
        return std::vector<double>{values[call++]};
      });
  EXPECT_DOUBLE_EQ(result.per_network[0].mean(), 10.5);  // (1 + 20) / 2
  EXPECT_DOUBLE_EQ(result.per_trial[0].mean(), 10.5);    // same here (equal k)
  EXPECT_NEAR(result.per_network[0].variance(), (1.0 - 10.5) * (1.0 - 10.5) +
                                                    (20.0 - 10.5) * (20.0 - 10.5),
              1e-9);
}

TEST(Engine, SkipPolicyWithoutFaultsMatchesAbortPolicy) {
  // On a fault-free sweep the policy must be invisible: identical statistics
  // and empty failure bookkeeping.
  auto trial = [](const model::Network& net, util::RngStream& rng) {
    return std::vector<double>{rng.uniform() * static_cast<double>(net.size())};
  };
  ExperimentConfig abort_cfg;
  abort_cfg.num_networks = 4;
  abort_cfg.trials_per_network = 5;
  ExperimentConfig skip_cfg = abort_cfg;
  skip_cfg.fault_policy = FaultPolicy::Skip;
  ExperimentConfig retry_cfg = abort_cfg;
  retry_cfg.fault_policy = FaultPolicy::RetryThenSkip;
  const auto a = run_experiment(abort_cfg, {"u"}, tiny_instance, trial);
  const auto s = run_experiment(skip_cfg, {"u"}, tiny_instance, trial);
  const auto r = run_experiment(retry_cfg, {"u"}, tiny_instance, trial);
  for (const auto* other : {&s, &r}) {
    EXPECT_EQ(a.per_trial[0].count(), other->per_trial[0].count());
    EXPECT_EQ(a.per_trial[0].mean(), other->per_trial[0].mean());
    EXPECT_EQ(a.per_trial[0].variance(), other->per_trial[0].variance());
    EXPECT_TRUE(other->failures.empty());
    EXPECT_EQ(other->cells_skipped, 0u);
    EXPECT_EQ(other->retries_used, 0u);
    EXPECT_FALSE(other->interrupted);
  }
  EXPECT_EQ(a.cells_completed, 20u);
  EXPECT_EQ(a.networks_completed, 4u);
}

TEST(Engine, CurrentCellReportsCoordinatesDuringEvaluation) {
  ExperimentConfig config;
  config.num_networks = 2;
  config.trials_per_network = 3;
  std::atomic<int> factory_checks{0};
  std::atomic<int> trial_checks{0};
  const auto result = run_experiment(
      config, {"one"},
      [&](util::RngStream& rng) {
        const CellRef cell = current_cell();
        EXPECT_TRUE(cell.active);
        EXPECT_EQ(cell.trial_idx, kNoTrial);
        EXPECT_LT(cell.net_idx, 2u);
        factory_checks.fetch_add(1);
        return tiny_instance(rng);
      },
      [&](const model::Network&, util::RngStream&) {
        const CellRef cell = current_cell();
        EXPECT_TRUE(cell.active);
        EXPECT_LT(cell.trial_idx, 3u);
        EXPECT_EQ(cell.attempt, 0u);
        trial_checks.fetch_add(1);
        return std::vector<double>{1.0};
      });
  EXPECT_EQ(factory_checks.load(), 2);
  EXPECT_EQ(trial_checks.load(), 6);
  EXPECT_EQ(result.cells_completed, 6u);
  // Outside the engine no cell is active.
  EXPECT_FALSE(current_cell().active);
}

TEST(Engine, PeriodicCheckpointIsWrittenAndLoadable) {
  const std::string path = "test_engine_ckpt.txt";
  std::remove(path.c_str());
  ExperimentConfig config;
  config.num_networks = 5;
  config.trials_per_network = 2;
  config.master_seed = 3;
  config.checkpoint_path = path;
  config.checkpoint_every = 2;
  const auto result = run_experiment(
      config, {"v"}, tiny_instance, [](const model::Network&, util::RngStream& rng) {
        return std::vector<double>{rng.uniform()};
      });
  EXPECT_EQ(result.networks_completed, 5u);
  const Checkpoint ckpt = load_checkpoint(path);
  EXPECT_EQ(ckpt.master_seed, 3u);
  EXPECT_EQ(ckpt.networks.size(), 5u);  // final snapshot covers everything
  ASSERT_EQ(ckpt.metric_names.size(), 1u);
  EXPECT_EQ(ckpt.metric_names[0], "v");
  std::remove(path.c_str());
}

TEST(Engine, PreSetCancelFlagStopsImmediately) {
  ExperimentConfig config;
  config.num_networks = 3;
  config.trials_per_network = 3;
  std::atomic<bool> cancel{true};
  config.cancel = &cancel;
  std::atomic<int> calls{0};
  const auto result = run_experiment(
      config, {"v"}, tiny_instance, [&](const model::Network&, util::RngStream&) {
        calls.fetch_add(1);
        return std::vector<double>{0.0};
      });
  EXPECT_TRUE(result.interrupted);
  EXPECT_EQ(result.networks_completed, 0u);
  EXPECT_EQ(calls.load(), 0);
}

/// A trial that consumes its stream, so a scheduling-dependent stream or
/// fold order would show up as changed bits.
std::vector<double> noisy_trial(const model::Network& net,
                                util::RngStream& rng) {
  model::LinkSet active;
  for (model::LinkId i = 0; i < net.size(); ++i) {
    if (rng.bernoulli(0.5)) active.push_back(i);
  }
  return {static_cast<double>(active.size()),
          static_cast<double>(model::count_successes_nonfading(
              net, active, units::Threshold(2.5))) +
              rng.uniform()};
}

/// Every bit a result carries: moments, failure list with coordinates, and
/// the sweep counters.
std::string fingerprint(const ExperimentResult& r) {
  std::ostringstream os;
  os.precision(17);
  for (std::size_t k = 0; k < r.num_metrics(); ++k) {
    for (const Accumulator* acc : {&r.per_trial[k], &r.per_network[k]}) {
      os << acc->count() << ' ' << acc->mean() << ' ' << acc->variance()
         << ' ' << acc->min() << ' ' << acc->max() << '\n';
    }
  }
  for (const CellFailure& f : r.failures) {
    os << describe(f) << " | " << f.seed_coords.master_seed << ' '
       << f.seed_coords.net_idx << ' ' << f.seed_coords.trial_idx << ' '
       << f.seed_coords.attempt << '\n';
  }
  os << r.cells_completed << ' ' << r.cells_skipped << ' ' << r.retries_used
     << ' ' << r.networks_completed << ' ' << r.interrupted << '\n';
  return os.str();
}

std::string file_bytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

TEST(Engine, BitIdenticalAtAnyThreadCountWithFaults) {
  using raysched::testing::FaultAction;
  using raysched::testing::FaultSite;
  FaultSite transient{1, 4, FaultAction::Throw};  // recovers on a retry
  transient.fail_attempts = 1;
  const auto trial = raysched::testing::inject_faults(
      noisy_trial, {transient,
                    {0, 0, FaultAction::Throw},
                    {3, 5, FaultAction::ReturnNan},
                    {6, 2, FaultAction::ReturnInf},
                    {8, 7, FaultAction::Throw}});
  const auto factory = raysched::testing::inject_factory_faults(
      tiny_instance, {{5, kNoTrial, FaultAction::Throw}});
  for (const FaultPolicy policy :
       {FaultPolicy::Skip, FaultPolicy::RetryThenSkip}) {
    ExperimentConfig config;
    config.num_networks = 11;
    config.trials_per_network = 9;
    config.master_seed = 23;
    config.fault_policy = policy;
    config.max_retries = 2;
    config.num_threads = 1;
    const std::string reference =
        fingerprint(run_experiment(config, {"tx", "ok"}, factory, trial));
    EXPECT_NE(reference.find("attempt=0"), std::string::npos);
    for (const std::size_t threads : {2u, 3u, 4u, 8u}) {
      config.num_threads = threads;
      EXPECT_EQ(fingerprint(run_experiment(config, {"tx", "ok"}, factory,
                                           trial)),
                reference)
          << "threads " << threads;
    }
  }
}

TEST(Engine, CheckpointAtFourThreadsMatchesOneThreadBytes) {
  const std::string one = "test_engine_ckpt_t1.txt";
  const std::string four = "test_engine_ckpt_t4.txt";
  ExperimentConfig config;
  config.num_networks = 9;
  config.trials_per_network = 6;
  config.master_seed = 5;
  config.fault_policy = FaultPolicy::Skip;
  config.checkpoint_every = 2;
  const auto trial = raysched::testing::inject_faults(
      noisy_trial, {{2, 1, raysched::testing::FaultAction::Throw}});
  config.checkpoint_path = one;
  config.num_threads = 1;
  (void)run_experiment(config, {"tx", "ok"}, tiny_instance, trial);
  config.checkpoint_path = four;
  config.num_threads = 4;
  (void)run_experiment(config, {"tx", "ok"}, tiny_instance, trial);
  const std::string bytes = file_bytes(one);
  EXPECT_FALSE(bytes.empty());
  EXPECT_EQ(file_bytes(four), bytes);
  std::remove(one.c_str());
  std::remove(four.c_str());
}

TEST(Engine, ConcurrentCallsOnSharedPoolKeepTheirOwnFaults) {
  // Both calls run on default_pool(). The Abort call's fault must surface
  // only in that call, and the other call must return its own statistics.
  ExperimentConfig clean;
  clean.num_networks = 32;
  clean.trials_per_network = 30;
  clean.master_seed = 41;
  clean.num_threads = 1;
  const std::string expected =
      fingerprint(run_experiment(clean, {"tx", "ok"}, tiny_instance,
                                 noisy_trial));
  clean.num_threads = 4;

  ExperimentConfig aborting = clean;
  aborting.master_seed = 42;
  aborting.fault_policy = FaultPolicy::Abort;
  const auto bad_trial = raysched::testing::inject_faults(
      noisy_trial, {{17, 3, raysched::testing::FaultAction::Throw}});

  for (int round = 0; round < 10; ++round) {
    std::string got;
    bool clean_threw = false;
    std::thread other([&] {
      try {
        got = fingerprint(
            run_experiment(clean, {"tx", "ok"}, tiny_instance, noisy_trial));
      } catch (...) {
        clean_threw = true;
      }
    });
    EXPECT_THROW(
        (void)run_experiment(aborting, {"tx", "ok"}, tiny_instance, bad_trial),
        raysched::error);
    other.join();
    EXPECT_FALSE(clean_threw);
    EXPECT_EQ(got, expected);
  }
}

TEST(Engine, TrialThatRunsAnExperimentCompletes) {
  // The inner call runs on a pool worker of the outer call; it finishes
  // because its caller claims work too, even when every worker is busy.
  auto inner_trial = [](const model::Network&, util::RngStream& rng) {
    ExperimentConfig inner;
    inner.num_networks = 3;
    inner.trials_per_network = 4;
    inner.master_seed = rng.next_u64();
    inner.num_threads = 4;
    const auto r = run_experiment(inner, {"tx", "ok"}, tiny_instance,
                                  noisy_trial);
    return std::vector<double>{r.per_trial[1].mean()};
  };
  ExperimentConfig outer;
  outer.num_networks = 6;
  outer.trials_per_network = 3;
  outer.num_threads = 1;
  const std::string reference =
      fingerprint(run_experiment(outer, {"m"}, tiny_instance, inner_trial));
  outer.num_threads = 4;
  EXPECT_EQ(fingerprint(run_experiment(outer, {"m"}, tiny_instance,
                                       inner_trial)),
            reference);
}

TEST(Engine, RepeatedCallsDoNotGrowTheSharedPool) {
  ExperimentConfig config;
  config.num_networks = 8;
  config.trials_per_network = 3;
  config.num_threads = 4;
  (void)run_experiment(config, {"tx", "ok"}, tiny_instance, noisy_trial);
  const std::size_t workers = default_pool().num_threads();
  EXPECT_GE(workers, 3u);
  for (int k = 0; k < 5; ++k) {
    (void)run_experiment(config, {"tx", "ok"}, tiny_instance, noisy_trial);
    EXPECT_EQ(default_pool().num_threads(), workers);
  }
  // One thread runs inline and leaves the pool alone too.
  config.num_threads = 1;
  (void)run_experiment(config, {"tx", "ok"}, tiny_instance, noisy_trial);
  EXPECT_EQ(default_pool().num_threads(), workers);
}

TEST(Engine, ValidatesConfiguration) {
  ExperimentConfig bad;
  bad.num_networks = 0;
  EXPECT_THROW(run_experiment(bad, {"m"}, tiny_instance,
                              [](const model::Network&, util::RngStream&) {
                                return std::vector<double>{0.0};
                              }),
               raysched::error);
  ExperimentConfig ok;
  EXPECT_THROW(run_experiment(ok, {}, tiny_instance,
                              [](const model::Network&, util::RngStream&) {
                                return std::vector<double>{};
                              }),
               raysched::error);
  EXPECT_THROW(run_experiment(ok, {"m"}, tiny_instance,
                              [](const model::Network&, util::RngStream&) {
                                return std::vector<double>{1.0, 2.0};  // wrong width
                              }),
               raysched::error);
}

}  // namespace
}  // namespace raysched::sim
