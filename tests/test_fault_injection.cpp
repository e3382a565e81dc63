// Fault-containment tests: injected exceptions / NaNs / arity bugs /
// stalls at exact cell coordinates, under each fault policy, plus
// checkpoint/resume and cancellation semantics.
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>

#include "fault_injection.hpp"
#include "test_helpers.hpp"

namespace raysched::sim {
namespace {

using raysched::testing::FaultAction;
using raysched::testing::FaultSite;
using raysched::testing::inject_factory_faults;
using raysched::testing::inject_faults;
using raysched::testing::parse_fault_sites;

model::Network tiny_instance(util::RngStream& rng) {
  model::RandomPlaneParams params;
  params.num_links = 5;
  auto links = model::random_plane_links(params, rng);
  return model::Network(std::move(links), model::PowerAssignment::uniform(2.0),
                        2.2, units::Power(4e-7));
}

/// A deterministic trial that actually consumes its stream, so stream
/// reuse/derivation bugs would show up as changed statistics.
std::vector<double> noisy_trial(const model::Network& net, util::RngStream& rng) {
  model::LinkSet active;
  for (model::LinkId i = 0; i < net.size(); ++i) {
    if (rng.bernoulli(0.5)) active.push_back(i);
  }
  return {static_cast<double>(
      model::count_successes_nonfading(net, active, units::Threshold(2.5)))};
}

ExperimentConfig base_config() {
  ExperimentConfig config;
  config.num_networks = 5;
  config.trials_per_network = 8;
  config.master_seed = 17;
  return config;
}

void expect_identical_stats(const ExperimentResult& a,
                            const ExperimentResult& b) {
  ASSERT_EQ(a.num_metrics(), b.num_metrics());
  for (std::size_t k = 0; k < a.num_metrics(); ++k) {
    EXPECT_EQ(a.per_trial[k].count(), b.per_trial[k].count());
    // Bitwise equality, not EXPECT_DOUBLE_EQ: determinism is exact.
    EXPECT_EQ(a.per_trial[k].mean(), b.per_trial[k].mean());
    EXPECT_EQ(a.per_trial[k].variance(), b.per_trial[k].variance());
    EXPECT_EQ(a.per_trial[k].min(), b.per_trial[k].min());
    EXPECT_EQ(a.per_trial[k].max(), b.per_trial[k].max());
    EXPECT_EQ(a.per_network[k].count(), b.per_network[k].count());
    EXPECT_EQ(a.per_network[k].mean(), b.per_network[k].mean());
    EXPECT_EQ(a.per_network[k].variance(), b.per_network[k].variance());
  }
}

TEST(FaultInjection, AbortPolicyRethrowsInjectedException) {
  auto config = base_config();  // default policy: Abort
  const auto trial = inject_faults(
      noisy_trial, {{2, 3, FaultAction::Throw}});
  EXPECT_THROW(run_experiment(config, {"s"}, tiny_instance, trial),
               raysched::error);
}

TEST(FaultInjection, AbortPolicyThrowsOnNan) {
  auto config = base_config();
  const auto trial = inject_faults(
      noisy_trial, {{1, 0, FaultAction::ReturnNan}});
  EXPECT_THROW(run_experiment(config, {"s"}, tiny_instance, trial),
               raysched::error);
}

TEST(FaultInjection, SkipPolicyContainsThrowWithExactCoordinates) {
  auto config = base_config();
  config.fault_policy = FaultPolicy::Skip;
  const auto trial = inject_faults(
      noisy_trial, {{2, 3, FaultAction::Throw}, {4, 0, FaultAction::Throw}});
  const auto result = run_experiment(config, {"s"}, tiny_instance, trial);

  EXPECT_EQ(result.networks_completed, 5u);
  EXPECT_EQ(result.cells_completed, 38u);  // 5*8 - 2 injected
  EXPECT_EQ(result.cells_skipped, 2u);
  ASSERT_EQ(result.failures.size(), 2u);
  EXPECT_EQ(result.failures[0].net_idx, 2u);
  EXPECT_EQ(result.failures[0].trial_idx, 3u);
  EXPECT_EQ(result.failures[0].kind, FailureKind::Exception);
  EXPECT_EQ(result.failures[0].seed_coords.master_seed, 17u);
  EXPECT_EQ(result.failures[0].seed_coords.attempt, 0u);
  EXPECT_EQ(result.failures[1].net_idx, 4u);
  EXPECT_EQ(result.failures[1].trial_idx, 0u);
  EXPECT_TRUE(std::isfinite(result.per_trial[0].mean()));
  EXPECT_TRUE(std::isfinite(result.per_trial[0].variance()));
  EXPECT_EQ(result.per_trial[0].count(), 38u);
}

TEST(FaultInjection, NanAndInfAreQuarantinedBeforeAccumulation) {
  auto config = base_config();
  config.fault_policy = FaultPolicy::Skip;
  const auto trial = inject_faults(noisy_trial,
                                   {{0, 1, FaultAction::ReturnNan},
                                    {3, 7, FaultAction::ReturnInf}});
  const auto result = run_experiment(config, {"s"}, tiny_instance, trial);
  EXPECT_EQ(result.cells_skipped, 2u);
  ASSERT_EQ(result.failures.size(), 2u);
  EXPECT_EQ(result.failures[0].kind, FailureKind::NonfiniteMetric);
  EXPECT_EQ(result.failures[1].kind, FailureKind::NonfiniteMetric);
  // The poisoned rows never touched the accumulators.
  EXPECT_TRUE(std::isfinite(result.per_trial[0].mean()));
  EXPECT_TRUE(std::isfinite(result.per_trial[0].max()));
  EXPECT_TRUE(std::isfinite(result.per_network[0].mean()));
}

TEST(FaultInjection, FullyQuarantinedNetworkIsDroppedNotFatal) {
  // Every trial of network 1 is quarantined, so its trial accumulator ends
  // the network with zero samples. The reducer must drop that network from
  // the per-network statistics instead of calling mean() on an empty
  // accumulator (which previously aborted the whole sweep).
  auto config = base_config();
  config.num_networks = 3;
  config.trials_per_network = 4;
  config.fault_policy = FaultPolicy::Skip;
  std::vector<FaultSite> sites;
  for (std::size_t t = 0; t < 4; ++t) {
    sites.push_back({1, t, FaultAction::ReturnNan});
  }
  const auto trial = inject_faults(noisy_trial, sites);
  const auto result = run_experiment(config, {"s"}, tiny_instance, trial);

  EXPECT_EQ(result.cells_skipped, 4u);
  EXPECT_EQ(result.cells_completed, 8u);
  EXPECT_EQ(result.per_trial[0].count(), 8u);
  // Only the two surviving networks contribute per-network means.
  EXPECT_EQ(result.per_network[0].count(), 2u);
  EXPECT_TRUE(std::isfinite(result.per_network[0].mean()));
}

TEST(FaultInjection, WrongArityIsContained) {
  auto config = base_config();
  config.fault_policy = FaultPolicy::Skip;
  const auto trial =
      inject_faults(noisy_trial, {{1, 2, FaultAction::WrongArity}});
  const auto result = run_experiment(config, {"s"}, tiny_instance, trial);
  ASSERT_EQ(result.failures.size(), 1u);
  EXPECT_EQ(result.failures[0].kind, FailureKind::WrongArity);
  EXPECT_EQ(result.cells_completed, 39u);
}

TEST(FaultInjection, TimeoutKindFlagsSlowCells) {
  auto config = base_config();
  config.num_networks = 2;
  config.trials_per_network = 3;
  config.fault_policy = FaultPolicy::Skip;
  config.cell_time_limit = 1e-3;
  FaultSite slow;
  slow.net_idx = 1;
  slow.trial_idx = 1;
  slow.action = FaultAction::Delay;
  slow.delay_seconds = 0.05;
  const auto trial = inject_faults(noisy_trial, {slow});
  const auto result = run_experiment(config, {"s"}, tiny_instance, trial);
  ASSERT_EQ(result.failures.size(), 1u);
  EXPECT_EQ(result.failures[0].kind, FailureKind::Timeout);
  EXPECT_EQ(result.failures[0].net_idx, 1u);
  EXPECT_EQ(result.failures[0].trial_idx, 1u);
  EXPECT_EQ(result.cells_completed, 5u);
}

TEST(FaultInjection, ThrowingFactorySkipsWholeNetwork) {
  auto config = base_config();
  config.fault_policy = FaultPolicy::Skip;
  const auto factory = inject_factory_faults(
      tiny_instance, {{3, kNoTrial, FaultAction::Throw}});
  const auto result = run_experiment(config, {"s"}, factory, noisy_trial);
  EXPECT_EQ(result.networks_completed, 5u);
  EXPECT_EQ(result.cells_completed, 32u);  // 4 networks ran
  EXPECT_EQ(result.cells_skipped, 8u);     // net 3's cells never ran
  ASSERT_EQ(result.failures.size(), 1u);
  EXPECT_EQ(result.failures[0].net_idx, 3u);
  EXPECT_EQ(result.failures[0].trial_idx, kNoTrial);
  // Only 4 networks contribute per-network means.
  EXPECT_EQ(result.per_network[0].count(), 4u);
}

TEST(FaultInjection, ThrowingFactoryAbortsUnderDefaultPolicy) {
  auto config = base_config();
  const auto factory = inject_factory_faults(
      tiny_instance, {{3, kNoTrial, FaultAction::Throw}});
  EXPECT_THROW(run_experiment(config, {"s"}, factory, noisy_trial),
               raysched::error);
}

TEST(FaultInjection, RetryThenSkipRecoversTransientFaults) {
  auto config = base_config();
  config.fault_policy = FaultPolicy::RetryThenSkip;
  config.max_retries = 2;
  // Fails the original attempt and the first retry; succeeds on the second.
  FaultSite transient;
  transient.net_idx = 2;
  transient.trial_idx = 5;
  transient.action = FaultAction::Throw;
  transient.fail_attempts = 2;
  const auto trial = inject_faults(noisy_trial, {transient});
  const auto result = run_experiment(config, {"s"}, tiny_instance, trial);
  EXPECT_EQ(result.cells_completed, 40u);  // nothing skipped
  EXPECT_EQ(result.cells_skipped, 0u);
  EXPECT_TRUE(result.failures.empty());
  EXPECT_EQ(result.retries_used, 2u);
}

TEST(FaultInjection, RetryExhaustionFallsBackToSkip) {
  auto config = base_config();
  config.fault_policy = FaultPolicy::RetryThenSkip;
  config.max_retries = 1;
  FaultSite persistent;
  persistent.net_idx = 0;
  persistent.trial_idx = 0;
  persistent.action = FaultAction::Throw;  // fail_attempts: all
  const auto trial = inject_faults(noisy_trial, {persistent});
  const auto result = run_experiment(config, {"s"}, tiny_instance, trial);
  EXPECT_EQ(result.cells_skipped, 1u);
  EXPECT_EQ(result.retries_used, 1u);
  ASSERT_EQ(result.failures.size(), 1u);
  // seed_coords point at the first failing attempt.
  EXPECT_EQ(result.failures[0].seed_coords.attempt, 0u);
}

TEST(FaultInjection, RetryOutcomeIsIdenticalAcrossThreadCounts) {
  auto make_config = [](std::size_t threads) {
    auto config = base_config();
    config.num_networks = 6;
    config.fault_policy = FaultPolicy::RetryThenSkip;
    config.max_retries = 1;
    config.num_threads = threads;
    return config;
  };
  FaultSite transient;  // recovers on the retry: retried cell contributes
  transient.net_idx = 1;
  transient.trial_idx = 4;
  transient.action = FaultAction::Throw;
  transient.fail_attempts = 1;
  FaultSite persistent;  // never recovers: cell skipped
  persistent.net_idx = 4;
  persistent.trial_idx = 2;
  persistent.action = FaultAction::Throw;
  const auto trial = inject_faults(noisy_trial, {transient, persistent});
  const auto seq = run_experiment(make_config(1), {"s"}, tiny_instance, trial);
  const auto par = run_experiment(make_config(4), {"s"}, tiny_instance, trial);
  expect_identical_stats(seq, par);
  EXPECT_EQ(seq.retries_used, par.retries_used);
  EXPECT_EQ(seq.cells_skipped, par.cells_skipped);
  ASSERT_EQ(seq.failures.size(), par.failures.size());
  ASSERT_EQ(seq.failures.size(), 1u);
  EXPECT_EQ(seq.failures[0].net_idx, par.failures[0].net_idx);
  EXPECT_EQ(seq.failures[0].trial_idx, par.failures[0].trial_idx);
}

TEST(FaultInjection, SkipStatisticsIdenticalAcrossThreadCounts) {
  auto make_config = [](std::size_t threads) {
    auto config = base_config();
    config.num_networks = 8;
    config.fault_policy = FaultPolicy::Skip;
    config.num_threads = threads;
    return config;
  };
  const auto trial = inject_faults(noisy_trial,
                                   {{0, 0, FaultAction::Throw},
                                    {3, 5, FaultAction::ReturnNan},
                                    {7, 7, FaultAction::Throw}});
  const auto seq = run_experiment(make_config(1), {"s"}, tiny_instance, trial);
  const auto par = run_experiment(make_config(4), {"s"}, tiny_instance, trial);
  expect_identical_stats(seq, par);
  ASSERT_EQ(seq.failures.size(), 3u);
  ASSERT_EQ(par.failures.size(), 3u);
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(seq.failures[i].net_idx, par.failures[i].net_idx);
    EXPECT_EQ(seq.failures[i].trial_idx, par.failures[i].trial_idx);
    EXPECT_EQ(seq.failures[i].kind, par.failures[i].kind);
  }
}

TEST(FaultInjection, RederiveStreamReproducesFailingTrialStream) {
  // The stream re-derived from recorded seed coordinates must equal the
  // stream the engine handed to the failing attempt. We prove it by
  // re-running the trial body with the re-derived stream and checking the
  // value equals what a fault-free sweep computed for that cell.
  auto config = base_config();
  config.fault_policy = FaultPolicy::Skip;
  const auto trial = inject_faults(noisy_trial, {{2, 3, FaultAction::Throw}});
  const auto result = run_experiment(config, {"s"}, tiny_instance, trial);
  ASSERT_EQ(result.failures.size(), 1u);

  util::RngStream replay = rederive_stream(result.failures[0].seed_coords);
  util::RngStream instance_rng =
      util::RngStream(config.master_seed).derive(2, kInstanceStreamTag);
  const model::Network net = tiny_instance(instance_rng);
  const double replayed = noisy_trial(net, replay)[0];

  // Reference: the same cell in an injection-free sweep.
  const auto clean =
      run_experiment(config, {"s"}, tiny_instance,
                     [&](const model::Network& n, util::RngStream& rng) {
                       const CellRef cell = current_cell();
                       auto row = noisy_trial(n, rng);
                       if (cell.net_idx == 2 && cell.trial_idx == 3) {
                         EXPECT_EQ(row[0], replayed);
                       }
                       return row;
                     });
  (void)clean;
}

TEST(FaultInjection, CheckpointResumeMatchesUninterruptedRunBitwise) {
  const std::string path = "test_fault_ckpt.txt";
  std::remove(path.c_str());

  auto config = base_config();
  config.num_networks = 6;
  config.fault_policy = FaultPolicy::Skip;
  const auto trial = inject_faults(noisy_trial, {{1, 2, FaultAction::Throw}});

  // Uninterrupted reference run.
  const auto full = run_experiment(config, {"s"}, tiny_instance, trial);

  // Interrupted run: a cooperative cancel fires once network 3 starts.
  std::atomic<bool> cancel{false};
  auto cancelling_trial = [&](const model::Network& net, util::RngStream& rng) {
    if (current_cell().net_idx >= 3) cancel.store(true);
    return inject_faults(noisy_trial, {{1, 2, FaultAction::Throw}})(net, rng);
  };
  auto interrupted_config = config;
  interrupted_config.checkpoint_path = path;
  interrupted_config.checkpoint_every = 1;
  interrupted_config.cancel = &cancel;
  const auto partial = run_experiment(interrupted_config, {"s"}, tiny_instance,
                                      cancelling_trial);
  EXPECT_TRUE(partial.interrupted);
  EXPECT_LT(partial.networks_completed, 6u);
  EXPECT_GE(partial.networks_completed, 3u);

  // Resume and finish (different thread count, no checkpointing needed).
  auto resume_config = config;
  resume_config.resume_from = path;
  resume_config.num_threads = 3;
  const auto resumed =
      run_experiment(resume_config, {"s"}, tiny_instance, trial);
  EXPECT_FALSE(resumed.interrupted);
  EXPECT_EQ(resumed.networks_completed, 6u);
  EXPECT_EQ(resumed.networks_resumed, partial.networks_completed);
  expect_identical_stats(full, resumed);
  EXPECT_EQ(full.cells_completed, resumed.cells_completed);
  EXPECT_EQ(full.cells_skipped, resumed.cells_skipped);
  ASSERT_EQ(full.failures.size(), resumed.failures.size());
  for (std::size_t i = 0; i < full.failures.size(); ++i) {
    EXPECT_EQ(full.failures[i].net_idx, resumed.failures[i].net_idx);
    EXPECT_EQ(full.failures[i].trial_idx, resumed.failures[i].trial_idx);
    EXPECT_EQ(full.failures[i].kind, resumed.failures[i].kind);
  }
  std::remove(path.c_str());
}

TEST(FaultInjection, ResumeRejectsMismatchedFingerprint) {
  const std::string path = "test_fault_ckpt_mismatch.txt";
  std::remove(path.c_str());
  auto config = base_config();
  config.num_networks = 3;
  config.checkpoint_path = path;
  (void)run_experiment(config, {"s"}, tiny_instance, noisy_trial);

  auto other = config;
  other.checkpoint_path.clear();
  other.resume_from = path;
  other.master_seed = 999;  // fingerprint mismatch
  EXPECT_THROW(run_experiment(other, {"s"}, tiny_instance, noisy_trial),
               raysched::error);
  std::remove(path.c_str());
}

TEST(FaultInjection, DeadlineInterruptsSweep) {
  auto config = base_config();
  config.num_networks = 4;
  config.trials_per_network = 4;
  config.deadline = 1e-6;  // expires immediately
  FaultSite slow;
  slow.net_idx = 0;
  slow.trial_idx = 0;
  slow.action = FaultAction::Delay;
  slow.delay_seconds = 0.01;
  const auto trial = inject_faults(noisy_trial, {slow});
  const auto result = run_experiment(config, {"s"}, tiny_instance, trial);
  EXPECT_TRUE(result.interrupted);
  EXPECT_LT(result.networks_completed, 4u);
}

TEST(FaultInjection, FailureReportAndDescribe) {
  auto config = base_config();
  config.fault_policy = FaultPolicy::Skip;
  const auto trial = inject_faults(noisy_trial, {{2, 3, FaultAction::Throw}});
  const auto result = run_experiment(config, {"s"}, tiny_instance, trial);
  ASSERT_EQ(result.failures.size(), 1u);

  const std::string line = describe(result.failures[0]);
  EXPECT_NE(line.find("exception"), std::string::npos);
  EXPECT_NE(line.find("net=2"), std::string::npos);
  EXPECT_NE(line.find("trial=3"), std::string::npos);

  util::Table table = failure_report(result.failures);
  EXPECT_EQ(table.num_rows(), 1u);
  std::ostringstream os;
  table.print_text(os);
  EXPECT_NE(os.str().find("exception"), std::string::npos);
}

TEST(FaultInjection, ParseFaultSites) {
  const auto sites = parse_fault_sites("1:2,4:f", FaultAction::ReturnNan);
  ASSERT_EQ(sites.size(), 2u);
  EXPECT_EQ(sites[0].net_idx, 1u);
  EXPECT_EQ(sites[0].trial_idx, 2u);
  EXPECT_EQ(sites[1].net_idx, 4u);
  EXPECT_EQ(sites[1].trial_idx, kNoTrial);
  EXPECT_TRUE(parse_fault_sites("", FaultAction::Throw).empty());
  EXPECT_THROW(parse_fault_sites("banana", FaultAction::Throw),
               raysched::error);
  EXPECT_THROW(parse_fault_sites("1:", FaultAction::Throw), raysched::error);
}

TEST(Checkpoint, FileRoundTripPreservesEverything) {
  Checkpoint ckpt;
  ckpt.master_seed = 42;
  ckpt.num_networks = 7;
  ckpt.trials_per_network = 3;
  ckpt.metric_names = {"alpha metric", "beta"};
  NetworkCheckpoint net;
  net.net_idx = 4;
  Accumulator acc;
  acc.add(1.5);
  acc.add(-2.25);
  acc.add(0.125);
  net.trial_acc = {acc, Accumulator{}};
  net.cells_completed = 3;
  net.cells_skipped = 1;
  net.retries_used = 2;
  CellFailure f;
  f.net_idx = 4;
  f.trial_idx = 1;
  f.kind = FailureKind::NonfiniteMetric;
  f.what = "metric went NaN\nwith a newline";
  f.seed_coords = {42, 4, 1, 1};
  net.failures = {f};
  ckpt.networks = {net};

  std::stringstream ss;
  write_checkpoint(ss, ckpt);
  const Checkpoint loaded = read_checkpoint(ss);

  EXPECT_EQ(loaded.master_seed, 42u);
  EXPECT_EQ(loaded.num_networks, 7u);
  EXPECT_EQ(loaded.trials_per_network, 3u);
  EXPECT_EQ(loaded.metric_names, ckpt.metric_names);
  ASSERT_EQ(loaded.networks.size(), 1u);
  const NetworkCheckpoint& lnet = loaded.networks[0];
  EXPECT_EQ(lnet.net_idx, 4u);
  EXPECT_EQ(lnet.cells_completed, 3u);
  EXPECT_EQ(lnet.cells_skipped, 1u);
  EXPECT_EQ(lnet.retries_used, 2u);
  ASSERT_EQ(lnet.trial_acc.size(), 2u);
  EXPECT_EQ(lnet.trial_acc[0].count(), 3u);
  EXPECT_EQ(lnet.trial_acc[0].mean(), acc.mean());  // bitwise
  EXPECT_EQ(lnet.trial_acc[0].m2(), acc.m2());
  EXPECT_EQ(lnet.trial_acc[0].min(), acc.min());
  EXPECT_EQ(lnet.trial_acc[0].max(), acc.max());
  EXPECT_EQ(lnet.trial_acc[1].count(), 0u);
  ASSERT_EQ(lnet.failures.size(), 1u);
  EXPECT_EQ(lnet.failures[0].trial_idx, 1u);
  EXPECT_EQ(lnet.failures[0].kind, FailureKind::NonfiniteMetric);
  EXPECT_EQ(lnet.failures[0].seed_coords.attempt, 1u);
  EXPECT_EQ(lnet.failures[0].seed_coords.master_seed, 42u);
  // Newlines in messages are flattened, content preserved.
  EXPECT_NE(lnet.failures[0].what.find("metric went NaN"), std::string::npos);
}

TEST(Checkpoint, RejectsMalformedInput) {
  {
    std::stringstream ss("garbage");
    EXPECT_THROW(read_checkpoint(ss), raysched::error);
  }
  {
    std::stringstream ss("raysched-checkpoint 99\n");
    EXPECT_THROW(read_checkpoint(ss), raysched::error);
  }
  {
    // Truncated: no 'end'.
    std::stringstream ss(
        "raysched-checkpoint 1\nseed 1\ndims 2 2\nmetrics 1\nmetric m\n");
    EXPECT_THROW(read_checkpoint(ss), raysched::error);
  }
  {
    // Network index out of range.
    std::stringstream ss(
        "raysched-checkpoint 1\nseed 1\ndims 2 2\nmetrics 1\nmetric m\n"
        "network 9 cells 0 skipped 0 retries 0 failures 0\n"
        "acc 0 0 0 0 0 0\nend\n");
    EXPECT_THROW(read_checkpoint(ss), raysched::error);
  }
  {
    // Signed values in unsigned fields are malformed, not huge counts.
    std::stringstream ss(
        "raysched-checkpoint 1\nseed -5\ndims 2 2\nmetrics 1\nmetric m\n"
        "end\n");
    EXPECT_THROW(read_checkpoint(ss), raysched::error);
  }
  {
    std::stringstream ss(
        "raysched-checkpoint 1\nseed 1\ndims 2 2\nmetrics 1\nmetric m\n"
        "network 0 cells -1 skipped 0 retries 0 failures 0\n"
        "acc 0 0 0 0 0 0\nend\n");
    EXPECT_THROW(read_checkpoint(ss), raysched::error);
  }
  EXPECT_THROW(load_checkpoint("does_not_exist.ckpt"), raysched::error);
}

TEST(Checkpoint, AtomicSaveReplacesExistingFile) {
  const std::string path = "test_ckpt_atomic.txt";
  Checkpoint ckpt;
  ckpt.master_seed = 1;
  ckpt.num_networks = 1;
  ckpt.trials_per_network = 1;
  ckpt.metric_names = {"m"};
  save_checkpoint_atomic(path, ckpt);
  ckpt.master_seed = 2;
  save_checkpoint_atomic(path, ckpt);
  const Checkpoint loaded = load_checkpoint(path);
  EXPECT_EQ(loaded.master_seed, 2u);
  // No stale temp file left behind.
  std::ifstream tmp(path + ".tmp");
  EXPECT_FALSE(tmp.good());
  std::remove(path.c_str());
}

}  // namespace
}  // namespace raysched::sim
