// The token codec (util/record_io.hpp) and the byte-exact formats built on
// it. RecordIo pins the number grammar and the failure taxonomy;
// FormatGolden pins the bytes every writer emits, so a change to the codec
// or to a format's writer cannot drift the on-disk formats unnoticed. Each
// golden must also read back and re-write to the same bytes.
#include <gtest/gtest.h>

#include <cstdint>
#include <sstream>
#include <string>
#include <vector>

#include "test_helpers.hpp"
#include "util/record_io.hpp"

namespace raysched {
namespace {

using util::parse_finite;
using util::parse_u64;
using util::TokenReader;

// ---- number grammar -------------------------------------------------------

TEST(RecordIo, ParsesWholeTokensOnly) {
  EXPECT_EQ(parse_u64("12"), 12u);
  EXPECT_EQ(parse_u64("12x"), std::nullopt);
  EXPECT_EQ(parse_u64(""), std::nullopt);
  EXPECT_EQ(parse_u64(" 1"), std::nullopt);
  EXPECT_EQ(parse_finite("0.5"), 0.5);
  EXPECT_EQ(parse_finite("1e-3"), 1e-3);
  EXPECT_EQ(parse_finite("12x"), std::nullopt);
  EXPECT_EQ(parse_finite("1.5e"), std::nullopt);
  // Hex floats are not part of the grammar: "0x1p3" stops after the "0".
  EXPECT_EQ(parse_finite("0x1p3"), std::nullopt);
}

TEST(RecordIo, RejectsSignsOnUnsignedAndPlusOnDoubles) {
  EXPECT_EQ(parse_u64("-1"), std::nullopt);
  EXPECT_EQ(parse_u64("+1"), std::nullopt);
  EXPECT_EQ(parse_finite("+1"), std::nullopt);
  EXPECT_EQ(parse_finite("-1"), -1.0);
}

TEST(RecordIo, RejectsOverflowAndNonFiniteValues) {
  EXPECT_EQ(parse_u64("18446744073709551615"), UINT64_MAX);
  EXPECT_EQ(parse_u64("18446744073709551616"), std::nullopt);
  EXPECT_EQ(parse_finite("1e400"), std::nullopt);
  EXPECT_EQ(parse_finite("inf"), std::nullopt);
  EXPECT_EQ(parse_finite("-inf"), std::nullopt);
  EXPECT_EQ(parse_finite("nan"), std::nullopt);
  // Subnormals are finite and round-trip.
  EXPECT_EQ(parse_finite("4.9406564584124654e-324"), 4.9406564584124654e-324);
}

// ---- token reader ---------------------------------------------------------

// Runs `read` on `text` and returns the coded_error it must throw.
template <class Read>
coded_error reader_error(const std::string& text, ErrorCode code,
                         Read read) {
  std::istringstream is(text);
  TokenReader r(is, code, "read_thing");
  try {
    read(r);
  } catch (const coded_error& e) {
    return e;
  }
  ADD_FAILURE() << "no error for '" << text << "'";
  return coded_error(ErrorCode::Internal, "none");
}

TEST(RecordIo, ErrorsCarryTheCodeAndContext) {
  const coded_error bad_number = reader_error(
      "-1", ErrorCode::SnapshotFormat,
      [](TokenReader& r) { (void)r.u64("queue length"); });
  EXPECT_EQ(bad_number.code(), ErrorCode::SnapshotFormat);
  EXPECT_EQ(std::string(bad_number.what()),
            "[snapshot-format] read_thing: bad queue length '-1'");

  const coded_error wrong_word = reader_error(
      "nodes 3", ErrorCode::Precondition,
      [](TokenReader& r) { r.expect("links"); });
  EXPECT_EQ(wrong_word.code(), ErrorCode::Precondition);
  EXPECT_EQ(std::string(wrong_word.what()),
            "[precondition] read_thing: expected token 'links', got 'nodes'");

  const coded_error truncated = reader_error(
      "", ErrorCode::SnapshotFormat,
      [](TokenReader& r) { (void)r.finite("beta"); });
  EXPECT_EQ(std::string(truncated.what()),
            "[snapshot-format] read_thing: truncated input, expected beta");

  // A plain raysched::error raised inside convert() takes the reader's code.
  const coded_error converted = reader_error(
      "x", ErrorCode::SnapshotFormat, [](TokenReader& r) {
        r.convert([]() -> int { throw error("lookup failed"); });
      });
  EXPECT_EQ(converted.code(), ErrorCode::SnapshotFormat);
  EXPECT_EQ(std::string(converted.what()),
            "[snapshot-format] read_thing: lookup failed");
}

TEST(RecordIo, ReadsEveryFieldKind) {
  std::istringstream is(
      "seed 7 beta -2.5 flag 1 name  spaced out words \n"
      "ids 3 : 0 2 1 end");
  TokenReader r(is, ErrorCode::SnapshotFormat, "read_thing");
  r.expect("seed");
  EXPECT_EQ(r.u64("seed"), 7u);
  r.expect("beta");
  EXPECT_EQ(r.finite("beta"), -2.5);
  r.expect("flag");
  EXPECT_TRUE(r.flag("flag"));
  r.expect("name");
  EXPECT_EQ(r.rest_of_line("name"), "spaced out words ");
  const std::vector<std::size_t> ids = r.list<std::size_t>(
      "ids", 0, 3, [&r] { return r.index("id", 3); });
  EXPECT_EQ(ids, (std::vector<std::size_t>{0, 2, 1}));
  EXPECT_EQ(r.word("end"), "end");
}

TEST(RecordIo, RejectsOutOfRangeFlagsIndicesAndCounts) {
  const auto message = [](const std::string& text, auto read) {
    return std::string(
        reader_error(text, ErrorCode::SnapshotFormat, read).what());
  };
  EXPECT_EQ(message("2", [](TokenReader& r) { (void)r.flag("flag"); }),
            "[snapshot-format] read_thing: flag out of range");
  EXPECT_EQ(message("3", [](TokenReader& r) { (void)r.index("link id", 3); }),
            "[snapshot-format] read_thing: link id out of range");
  EXPECT_EQ(message("4", [](TokenReader& r) { (void)r.count("count", 3); }),
            "[snapshot-format] read_thing: count out of range");
}

TEST(RecordIo, ListCountAboveItsBoundThrowsBeforeReserving) {
  // A count of 2^64 - 1 would be a fatal reserve if it were trusted; the
  // bound check must fire first, and no element reader may run.
  int reads = 0;
  const coded_error e = reader_error(
      "weights 18446744073709551615 : 1 2", ErrorCode::SnapshotFormat,
      [&reads](TokenReader& r) {
        (void)r.list<double>("weights", 0, 4, [&] {
          ++reads;
          return 0.0;
        });
      });
  EXPECT_EQ(std::string(e.what()),
            "[snapshot-format] read_thing: weights count "
            "18446744073709551615 out of range");
  EXPECT_EQ(reads, 0);
  // A count below the minimum is refused the same way.
  const coded_error short_list = reader_error(
      "queues 2 : 1 2", ErrorCode::SnapshotFormat, [](TokenReader& r) {
        (void)r.list<std::uint64_t>("queues", 3, 3, [&r] {
          return r.u64("queue length");
        });
      });
  EXPECT_EQ(std::string(short_list.what()),
            "[snapshot-format] read_thing: queues count 2 out of range");
}

TEST(RecordIo, WritesCountedLists) {
  std::ostringstream os;
  util::write_list(os, "queues", std::vector<std::uint64_t>{5, 0, 7});
  util::write_list(os, "flags", std::vector<char>{1, 0},
                   [](char f) { return f ? 1 : 0; });
  util::write_list(os, "empty", std::vector<double>{});
  EXPECT_EQ(os.str(), "queues 3 : 5 0 7\nflags 2 : 1 0\nempty 0 :\n");
}

// ---- golden bytes ---------------------------------------------------------
//
// Captured from the writers before they moved onto the shared codec. Edit a
// golden only together with a format version bump.

serve::ServeSnapshot golden_snapshot() {
  serve::ServeSnapshot snap;
  snap.master_seed = 18446744073709551615ull;
  snap.num_links = 3;
  snap.beta = 2.5;
  snap.propagation = "rayleigh";
  snap.traffic_model = "bursty";
  snap.policy = "ahm";
  snap.next_slot = 298;
  snap.health.state = serve::HealthState::Degraded;
  snap.health.poison_streak = 1;
  snap.health.clean_slots = 7;
  snap.health.overload_latch = true;
  snap.arrivals = 1000;
  snap.admitted = 990;
  snap.served = 900;
  snap.drops.capacity = 4;
  snap.drops.shed = 3;
  snap.drops.churn = 2;
  snap.drops.quarantine = 1;
  snap.drops.stale_pruned = 9;
  snap.recompute_timeouts = 5;
  snap.recompute_failures = 6;
  snap.recompute_adoptions = 70;
  snap.schedule_epoch = 70;
  snap.schedule_stale = true;
  snap.schedule = {0, 2};
  snap.queues = {50, 30, 10};
  snap.active = {1, 0, 1};
  snap.burst_state = {0, 1, 0};
  snap.departed_flags = {0, 1, 0};
  snap.feedback_attempt = {1, 0, 1};
  snap.feedback_success = {1, 0, 0};
  snap.policy_state = {0.1, 1.0 / 3.0, 4.9406564584124654e-324};
  snap.recompute.in_flight = true;
  snap.recompute.submit_slot = 296;
  snap.recompute.latency_slots = 12;
  snap.inflight_timed_out = false;
  snap.inflight_poisoned = true;
  snap.recompute.weights = {50.0, 0.0, 1e-300};
  snap.recompute.departed = {1};
  snap.recompute.feedback_schedule = {0, 2};
  snap.recompute.feedback_success = {1, 0};
  snap.backoff_slots = 8;
  snap.cooldown_until = 18446744073709551615ull;
  snap.pending_extra_latency = 3;
  snap.poison_active = true;
  return snap;
}

sim::Checkpoint golden_checkpoint() {
  sim::Checkpoint ckpt;
  ckpt.master_seed = 42;
  ckpt.num_networks = 7;
  ckpt.trials_per_network = 3;
  ckpt.metric_names = {"successes per slot", "beta"};
  sim::Accumulator acc;
  acc.add(1.5);
  acc.add(-2.25);
  acc.add(0.1);
  sim::NetworkCheckpoint factory_failed;
  factory_failed.net_idx = 1;
  factory_failed.trial_acc = {sim::Accumulator{}, sim::Accumulator{}};
  factory_failed.cells_skipped = 3;
  sim::CellFailure factory;
  factory.net_idx = 1;
  factory.kind = sim::FailureKind::Exception;
  factory.what = "instance factory threw";
  factory.seed_coords = {42, 1, sim::kNoTrial, 0};
  factory_failed.failures = {factory};
  sim::NetworkCheckpoint trial_failed;
  trial_failed.net_idx = 4;
  trial_failed.trial_acc = {acc, acc};
  trial_failed.cells_completed = 3;
  trial_failed.cells_skipped = 1;
  trial_failed.retries_used = 2;
  sim::CellFailure trial;
  trial.net_idx = 4;
  trial.trial_idx = 1;
  trial.kind = sim::FailureKind::NonfiniteMetric;
  trial.what = "metric 0 is nan";
  trial.seed_coords = {42, 4, 1, 1};
  trial_failed.failures = {trial};
  ckpt.networks = {factory_failed, trial_failed};
  return ckpt;
}

model::Network golden_geometric_network() {
  std::vector<model::Link> links = {
      {{0.0, 0.0}, {1.0 / 3.0, 0.0}},
      {{-12.5, 7.25}, {-12.5, 27.25}},
      {{1000.0, 0.1}, {999.0, 0.2}},
  };
  return model::Network(
      std::move(links),
      model::PowerAssignment::explicit_powers({2.0, 0.1, 1e-3}), 2.2,
      units::Power(4e-7));
}

model::Network golden_matrix_network() {
  return model::Network(
      3, {10.0, 1.0, 0.5, 2.0 / 3.0, 10.0, 0.25, 1e-9, 0.5, 10.0},
      units::Power(0.1));
}

const char* const kSnapshotGolden = R"(raysched-serve-snapshot 2
seed 18446744073709551615
links 3
beta 2.5
propagation rayleigh
traffic bursty
policy ahm
slot 298
health degraded 1 7 0 1
counters 1000 990 900
drops 4 3 2 1 9
recompute-stats 5 6 70
epoch 70 stale 1
schedule 2 : 0 2
queues 3 : 50 30 10
active 3 : 1 0 1
departed 3 : 0 1 0
attempt 3 : 1 0 1
success 3 : 1 0 0
burst 3 : 0 1 0
inflight 1 296 12 0 1
weights 3 : 50 0 1e-300
inflight-departed 1 : 1
inflight-feedback 2 : 0 1 2 0
backoff 8 18446744073709551615
faultstate 3 1
policy-state 3 : 0.10000000000000001 0.33333333333333331 4.9406564584124654e-324
end
)";

const char* const kCheckpointGolden = R"(raysched-checkpoint 1
seed 42
dims 7 3
metrics 2
metric successes per slot
metric beta
network 1 cells 0 skipped 3 retries 0 failures 1
acc 0 0 0 0 0 0
acc 0 0 0 0 0 0
failure factory exception 0 instance factory threw
network 4 cells 3 skipped 1 retries 2 failures 1
acc 3 -0.21666666666666667 7.1816666666666666 -0.65000000000000002 -2.25 1.5
acc 3 -0.21666666666666667 7.1816666666666666 -0.65000000000000002 -2.25 1.5
failure 1 nonfinite_metric 1 metric 0 is nan
end
)";

const char* const kGeometricNetworkGolden = R"(raysched-network 1
kind geometric
n 3 noise 3.9999999999999998e-07 alpha 2.2000000000000002
link 0 0 0.33333333333333331 0 2
link -12.5 7.25 -12.5 27.25 0.10000000000000001
link 1000 0.10000000000000001 999 0.20000000000000001 0.001
)";

const char* const kMatrixNetworkGolden = R"(raysched-network 1
kind matrix
n 3 noise 0.10000000000000001
gains 10 1 0.5
gains 0.66666666666666663 10 0.25
gains 1.0000000000000001e-09 0.5 10
)";

TEST(FormatGolden, SnapshotBytes) {
  std::ostringstream os;
  serve::write_snapshot(os, golden_snapshot());
  EXPECT_EQ(os.str(), kSnapshotGolden);
  std::istringstream is(kSnapshotGolden);
  std::ostringstream again;
  serve::write_snapshot(again, serve::read_snapshot(is));
  EXPECT_EQ(again.str(), kSnapshotGolden);
}

TEST(FormatGolden, CheckpointBytes) {
  std::ostringstream os;
  sim::write_checkpoint(os, golden_checkpoint());
  EXPECT_EQ(os.str(), kCheckpointGolden);
  std::istringstream is(kCheckpointGolden);
  std::ostringstream again;
  sim::write_checkpoint(again, sim::read_checkpoint(is));
  EXPECT_EQ(again.str(), kCheckpointGolden);
}

TEST(FormatGolden, GeometricNetworkBytes) {
  std::ostringstream os;
  model::write_network(os, golden_geometric_network());
  EXPECT_EQ(os.str(), kGeometricNetworkGolden);
  std::istringstream is(kGeometricNetworkGolden);
  std::ostringstream again;
  model::write_network(again, model::read_network(is));
  EXPECT_EQ(again.str(), kGeometricNetworkGolden);
}

TEST(FormatGolden, MatrixNetworkBytes) {
  std::ostringstream os;
  model::write_network(os, golden_matrix_network());
  EXPECT_EQ(os.str(), kMatrixNetworkGolden);
  std::istringstream is(kMatrixNetworkGolden);
  std::ostringstream again;
  model::write_network(again, model::read_network(is));
  EXPECT_EQ(again.str(), kMatrixNetworkGolden);
}

}  // namespace
}  // namespace raysched
