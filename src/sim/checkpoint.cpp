#include "sim/checkpoint.hpp"

#include <fstream>
#include <iomanip>
#include <istream>
#include <limits>
#include <ostream>

#include "util/error.hpp"
#include "util/record_io.hpp"

namespace raysched::sim {

namespace {

constexpr std::uint64_t kVersion = 1;

/// Failure messages are stored on one line; squash any embedded newlines.
std::string one_line(const std::string& s) {
  std::string out = s;
  for (char& c : out) {
    if (c == '\n' || c == '\r') c = ' ';
  }
  return out;
}

// Keep checkpoints bounded even against a corrupted/hostile size field: no
// sweep has more than this many networks or metrics.
constexpr std::size_t kMaxCount = 100'000'000;

}  // namespace

void write_checkpoint(std::ostream& os, const Checkpoint& ckpt) {
  os << std::setprecision(std::numeric_limits<double>::max_digits10);
  os << "raysched-checkpoint " << kVersion << "\n";
  os << "seed " << ckpt.master_seed << "\n";
  os << "dims " << ckpt.num_networks << " " << ckpt.trials_per_network << "\n";
  os << "metrics " << ckpt.metric_names.size() << "\n";
  for (const std::string& name : ckpt.metric_names) {
    require_code(!name.empty(), ErrorCode::SnapshotFormat,
                 "write_checkpoint: empty metric name");
    os << "metric " << one_line(name) << "\n";
  }
  for (const NetworkCheckpoint& net : ckpt.networks) {
    require_code(net.trial_acc.size() == ckpt.metric_names.size(),
                 ErrorCode::SnapshotFormat,
                 "write_checkpoint: accumulator width mismatch");
    os << "network " << net.net_idx << " cells " << net.cells_completed
       << " skipped " << net.cells_skipped << " retries " << net.retries_used
       << " failures " << net.failures.size() << "\n";
    for (const Accumulator& acc : net.trial_acc) {
      os << "acc " << acc.count() << " "
         << (acc.count() > 0 ? acc.mean() : 0.0) << " " << acc.m2() << " "
         << acc.sum() << " " << (acc.count() > 0 ? acc.min() : 0.0) << " "
         << (acc.count() > 0 ? acc.max() : 0.0) << "\n";
    }
    for (const CellFailure& f : net.failures) {
      os << "failure ";
      if (f.trial_idx == kNoTrial) {
        os << "factory";
      } else {
        os << f.trial_idx;
      }
      os << " " << to_string(f.kind) << " " << f.seed_coords.attempt << " "
         << one_line(f.what.empty() ? "(no message)" : f.what) << "\n";
    }
  }
  os << "end\n";
  require_code(static_cast<bool>(os), ErrorCode::SnapshotIo,
               "write_checkpoint: stream write failed");
}

Checkpoint read_checkpoint(std::istream& is) {
  util::TokenReader r(is, ErrorCode::SnapshotFormat, "read_checkpoint");
  r.expect("raysched-checkpoint");
  r.check(r.u64("version") == kVersion, "unsupported version");
  Checkpoint ckpt;
  r.expect("seed");
  ckpt.master_seed = r.u64("seed");
  r.expect("dims");
  ckpt.num_networks = r.count("network count", kMaxCount);
  ckpt.trials_per_network = r.count("trial count", kMaxCount);
  r.expect("metrics");
  const std::size_t m = r.count("metric count", kMaxCount);
  r.check(m > 0, "metric count must be > 0");
  ckpt.metric_names.reserve(m);
  for (std::size_t k = 0; k < m; ++k) {
    r.expect("metric");
    ckpt.metric_names.push_back(r.rest_of_line("metric name"));
  }

  for (;;) {
    const std::string section = r.word("'network' or 'end'");
    if (section == "end") break;
    r.check(section == "network",
            "expected 'network' or 'end', got '" + section + "'");
    NetworkCheckpoint net;
    net.net_idx = r.index("network index", ckpt.num_networks);
    r.expect("cells");
    net.cells_completed = r.u64("cell count");
    r.expect("skipped");
    net.cells_skipped = r.u64("skipped count");
    r.expect("retries");
    net.retries_used = r.u64("retry count");
    r.expect("failures");
    const std::size_t num_failures = r.count("failure count", kMaxCount);
    net.trial_acc.reserve(m);
    for (std::size_t k = 0; k < m; ++k) {
      r.expect("acc");
      const std::uint64_t n = r.u64("accumulator count");
      const double mean = r.finite("accumulator mean");
      const double m2 = r.finite("accumulator m2");
      const double sum = r.finite("accumulator sum");
      const double min = r.finite("accumulator min");
      const double max = r.finite("accumulator max");
      net.trial_acc.push_back(
          Accumulator::from_state(n, mean, m2, sum, min, max));
    }
    net.failures.reserve(num_failures);
    for (std::size_t f = 0; f < num_failures; ++f) {
      r.expect("failure");
      CellFailure failure;
      failure.net_idx = net.net_idx;
      const std::string trial = r.word("failure trial");
      if (trial != "factory") {
        const std::optional<std::uint64_t> idx = util::parse_u64(trial);
        r.check(idx.has_value(), "bad failure trial");
        failure.trial_idx = *idx;
      }
      const std::string kind = r.word("failure kind");
      failure.kind = r.convert([&] { return failure_kind_from_string(kind); });
      failure.seed_coords = {ckpt.master_seed, failure.net_idx,
                             failure.trial_idx, r.u64("failure attempt")};
      failure.what = r.rest_of_line("failure message");
      net.failures.push_back(std::move(failure));
    }
    ckpt.networks.push_back(std::move(net));
  }
  return ckpt;
}

void save_checkpoint_atomic(const std::string& path, const Checkpoint& ckpt) {
  util::write_file_atomic(path, ErrorCode::SnapshotIo, [&](std::ostream& os) {
    write_checkpoint(os, ckpt);
  });
}

Checkpoint load_checkpoint(const std::string& path) {
  std::ifstream f(path);
  require_code(f.good(), ErrorCode::SnapshotIo,
               "load_checkpoint: cannot open " + path);
  return read_checkpoint(f);
}

}  // namespace raysched::sim
