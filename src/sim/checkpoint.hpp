// raysched: checkpoint persistence for long-running Monte-Carlo sweeps.
//
// run_experiment periodically snapshots all fully-processed networks to a
// versioned plain-text file (read and written with the shared token codec
// in util/record_io.hpp, like serve snapshots and network files) and can
// resume from such a file, skipping completed networks. Accumulator state
// is stored at max_digits10 so a resumed run is bitwise-identical to an
// uninterrupted one. Writes go through a temporary file followed by a
// rename, so a process killed mid-write never corrupts an existing
// checkpoint (nothing is fsynced, so a power loss still can).
//
//   raysched-checkpoint 1
//   seed <master_seed>
//   dims <num_networks> <trials_per_network>
//   metrics <m>
//   metric <name>                                   (m lines)
//   network <idx> cells <ok> skipped <s> retries <r> failures <f>
//   acc <count> <mean> <m2> <sum> <min> <max>       (m lines per network)
//   failure <trial|factory> <kind> <attempt> <what...>   (f lines)
//   end
//
// Concurrency contract: save_checkpoint_atomic is called only with the
// engine's SweepState mutex held (serializing snapshot writes); the structs
// themselves carry no locks and are never shared mutably across threads.
#pragma once

#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "sim/failure.hpp"
#include "sim/stats.hpp"

namespace raysched::sim {

/// Partial results of one fully-processed network.
struct NetworkCheckpoint {
  std::size_t net_idx = 0;
  std::vector<Accumulator> trial_acc;  ///< one per metric, pooled over trials
  std::size_t cells_completed = 0;
  std::size_t cells_skipped = 0;
  std::size_t retries_used = 0;
  std::vector<CellFailure> failures;
};

/// A sweep snapshot: experiment fingerprint + every completed network.
struct Checkpoint {
  std::uint64_t master_seed = 0;
  std::size_t num_networks = 0;
  std::size_t trials_per_network = 0;
  std::vector<std::string> metric_names;
  std::vector<NetworkCheckpoint> networks;
};

/// Writes `ckpt` to the stream. Throws coded_error{SnapshotIo} on I/O
/// failure and coded_error{SnapshotFormat} on unserializable state.
void write_checkpoint(std::ostream& os, const Checkpoint& ckpt);

/// Reads a checkpoint written by write_checkpoint. Throws
/// coded_error{SnapshotFormat} on malformed input.
[[nodiscard]] Checkpoint read_checkpoint(std::istream& is);

/// Writes to `path + ".tmp"` then renames over `path` (atomic on POSIX), so
/// readers never observe a torn file. Throws coded_error{SnapshotIo} on
/// failure.
void save_checkpoint_atomic(const std::string& path, const Checkpoint& ckpt);

/// Throws coded_error{SnapshotIo} if unreadable, {SnapshotFormat} if
/// malformed.
[[nodiscard]] Checkpoint load_checkpoint(const std::string& path);

}  // namespace raysched::sim
