// raysched: plain-text (de)serialization of networks.
//
// Lets instances be pinned to disk and shared between runs/tools. Geometric
// networks store links + per-link powers + alpha + noise (gains are always
// derivable as p_j / d^alpha); matrix networks store the raw gain matrix.
// The format is line-oriented, versioned, and locale-independent
// (max-precision doubles), read and written with the shared token codec in
// util/record_io.hpp: numbers follow its one grammar (no leading '+', no
// hex floats, no partial tokens).
//
//   raysched-network 1
//   kind geometric|matrix
//   [units linear|db]                      (optional; default linear)
//   n <count>  noise <nu>  [alpha <a>]
//   link <sx> <sy> <rx> <ry> <power>      (geometric, n lines)
//   gains <n*n row-major doubles>          (matrix, n lines of n)
//
// With `units db`, powers and gain entries are decibel values and are
// converted through units::to_linear at the parse boundary; with the
// default `units linear` they are linear values and negative entries are
// rejected. A tag/value mismatch (negative linear gain, unbounded dB) is
// an error, never a silent clamp.
//
// Every failure, malformed input and file I/O alike, throws
// coded_error{Precondition}, which is a raysched::error.
#pragma once

#include <iosfwd>
#include <string>

#include "model/network.hpp"

namespace raysched::model {

/// Writes `net` to the stream. Throws coded_error{Precondition} on I/O
/// failure.
void write_network(std::ostream& os, const Network& net);

/// Reads a network written by write_network. Throws
/// coded_error{Precondition} on malformed input.
[[nodiscard]] Network read_network(std::istream& is);

/// File convenience wrappers; save_network writes path.tmp and renames it
/// over `path`.
void save_network(const std::string& path, const Network& net);
[[nodiscard]] Network load_network(const std::string& path);

}  // namespace raysched::model
