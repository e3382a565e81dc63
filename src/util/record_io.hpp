// raysched: the one token codec behind every persisted text format.
//
// Serve snapshots (serve/snapshot.hpp), sweep checkpoints
// (sim/checkpoint.hpp) and network files (model/io.hpp) share one shape:
// whitespace-separated tokens on keyword-led lines, counted lists written
// as "<name> <k> : v1 ... vk", doubles at max_digits10. This header reads
// and writes that shape, so the three formats have one number grammar, one
// failure taxonomy and one save path:
//
//   * Numbers are parsed by std::from_chars over the whole token. That is
//     locale-free and rejects partial tokens ("12x", "0x1p3"), any sign on
//     an unsigned value ("-1", "+1"), a leading '+' on a double, hex
//     floats, overflow, and non-finite doubles ("inf", "nan").
//   * write_number and write_list format with std::to_chars into a stack
//     buffer: integers in decimal, doubles as "%.17g", the same bytes a
//     stream at setprecision(max_digits10) prints.
//   * Every read failure throws coded_error{code} with the reader's context
//     in front ("[snapshot-format] read_snapshot: bad queue length '-1'").
//   * A counted list checks its count against the caller's bound before it
//     reserves, so a hostile count cannot force a huge allocation.
//   * write_file_atomic writes path.tmp and renames it over path. A process
//     killed at any point leaves either the old file or the new one. Nothing
//     is fsynced, so a power loss can still lose or tear the file.
#pragma once

#include <charconv>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <iosfwd>
#include <limits>
#include <optional>
#include <ostream>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

#include "util/error.hpp"

namespace raysched::util {

/// The whole of `token` as an unsigned decimal; nullopt otherwise.
[[nodiscard]] std::optional<std::uint64_t> parse_u64(std::string_view token);

/// The whole of `token` as a finite decimal double; nullopt otherwise.
[[nodiscard]] std::optional<double> parse_finite(std::string_view token);

/// Reads tokens from one stream. Every failure throws coded_error{code}
/// whose message starts with "<context>: ".
class TokenReader {
 public:
  TokenReader(std::istream& is, ErrorCode code, const char* context)
      : is_(is), code_(code), context_(context) {}

  [[noreturn]] void fail(const std::string& message) const;
  void check(bool ok, std::string_view message) const {
    if (!ok) fail(std::string(message));
  }

  /// The next whitespace-delimited token.
  [[nodiscard]] std::string word(const char* what);
  void expect(const char* keyword);
  [[nodiscard]] std::uint64_t u64(const char* what);
  /// An unsigned count <= max.
  [[nodiscard]] std::size_t count(const char* what, std::size_t max);
  /// An unsigned value < bound.
  [[nodiscard]] std::size_t index(const char* what, std::size_t bound);
  [[nodiscard]] double finite(const char* what);
  /// 0 or 1.
  [[nodiscard]] bool flag(const char* what);
  /// The rest of the line after skipping whitespace; must be non-empty.
  [[nodiscard]] std::string rest_of_line(const char* what);

  /// Reads "<name> <k> :" and returns k, which must lie in [min, max].
  [[nodiscard]] std::size_t list_header(const char* name, std::size_t min,
                                        std::size_t max);

  /// A counted list whose elements come from read_one().
  template <class T, class ReadOne>
  [[nodiscard]] std::vector<T> list(const char* name, std::size_t min,
                                    std::size_t max, ReadOne read_one) {
    const std::size_t k = list_header(name, min, max);
    std::vector<T> out;
    out.reserve(k);
    for (std::size_t i = 0; i < k; ++i) out.push_back(read_one());
    return out;
  }

  /// fn(), with a plain raysched::error (say from a name lookup) rethrown
  /// under this reader's code and context.
  template <class Fn>
  auto convert(Fn&& fn) -> decltype(fn()) {
    try {
      return fn();
    } catch (const coded_error&) {
      throw;
    } catch (const error& e) {
      fail(e.what());
    }
  }

 private:
  const std::string& next(const char* what);

  std::istream& is_;
  ErrorCode code_;
  const char* context_;
  std::string token_;  ///< reused, so numeric fields do not allocate
};

/// Writes one number in the codec's grammar with std::to_chars: integers
/// in decimal, doubles as printf's "%.17g" (max_digits10, so they read
/// back exactly). Locale-free and allocation-free.
template <class T>
void write_number(std::ostream& os, T v) {
  static_assert(std::is_arithmetic_v<T>, "write_number: not a number");
  char buf[32];
  std::to_chars_result r{};
  if constexpr (std::is_floating_point_v<T>) {
    r = std::to_chars(buf, buf + sizeof buf, v, std::chars_format::general,
                      std::numeric_limits<T>::max_digits10);
  } else {
    r = std::to_chars(buf, buf + sizeof buf, v);
  }
  os.write(buf, r.ptr - buf);
}

/// Writes "<name> <k> :", then " <to_number(v)>" per value, then a newline.
template <class Range, class ToNumber>
void write_list(std::ostream& os, const char* name, const Range& values,
                ToNumber to_number) {
  os << name << ' ';
  write_number(os, values.size());
  os.write(" :", 2);
  for (const auto& v : values) {
    os.put(' ');
    write_number(os, to_number(v));
  }
  os.put('\n');
}

template <class Range>
void write_list(std::ostream& os, const char* name, const Range& values) {
  write_list(os, name, values, [](const auto& v) { return v; });
}

/// Runs write() on a fresh path + ".tmp", then renames it over `path`.
/// Throws coded_error{code} if the file cannot be opened, written or
/// renamed.
void write_file_atomic(const std::string& path, ErrorCode code,
                       const std::function<void(std::ostream&)>& write);

}  // namespace raysched::util
