#include "util/record_io.hpp"

#include <charconv>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <system_error>

namespace raysched::util {

std::optional<std::uint64_t> parse_u64(std::string_view token) {
  std::uint64_t v = 0;
  const char* end = token.data() + token.size();
  const auto [ptr, ec] = std::from_chars(token.data(), end, v);
  if (ec != std::errc() || ptr != end) return std::nullopt;
  return v;
}

std::optional<double> parse_finite(std::string_view token) {
  double v = 0.0;
  const char* end = token.data() + token.size();
  const auto [ptr, ec] = std::from_chars(token.data(), end, v);
  if (ec != std::errc() || ptr != end || !std::isfinite(v)) {
    return std::nullopt;
  }
  return v;
}

void TokenReader::fail(const std::string& message) const {
  throw coded_error(code_, std::string(context_) + ": " + message);
}

const std::string& TokenReader::next(const char* what) {
  if (!(is_ >> token_)) fail(std::string("truncated input, expected ") + what);
  return token_;
}

std::string TokenReader::word(const char* what) { return next(what); }

void TokenReader::expect(const char* keyword) {
  if (next(keyword) != keyword) {
    fail(std::string("expected token '") + keyword + "', got '" + token_ +
         "'");
  }
}

std::uint64_t TokenReader::u64(const char* what) {
  const std::optional<std::uint64_t> v = parse_u64(next(what));
  if (!v) fail(std::string("bad ") + what + " '" + token_ + "'");
  return *v;
}

std::size_t TokenReader::count(const char* what, std::size_t max) {
  const std::uint64_t v = u64(what);
  if (v > max) fail(std::string(what) + " out of range");
  return static_cast<std::size_t>(v);
}

std::size_t TokenReader::index(const char* what, std::size_t bound) {
  const std::uint64_t v = u64(what);
  if (v >= bound) fail(std::string(what) + " out of range");
  return static_cast<std::size_t>(v);
}

double TokenReader::finite(const char* what) {
  const std::optional<double> v = parse_finite(next(what));
  if (!v) fail(std::string("bad ") + what + " '" + token_ + "'");
  return *v;
}

bool TokenReader::flag(const char* what) { return count(what, 1) == 1; }

std::string TokenReader::rest_of_line(const char* what) {
  std::string line;
  if (!std::getline(is_ >> std::ws, line) || line.empty()) {
    fail(std::string("bad ") + what);
  }
  return line;
}

std::size_t TokenReader::list_header(const char* name, std::size_t min,
                                     std::size_t max) {
  expect(name);
  const std::uint64_t k = u64(name);
  if (k < min || k > max) {
    fail(std::string(name) + " count " + std::to_string(k) +
         " out of range");
  }
  expect(":");
  return static_cast<std::size_t>(k);
}

void write_file_atomic(const std::string& path, ErrorCode code,
                       const std::function<void(std::ostream&)>& write) {
  const std::string tmp = path + ".tmp";
  {
    std::ofstream f(tmp, std::ios::trunc);
    require_code(f.good(), code, "write_file_atomic: cannot open " + tmp);
    write(f);
    f.flush();
    require_code(f.good(), code, "write_file_atomic: write failed for " + tmp);
  }
  require_code(std::rename(tmp.c_str(), path.c_str()) == 0, code,
               "write_file_atomic: rename to " + path + " failed");
}

}  // namespace raysched::util
