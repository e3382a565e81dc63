#include "model/io.hpp"

#include <cmath>
#include <fstream>
#include <iomanip>
#include <istream>
#include <limits>
#include <ostream>
#include <vector>

#include "util/error.hpp"
#include "util/record_io.hpp"
#include "util/units.hpp"

namespace raysched::model {

namespace {

constexpr std::uint64_t kVersion = 1;

// Upper bounds on the link count accepted from a file header, checked
// before any allocation so a hostile or corrupted header cannot trigger a
// multi-gigabyte (or overflowing) allocation. Matrix networks store n^2
// gains, hence the much tighter cap.
constexpr std::size_t kMaxGeometricLinks = 1'000'000;
constexpr std::size_t kMaxMatrixLinks = 8'192;

// Largest |dB| magnitude accepted from a `units db` file. 10^(380/10) is
// ~1e38, still comfortably inside double range after products with other
// file values; anything larger is treated as a corrupted header rather
// than converted to an Inf/0 linear value.
constexpr double kMaxAbsDecibel = 380.0;

enum class FileUnits { kLinear, kDb };

double read_nonnegative(util::TokenReader& r, const char* what) {
  const double v = r.finite(what);
  if (v < 0.0) r.fail(std::string("negative ") + what);
  return v;
}

// Reads one power/gain value in the file's declared unit and returns its
// linear value. The unit tag decides which ranges are legal: linear values
// must be non-negative (a negative "linear gain" means the tag and the data
// disagree), dB values may be negative but must be bounded so conversion
// cannot overflow to Inf or underflow to 0.
double read_linear_value(util::TokenReader& r, FileUnits units,
                         const char* what) {
  if (units == FileUnits::kLinear) return read_nonnegative(r, what);
  const double db = r.finite(what);
  if (std::abs(db) > kMaxAbsDecibel) {
    r.fail(std::string("dB ") + what + " out of range (|dB| must be <= 380)");
  }
  return units::to_linear(units::Decibel(db)).value();
}

}  // namespace

void write_network(std::ostream& os, const Network& net) {
  os << std::setprecision(std::numeric_limits<double>::max_digits10);
  os << "raysched-network " << kVersion << "\n";
  if (net.has_geometry()) {
    os << "kind geometric\n";
    os << "n " << net.size() << " noise " << net.noise() << " alpha "
       << net.alpha() << "\n";
    for (LinkId i = 0; i < net.size(); ++i) {
      const Link& l = net.link(i);
      os << "link " << l.sender.x << " " << l.sender.y << " " << l.receiver.x
         << " " << l.receiver.y << " " << net.power(i) << "\n";
    }
  } else {
    os << "kind matrix\n";
    os << "n " << net.size() << " noise " << net.noise() << "\n";
    for (LinkId j = 0; j < net.size(); ++j) {
      os << "gains";
      for (LinkId i = 0; i < net.size(); ++i) {
        os << " " << net.mean_gain(j, i);
      }
      os << "\n";
    }
  }
  require_code(static_cast<bool>(os), ErrorCode::Precondition,
               "write_network: stream write failed");
}

Network read_network(std::istream& is) {
  util::TokenReader r(is, ErrorCode::Precondition, "read_network");
  r.expect("raysched-network");
  r.check(r.u64("version") == kVersion, "unsupported version");
  r.expect("kind");
  const std::string kind = r.word("kind");
  r.check(kind == "geometric" || kind == "matrix",
          "unknown kind '" + kind + "'");
  // Optional unit tag for the power/gain payload; absent means linear,
  // matching files written before the tag existed.
  FileUnits file_units = FileUnits::kLinear;
  std::string token = r.word("'units' or 'n'");
  if (token == "units") {
    const std::string mode = r.word("units");
    r.check(mode == "linear" || mode == "db", "unknown units '" + mode + "'");
    if (mode == "db") file_units = FileUnits::kDb;
    token = r.word("'n'");
  }
  r.check(token == "n", "expected token 'n'");
  const std::size_t n = r.count(
      "link count", kind == "matrix" ? kMaxMatrixLinks : kMaxGeometricLinks);
  r.check(n > 0, "link count must be > 0");
  r.expect("noise");
  const double noise = read_nonnegative(r, "noise");

  if (kind == "geometric") {
    r.expect("alpha");
    const double alpha = read_nonnegative(r, "alpha");
    std::vector<Link> links;
    std::vector<double> powers;
    links.reserve(n);
    powers.reserve(n);
    for (std::size_t k = 0; k < n; ++k) {
      r.expect("link");
      Link l;
      l.sender.x = r.finite("sender x");
      l.sender.y = r.finite("sender y");
      l.receiver.x = r.finite("receiver x");
      l.receiver.y = r.finite("receiver y");
      powers.push_back(read_linear_value(r, file_units, "power"));
      links.push_back(l);
    }
    return r.convert([&] {
      return Network(std::move(links),
                     PowerAssignment::explicit_powers(powers), alpha,
                     units::Power(noise));
    });
  }

  std::vector<double> gains(n * n);
  for (std::size_t j = 0; j < n; ++j) {
    r.expect("gains");
    for (std::size_t i = 0; i < n; ++i) {
      gains[j * n + i] = read_linear_value(r, file_units, "gain entry");
    }
  }
  return r.convert(
      [&] { return Network(n, std::move(gains), units::Power(noise)); });
}

void save_network(const std::string& path, const Network& net) {
  util::write_file_atomic(path, ErrorCode::Precondition,
                          [&](std::ostream& os) { write_network(os, net); });
}

Network load_network(const std::string& path) {
  std::ifstream f(path);
  require_code(f.good(), ErrorCode::Precondition,
               "load_network: cannot open " + path);
  return read_network(f);
}

}  // namespace raysched::model
