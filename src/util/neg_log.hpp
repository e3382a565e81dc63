// raysched: -ln x from the bits of x, for the Rayleigh success filter.
//
// Deciding whether a fading realization clears the SINR threshold needs
// the interference sum only to a certified relative accuracy: the exact
// decision is replayed whenever the approximate SINR lands near beta
// (model::rayleigh_successes). This helper supplies the per-pair term
// -ln(1 - u) of an Exp(1) draw without a libm call:
//
//   x = 2^e * m,  m rounded to the nearest c = 1 + k/128 (k in [0, 128)),
//   -ln x = -(e ln2 + ln c + log1p(r)),  r = (m - c) / c,  |r| <= 2^-8,
//
// with log1p(r) a degree-6 Taylor polynomial. A mantissa that rounds up
// to 2 is renormalized to [0.5, 1) (k = 0, e + 1), so x just below 1 takes
// the k = 0 cell where ln c = 0 and r = x - 1 is exact: there is no
// cancellation near x = 1, where -ln x is smallest. m - c is exact
// (Sterbenz), e ln2_hi is exact (ln2_hi has 11 trailing zero bits), and
// e ln2_hi + ln c is exact whenever the two nearly cancel, so the error
// is the rounding of ln c (2^-54 absolute) over |ln x| >= 2^-9 in the
// cells next to x = 1, plus the polynomial's r^6/7 < 2^-50 relative.
// kNegLogRelError bounds it with margin; tests/test_rayleigh_success.cpp
// pins it at every cell edge, near powers of two and over 10^7 samples.
//
// It lives in util/ because it reads the IEEE-754 bit pattern directly,
// the same audited crossing-layer role fp.hpp plays for exact comparisons.
#pragma once

#include <array>
#include <bit>
#include <cstdint>

namespace raysched::util {

/// Documented bound on |neg_log(x) / -ln(x) - 1| over positive normal x
/// with x != 1 (neg_log(1) == 0 exactly). Measured worst case: 1.2e-14.
inline constexpr double kNegLogRelError = 1e-13;

namespace detail {

/// ln(1 + k/128), correctly rounded.
inline constexpr std::array<double, 128> kLnCell = {
    0x0.0p+0, 0x1.fe02a6b106789p-8, 0x1.fc0a8b0fc03e4p-7,
    0x1.7b91b07d5b11bp-6, 0x1.f829b0e783300p-6, 0x1.39e87b9febd60p-5,
    0x1.77458f632dcfcp-5, 0x1.b42dd711971bfp-5, 0x1.f0a30c01162a6p-5,
    0x1.16536eea37ae1p-4, 0x1.341d7961bd1d1p-4, 0x1.51b073f06183fp-4,
    0x1.6f0d28ae56b4cp-4, 0x1.8c345d6319b21p-4, 0x1.a926d3a4ad563p-4,
    0x1.c5e548f5bc743p-4, 0x1.e27076e2af2e6p-4, 0x1.fec9131dbeabbp-4,
    0x1.0d77e7cd08e59p-3, 0x1.1b72ad52f67a0p-3, 0x1.29552f81ff523p-3,
    0x1.371fc201e8f74p-3, 0x1.44d2b6ccb7d1ep-3, 0x1.526e5e3a1b438p-3,
    0x1.5ff3070a793d4p-3, 0x1.6d60fe719d21dp-3, 0x1.7ab890210d909p-3,
    0x1.87fa06520c911p-3, 0x1.9525a9cf456b4p-3, 0x1.a23bc1fe2b563p-3,
    0x1.af3c94e80bff3p-3, 0x1.bc286742d8cd6p-3, 0x1.c8ff7c79a9a22p-3,
    0x1.d5c216b4fbb91p-3, 0x1.e27076e2af2e6p-3, 0x1.ef0adcbdc5936p-3,
    0x1.fb9186d5e3e2bp-3, 0x1.0402594b4d041p-2, 0x1.0a324e27390e3p-2,
    0x1.1058bf9ae4ad5p-2, 0x1.1675cababa60ep-2, 0x1.1c898c16999fbp-2,
    0x1.22941fbcf7966p-2, 0x1.2895a13de86a3p-2, 0x1.2e8e2bae11d31p-2,
    0x1.347dd9a987d55p-2, 0x1.3a64c556945eap-2, 0x1.404308686a7e4p-2,
    0x1.4618bc21c5ec2p-2, 0x1.4be5f957778a1p-2, 0x1.51aad872df82dp-2,
    0x1.5767717455a6cp-2, 0x1.5d1bdbf5809cap-2, 0x1.62c82f2b9c795p-2,
    0x1.686c81e9b14afp-2, 0x1.6e08eaa2ba1e4p-2, 0x1.739d7f6bbd007p-2,
    0x1.792a55fdd47a2p-2, 0x1.7eaf83b82afc3p-2, 0x1.842d1da1e8b17p-2,
    0x1.89a3386c1425bp-2, 0x1.8f11e873662c7p-2, 0x1.947941c2116fbp-2,
    0x1.99d958117e08bp-2, 0x1.9f323ecbf984cp-2, 0x1.a484090e5bb0ap-2,
    0x1.a9cec9a9a084ap-2, 0x1.af1293247786bp-2, 0x1.b44f77bcc8f63p-2,
    0x1.b9858969310fbp-2, 0x1.beb4d9da71b7cp-2, 0x1.c3dd7a7cdad4dp-2,
    0x1.c8ff7c79a9a22p-2, 0x1.ce1af0b85f3ebp-2, 0x1.d32fe7e00ebd5p-2,
    0x1.d83e7258a2f3ep-2, 0x1.dd46a04c1c4a1p-2, 0x1.e24881a7c6c26p-2,
    0x1.e744261d68788p-2, 0x1.ec399d2468cc0p-2, 0x1.f128f5faf06edp-2,
    0x1.f6123fa7028acp-2, 0x1.faf588f78f31fp-2, 0x1.ffd2e0857f498p-2,
    0x1.02552a5a5d0ffp-1, 0x1.04bdf9da926d2p-1, 0x1.0723e5c1cdf40p-1,
    0x1.0986f4f573521p-1, 0x1.0be72e4252a83p-1, 0x1.0e44985d1cc8cp-1,
    0x1.109f39e2d4c97p-1, 0x1.12f719593efbcp-1, 0x1.154c3d2f4d5eap-1,
    0x1.179eabbd899a1p-1, 0x1.19ee6b467c96fp-1, 0x1.1c3b81f713c25p-1,
    0x1.1e85f5e7040d0p-1, 0x1.20cdcd192ab6ep-1, 0x1.23130d7bebf43p-1,
    0x1.2555bce98f7cbp-1, 0x1.2795e1289b11bp-1, 0x1.29d37fec2b08bp-1,
    0x1.2c0e9ed448e8cp-1, 0x1.2e47436e40268p-1, 0x1.307d7334f10bep-1,
    0x1.32b1339121d71p-1, 0x1.34e289d9ce1d3p-1, 0x1.37117b54747b6p-1,
    0x1.393e0d3562a1ap-1, 0x1.3b68449fffc23p-1, 0x1.3d9026a7156fbp-1,
    0x1.3fb5b84d16f42p-1, 0x1.41d8fe84672aep-1, 0x1.43f9fe2f9ce67p-1,
    0x1.4618bc21c5ec2p-1, 0x1.48353d1ea88dfp-1, 0x1.4a4f85db03ebbp-1,
    0x1.4c679afccee3ap-1, 0x1.4e7d811b75bb1p-1, 0x1.50913cc01686bp-1,
    0x1.52a2d265bc5abp-1, 0x1.54b2467999498p-1, 0x1.56bf9d5b3f399p-1,
    0x1.58cadb5cd7989p-1, 0x1.5ad404c359f2dp-1, 0x1.5cdb1dc6c1765p-1,
    0x1.5ee02a9241675p-1, 0x1.60e32f44788d9p-1,
};

/// The cell centres 1 + k/128 (exact) and their rounded reciprocals. The
/// reciprocal only scales r, so its rounding is one more 2^-53 relative on
/// a term of size <= 2^-8.
inline constexpr std::array<double, 128> kCell = [] {
  std::array<double, 128> c{};
  for (int k = 0; k < 128; ++k) c[k] = 1.0 + k * 0x1p-7;
  return c;
}();
inline constexpr std::array<double, 128> kInvCell = [] {
  std::array<double, 128> inv{};
  for (int k = 0; k < 128; ++k) inv[k] = 1.0 / kCell[k];
  return inv;
}();

inline constexpr double kLn2Hi = 0x1.62e42fefa3800p-1;
inline constexpr double kLn2Lo = 0x1.ef35793c76730p-45;

}  // namespace detail

/// -ln(x) for positive normal finite x, relative error <= kNegLogRelError.
/// Zero, subnormal, negative, infinite and NaN inputs are outside the
/// contract (the Rayleigh kernel only passes 1 - u, u in [0, 1 - 2^-53]).
[[nodiscard]] inline double neg_log(double x) {
  const std::uint64_t bits = std::bit_cast<std::uint64_t>(x);
  constexpr std::uint64_t kFracMask = (std::uint64_t{1} << 52) - 1;
  const std::uint64_t frac = bits & kFracMask;
  // Nearest multiple of 1/128; 128 means the mantissa rounds up to 2.
  const std::uint64_t nearest = (frac + (std::uint64_t{1} << 44)) >> 45;
  const std::uint64_t carry = nearest >> 7;
  const std::uint64_t k = nearest & 127;
  const int e = static_cast<int>((bits >> 52) & 0x7ff) - 1023 +
                static_cast<int>(carry);
  // m in [1, 2), or in [0.5, 1) after a carry.
  const double m = std::bit_cast<double>(frac | ((1023 - carry) << 52));
  const double r = (m - detail::kCell[k]) * detail::kInvCell[k];
  // Estrin's scheme: a shorter dependency chain than Horner's, which is
  // what the per-pair throughput of the Rayleigh kernel is bound by.
  const double r2 = r * r;
  const double p = (r + r2 * (-0.5 + r * (1.0 / 3.0))) +
                   (r2 * r2) * ((-0.25 + r * 0.2) + r2 * (-1.0 / 6.0));
  const double hi = static_cast<double>(e) * detail::kLn2Hi + detail::kLnCell[k];
  const double lo = static_cast<double>(e) * detail::kLn2Lo + p;
  return -(hi + lo);
}

}  // namespace raysched::util
