// raysched: the audited exact-comparison crossing point (RS-N1).
//
// Exact floating-point equality is almost always a bug — except against a
// *sentinel*: a value that is 0.0 or 1.0 by assignment (not by arithmetic),
// where the comparison selects a branch that is bitwise neutral (skipping
// a q_j == 0 factor in the Theorem-1 product) or handles a degenerate case
// exactly (zero noise, zero interference, a disabled feature knob). Those
// comparisons are *correct* and must stay exact — an epsilon would change
// results and break the golden pins — but each site needs an audit trail.
//
// These predicates are the one place in the tree where the raw `==` may be
// written against a float (enforced by raysched_check rule RS-N1): every
// caller is greppable, and the justification lives here once instead of
// being re-litigated at thirty call sites. The same single-crossing-point
// philosophy as units::to_linear/to_db (RS-L8).
//
// The predicates compile to the identical comparison instruction — no
// epsilon, no extra branch — so replacing `x == 0.0` with
// `fp::exact_zero(x)` is bit-for-bit neutral; the golden pins in
// tests/test_fp_determinism.cpp rely on that.
#pragma once

namespace raysched::util::fp {

/// Exact sentinel-zero test (true for +0.0 and -0.0, false for denormals
/// and NaN). For skip branches over values that are zero *by assignment*,
/// and for degenerate-case dispatch (no noise, no interference) where the
/// zero genuinely is exact.
[[nodiscard]] constexpr bool exact_zero(double v) { return v == 0.0; }

/// Exact sentinel-one test. For probabilities that are 1.0 by assignment
/// (always-on links) where the complement factor is exactly absorbing.
[[nodiscard]] constexpr bool exact_one(double v) { return v == 1.0; }

/// Exact equality against an assigned sentinel value (e.g. a disabled-knob
/// default). Both sides must trace to assignment, never to arithmetic.
[[nodiscard]] constexpr bool exact_eq(double a, double b) { return a == b; }

}  // namespace raysched::util::fp
