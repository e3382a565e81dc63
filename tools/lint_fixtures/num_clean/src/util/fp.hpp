// Fixture stub: the audited sentinel predicate (src/util/ is exempt from
// RS-N1, so the raw comparison is legal here).
#pragma once

namespace raysched::util::fp {
inline bool exact_zero(double x) { return x == 0.0; }
}  // namespace raysched::util::fp
