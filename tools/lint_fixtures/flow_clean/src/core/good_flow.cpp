// Clean fixture: deterministic library code that raysched_check must pass.
// Accumulation runs over an index-ordered vector; no entropy, no clocks,
// no hidden statics.
#include <cstddef>
#include <vector>

namespace raysched::core {

double total_gain(const std::vector<double>& gains) {
  double sum = 0.0;
  for (std::size_t i = 0; i < gains.size(); ++i) {
    sum += gains[i];
  }
  return sum;
}

}  // namespace raysched::core
