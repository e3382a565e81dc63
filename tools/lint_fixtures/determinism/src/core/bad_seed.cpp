// Seeded violation: platform RNG in library code (RS-D1).
#include <random>

namespace raysched::core {
unsigned draw_platform_entropy() {
  std::random_device rd;
  return rd();
}
}  // namespace raysched::core
