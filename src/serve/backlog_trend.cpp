// raysched: the backlog trend of a served run (declared in service.hpp).
//
// Its own translation unit: a program that never reads the trend, such as
// raysched_serve or rsbench, links the serving loop's object unchanged.
#include <span>

#include "serve/service.hpp"
#include "util/error.hpp"

namespace raysched::serve {

BacklogTrend backlog_trend(std::span<const SlotDigest> digests) {
  require(!digests.empty(), "backlog_trend: need at least one slot");
  const std::size_t quarter = digests.size() / 4;
  double total = 0.0, q2 = 0.0, q4 = 0.0;
  for (std::size_t i = 0; i < digests.size(); ++i) {
    const auto b = static_cast<double>(digests[i].backlog);
    total += b;
    if (i >= quarter && i < 2 * quarter) q2 += b;
    if (i >= 3 * quarter) q4 += b;
  }
  BacklogTrend trend;
  trend.mean = total / static_cast<double>(digests.size());
  if (quarter == 0) {
    trend.mean_q2 = trend.mean;
    trend.mean_q4 = trend.mean;
  } else {
    trend.mean_q2 = q2 / static_cast<double>(quarter);
    trend.mean_q4 = q4 / static_cast<double>(digests.size() - 3 * quarter);
    trend.slope = (trend.mean_q4 - trend.mean_q2) /
                  (2.0 * static_cast<double>(quarter));
  }
  trend.stable = trend.slope < 0.05;
  return trend;
}

}  // namespace raysched::serve
