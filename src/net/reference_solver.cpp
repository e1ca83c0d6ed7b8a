#include "net/reference_solver.h"

#include <limits>

#include "common/assert.h"

namespace bs::net {

std::vector<double> reference_max_min(
    const std::vector<std::vector<uint32_t>>& paths,
    const std::vector<double>& caps, const std::vector<double>& link_capacity) {
  BS_CHECK(paths.size() == caps.size());
  std::vector<double> rate(paths.size(), -1);  // -1 = unfrozen
  std::vector<double> remaining(link_capacity);
  std::vector<uint32_t> count(link_capacity.size(), 0);
  for (size_t i = 0; i < paths.size(); ++i) {
    BS_CHECK_MSG(!paths[i].empty() || caps[i] > 0, "flow has no rate limit");
    for (uint32_t l : paths[i]) {
      BS_CHECK(l < link_capacity.size());
      ++count[l];
    }
  }
  auto freeze = [&](size_t i, double r) {
    rate[i] = r;
    for (uint32_t l : paths[i]) {
      remaining[l] -= r;
      --count[l];
    }
  };
  size_t unfrozen = paths.size();
  while (unfrozen > 0) {
    // Bottleneck share across links still carrying unfrozen flows.
    double best_share = std::numeric_limits<double>::infinity();
    for (size_t l = 0; l < count.size(); ++l) {
      if (count[l] == 0) continue;
      const double fair = remaining[l] / count[l];
      if (fair < best_share) best_share = fair;
    }
    // A cap that binds before the links do freezes its flow at the cap.
    bool froze_capped = false;
    for (size_t i = 0; i < paths.size(); ++i) {
      if (rate[i] >= 0 || caps[i] <= 0 || caps[i] > best_share) continue;
      freeze(i, caps[i]);
      --unfrozen;
      froze_capped = true;
    }
    if (froze_capped) continue;
    // Otherwise freeze every unfrozen flow crossing a bottleneck link.
    const double limit = best_share * (1 + 1e-12);
    for (size_t i = 0; i < paths.size(); ++i) {
      if (rate[i] >= 0) continue;
      bool bottlenecked = false;
      for (uint32_t l : paths[i]) {
        if (remaining[l] <= limit * count[l]) {
          bottlenecked = true;
          break;
        }
      }
      if (!bottlenecked) continue;
      freeze(i, best_share);
      --unfrozen;
    }
  }
  return rate;
}

}  // namespace bs::net
