#include "common/stats.h"

#include <cstdio>

namespace bs {

void Summary::add(double x) {
  ++count_;
  sum_ += x;
}

double Summary::mean() const {
  return count_ == 0 ? 0.0 : sum_ / static_cast<double>(count_);
}

std::string format_bytes(double bytes) {
  char buf[64];
  const char* units[] = {"B", "KB", "MB", "GB", "TB"};
  int u = 0;
  while (bytes >= 1024.0 && u < 4) {
    bytes /= 1024.0;
    ++u;
  }
  std::snprintf(buf, sizeof(buf), "%.1f %s", bytes, units[u]);
  return buf;
}

}  // namespace bs
