// Reference max-min fair allocation: plain per-flow progressive filling.
//
// This is the textbook algorithm the network's path-class solver
// (net/network.h) must agree with: raise every unfrozen flow's rate
// together; freeze a flow at its cap once the cap is the tightest limit,
// otherwise freeze every flow crossing a link whose fair share is the
// bottleneck; subtract the frozen flows from their links and repeat. It is
// a pure function of its inputs — no simulator, no state — so tests and
// benches can hand it a flow set (or read one off a live Network via
// Network::solver_oracle_max_rel_diff) and compare rates. It allocates and
// is O(rounds · flows · path length); oracle use only.
#pragma once

#include <cstdint>
#include <vector>

namespace bs::net {

// paths[i] lists the link indices flow i crosses (indices into
// link_capacity, bytes/sec); caps[i] is flow i's own rate cap (0 = none).
// Returns each flow's max-min fair rate in bytes/sec.
std::vector<double> reference_max_min(
    const std::vector<std::vector<uint32_t>>& paths,
    const std::vector<double>& caps, const std::vector<double>& link_capacity);

}  // namespace bs::net
