#include "core/topology.hpp"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <utility>

namespace dws {

namespace {

/// Remote-socket tier from a hop count (1 = adjacent): FAR for one hop,
/// VERYFAR beyond. Same-socket (0 hops) never reaches here.
constexpr std::uint8_t remote_tier(unsigned hops) noexcept {
  return static_cast<std::uint8_t>(hops <= 1 ? DistanceTier::kFar
                                             : DistanceTier::kVeryFar);
}

/// Read a small non-negative integer from a sysfs file; -1 on failure.
long read_sysfs_long(const std::string& path) {
  std::ifstream in(path);
  long v = -1;
  if (!(in >> v) || v < 0) return -1;
  return v;
}

}  // namespace

Topology::Topology(unsigned num_sockets, std::vector<std::uint8_t> socket_of,
                   std::vector<std::uint32_t> group_of,
                   std::vector<std::uint8_t> socket_tier)
    : num_sockets_(num_sockets),
      socket_of_(std::move(socket_of)),
      group_of_(std::move(group_of)),
      socket_tier_(std::move(socket_tier)) {
  // Flat iff one socket and no two distinct cores share an SMT group.
  flat_ = num_sockets_ == 1;
  if (flat_) {
    std::set<std::uint32_t> groups(group_of_.begin(), group_of_.end());
    flat_ = groups.size() == group_of_.size();
  }
}

Topology Topology::synthetic(unsigned num_cores, unsigned num_sockets,
                             unsigned smt_per_core) {
  if (num_cores == 0) num_cores = 1;
  num_sockets = std::clamp(num_sockets, 1u, num_cores);
  smt_per_core = std::clamp(smt_per_core, 1u, num_cores);

  // Same contiguous ceil-division split as SimParams::socket_of, so the
  // simulator's cache model and this machine model always agree.
  const unsigned per = (num_cores + num_sockets - 1) / num_sockets;
  std::vector<std::uint8_t> socket_of(num_cores);
  std::vector<std::uint32_t> group_of(num_cores);
  for (CoreId c = 0; c < num_cores; ++c) {
    socket_of[c] = static_cast<std::uint8_t>(c / per);
    group_of[c] = c / smt_per_core;
  }

  // Linear-chain socket adjacency: |sa - sb| hops.
  std::vector<std::uint8_t> tier(static_cast<std::size_t>(num_sockets) *
                                 num_sockets);
  for (unsigned a = 0; a < num_sockets; ++a) {
    for (unsigned b = 0; b < num_sockets; ++b) {
      tier[a * num_sockets + b] =
          a == b ? static_cast<std::uint8_t>(DistanceTier::kNear)
                 : remote_tier(a > b ? a - b : b - a);
    }
  }
  return Topology(num_sockets, std::move(socket_of), std::move(group_of),
                  std::move(tier));
}

Topology Topology::detect(unsigned num_cores) {
  if (num_cores == 0) num_cores = 1;
  const std::string base = "/sys/devices/system/cpu/cpu";

  // Per-cpu package + core id; any gap falls back to the flat layout.
  std::vector<long> package(num_cores), core_id(num_cores);
  for (unsigned c = 0; c < num_cores; ++c) {
    const std::string dir = base + std::to_string(c) + "/topology/";
    package[c] = read_sysfs_long(dir + "physical_package_id");
    core_id[c] = read_sysfs_long(dir + "core_id");
    if (package[c] < 0 || core_id[c] < 0) return uniform(num_cores);
  }

  // Dense socket ids in first-seen order; dense SMT groups keyed on
  // (package, core_id).
  std::map<long, std::uint8_t> socket_id;
  std::map<std::pair<long, long>, std::uint32_t> group_id;
  std::vector<std::uint8_t> socket_of(num_cores);
  std::vector<std::uint32_t> group_of(num_cores);
  for (unsigned c = 0; c < num_cores; ++c) {
    auto s = socket_id.emplace(package[c],
                               static_cast<std::uint8_t>(socket_id.size()));
    socket_of[c] = s.first->second;
    auto g = group_id.emplace(std::make_pair(package[c], core_id[c]),
                              static_cast<std::uint32_t>(group_id.size()));
    group_of[c] = g.first->second;
  }
  const auto num_sockets = static_cast<unsigned>(socket_id.size());
  if (num_sockets > 255) return uniform(num_cores);

  // Remote tiers from the NUMA distance table when the node count matches
  // the socket count (the common 1-node-per-socket case): the smallest
  // remote distance is FAR, anything larger VERYFAR. Otherwise every
  // remote socket is one hop (FAR).
  std::vector<std::uint8_t> tier(static_cast<std::size_t>(num_sockets) *
                                 num_sockets);
  std::vector<std::vector<long>> node_dist;
  for (unsigned n = 0; n < num_sockets; ++n) {
    std::ifstream in("/sys/devices/system/node/node" + std::to_string(n) +
                     "/distance");
    std::vector<long> row;
    long v = 0;
    while (in >> v) row.push_back(v);
    if (row.size() != num_sockets) {
      node_dist.clear();
      break;
    }
    node_dist.push_back(std::move(row));
  }
  long min_remote = -1;
  if (!node_dist.empty()) {
    for (unsigned a = 0; a < num_sockets; ++a) {
      for (unsigned b = 0; b < num_sockets; ++b) {
        if (a == b) continue;
        // Symmetrize defensively; sysfs tables occasionally are not.
        const long d = std::max(node_dist[a][b], node_dist[b][a]);
        node_dist[a][b] = node_dist[b][a] = d;
        if (min_remote < 0 || d < min_remote) min_remote = d;
      }
    }
  }
  for (unsigned a = 0; a < num_sockets; ++a) {
    for (unsigned b = 0; b < num_sockets; ++b) {
      if (a == b) {
        tier[a * num_sockets + b] =
            static_cast<std::uint8_t>(DistanceTier::kNear);
      } else if (min_remote > 0) {
        tier[a * num_sockets + b] =
            remote_tier(node_dist[a][b] <= min_remote ? 1 : 2);
      } else {
        tier[a * num_sockets + b] = remote_tier(1);
      }
    }
  }
  return Topology(num_sockets, std::move(socket_of), std::move(group_of),
                  std::move(tier));
}

Topology make_topology(const Config& cfg, unsigned num_cores) {
  if (cfg.num_sockets == 0) return Topology::detect(num_cores);
  return Topology::synthetic(num_cores, cfg.num_sockets);
}

}  // namespace dws
