// Programmatic platform builders, including models of the two Grid'5000
// clusters the paper evaluates on (§7):
//
//  * griffon — 92 dual-quad-core 2.5 GHz Xeon nodes in 3 cabinets (33/27/32),
//    GbE to the cabinet switch, cabinet switches linked by 10 GbE to a
//    second-level switch;
//  * gdx — 312 dual 2.0 GHz Opteron nodes across 36 cabinets, two cabinets
//    per switch, switches linked by GbE to one second-level switch, so two
//    distant nodes communicate across three switches.
//
// Every node has one full-duplex NIC modeled as an "up" and a "down" link;
// inter-switch hops are explicit links, so route_hop_count() counts switches.
// The builders register one ClusterZone, so routes are computed per pair on
// demand and a build costs O(nodes) time and memory.
#pragma once

#include <string>
#include <vector>

#include "platform/platform.hpp"

namespace smpi::platform {

struct FlatClusterParams {
  std::string prefix = "node-";
  int nodes = 16;
  double speed_flops = 1e10;
  int cores = 8;
  double link_bandwidth_bps = 125e6;  // GbE in bytes/s
  double link_latency_s = 50e-6;
};

// All nodes behind one non-blocking switch; route i->j = [up_i, down_j].
Platform build_flat_cluster(const FlatClusterParams& params);

struct HierarchicalClusterParams {
  std::string prefix = "node-";
  std::vector<int> cabinet_sizes;
  int cabinets_per_switch = 1;
  double speed_flops = 1e10;
  int cores = 8;
  double node_bandwidth_bps = 125e6;
  double node_latency_s = 50e-6;
  // Links between a cabinet-level switch and the second-level switch.
  double uplink_bandwidth_bps = 1.25e9;
  double uplink_latency_s = 20e-6;
};

// Multi-cabinet cluster with a two-level switch hierarchy. Nodes in cabinets
// sharing a switch communicate through 1 switch (2 links); distant nodes
// through 3 switches (4 links).
Platform build_hierarchical_cluster(const HierarchicalClusterParams& params);

// The paper's calibration cluster.
Platform build_griffon();
// The paper's validation cluster.
Platform build_gdx();

// Index of some node in `cabinet` (0-based), for picking distant pairs.
int first_node_of_cabinet(const HierarchicalClusterParams& params, int cabinet);

HierarchicalClusterParams griffon_params();
HierarchicalClusterParams gdx_params();

}  // namespace smpi::platform
