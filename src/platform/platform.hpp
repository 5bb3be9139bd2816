// Target-platform description (§6 of the paper): hosts with a flop/s rating,
// links with bandwidth/latency/sharing policy, and static multi-hop routes
// between host pairs. Instances are built programmatically (builders.hpp)
// or parsed from a SimGrid-DTD-like XML file (xml.hpp).
//
// Routes come from two sources. Generated clusters register a ClusterZone,
// which computes a pair's route from the two hosts' up/down links and switch
// groups when asked, so a cluster of N hosts costs O(N) memory instead of N²
// stored routes. Explicit routes (add_route, XML <route>) live in a table
// that is consulted first: an explicit route overrides a zone's route for
// its pair.
#pragma once

#include <cstddef>
#include <cstdint>
#include <initializer_list>
#include <string>
#include <unordered_map>
#include <vector>

namespace smpi::platform {

enum class LinkSharing {
  kShared,   // capacity is shared by the flows crossing the link
  kFatpipe,  // each flow gets the full capacity (e.g. an idealized backbone)
};

struct HostSpec {
  std::string name;
  double speed_flops = 1e9;
  int cores = 1;
};

struct LinkSpec {
  std::string name;
  double bandwidth_bps = 0;  // bytes per second
  double latency_s = 0;
  LinkSharing sharing = LinkSharing::kShared;
};

// The links a route crosses, in order, held by value. Up to kInline ids are
// stored inline (every cluster-zone route fits); longer routes view the
// platform's explicit table, which stays valid while the platform lives and
// add_route is not called again. Building or copying a Route never allocates.
class Route {
 public:
  static constexpr std::size_t kInline = 4;

  Route() = default;
  Route(std::initializer_list<int> links);
  static Route view(const std::vector<int>& links);

  const int* begin() const { return external_ != nullptr ? external_ : inline_; }
  const int* end() const { return begin() + size_; }
  std::size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  int operator[](std::size_t i) const { return begin()[i]; }
  int front() const { return begin()[0]; }

 private:
  int inline_[kInline] = {};
  const int* external_ = nullptr;
  std::size_t size_ = 0;
};

// Structural routing for a cluster of consecutive host ids
// [first_host, first_host + up.size()). Local host k sends over up[k] and
// receives over down[k]; hosts of one switch group talk through their shared
// switch, hosts of different groups also cross the source group's swup link
// and the destination group's swdown link:
//   same group:  {up[i], down[j]}
//   otherwise:   {up[i], swup[group[i]], swdown[group[j]], down[j]}
struct ClusterZone {
  int first_host = 0;
  std::vector<int> up;
  std::vector<int> down;
  std::vector<int> group;   // per host; empty = every host in one group
  std::vector<int> swup;    // per group
  std::vector<int> swdown;  // per group

  int host_count() const { return static_cast<int>(up.size()); }
  bool contains(int host) const { return host >= first_host && host < first_host + host_count(); }
  // Route between two distinct hosts of the zone (global ids).
  Route route(int src_host, int dst_host) const;
};

class Platform {
 public:
  int add_host(HostSpec spec);
  int add_link(LinkSpec spec);
  // Capacity hint for builders that know their final size: avoids regrowing
  // the host/link tables and rehashing the name indexes while they fill.
  void reserve(int hosts, int links);
  // Register the links crossed from src to dst (in order). With symmetric =
  // true the reverse route is registered too (same links, reversed order).
  void add_route(int src_host, int dst_host, std::vector<int> links, bool symmetric = true);
  // Route every pair of the zone's (already added) hosts structurally. A host
  // belongs to at most one zone; hosts of different zones need explicit
  // routes.
  void add_cluster_zone(ClusterZone zone);

  // In-place parameter overrides (what-if campaigns): routes and names stay,
  // only the rating changes. Values must satisfy the same contracts as
  // add_host/add_link (positive speed/bandwidth, non-negative latency).
  void set_host_speed(int id, double speed_flops);
  void set_link_bandwidth(int id, double bandwidth_bps);
  void set_link_latency(int id, double latency_s);

  int host_count() const { return static_cast<int>(hosts_.size()); }
  int link_count() const { return static_cast<int>(links_.size()); }
  const HostSpec& host(int id) const;
  const LinkSpec& link(int id) const;
  // -1 when absent.
  int find_host(const std::string& name) const;
  int find_link(const std::string& name) const;

  bool has_route(int src_host, int dst_host) const;
  // Throws if no route is registered (routes to self are the empty list and
  // need not be registered). An explicit route wins over a zone's route.
  Route route(int src_host, int dst_host) const;

  // Aggregates used by the network models: the latency sum runs over the
  // links in route order; the bandwidth needs a non-empty route.
  double route_latency(int src_host, int dst_host) const;
  double route_min_bandwidth(int src_host, int dst_host) const;
  double route_latency(const Route& route) const;
  double route_min_bandwidth(const Route& route) const;
  // Number of switching elements a route crosses (#links - 1, floor 0):
  // useful to sanity-check topologies like the 3-switch gdx routes.
  int route_hop_count(int src_host, int dst_host) const;
  // Routes stored per ordered pair (add_route); zone routes are not stored.
  std::size_t explicit_route_count() const { return explicit_routes_.size(); }

 private:
  static std::uint64_t key(int src, int dst) {
    return (static_cast<std::uint64_t>(static_cast<std::uint32_t>(src)) << 32) |
           static_cast<std::uint32_t>(dst);
  }

  const ClusterZone* zone_of(int host) const;

  std::vector<HostSpec> hosts_;
  std::vector<LinkSpec> links_;
  std::unordered_map<std::string, int> host_index_;
  std::unordered_map<std::string, int> link_index_;
  std::vector<ClusterZone> zones_;
  std::unordered_map<std::uint64_t, std::vector<int>> explicit_routes_;
};

}  // namespace smpi::platform
