#include "platform/platform.hpp"

#include <algorithm>

#include "util/check.hpp"

namespace smpi::platform {

Route::Route(std::initializer_list<int> links) : size_(links.size()) {
  SMPI_REQUIRE(links.size() <= kInline, "inline route too long");
  std::copy(links.begin(), links.end(), inline_);
}

Route Route::view(const std::vector<int>& links) {
  Route route;
  route.external_ = links.data();
  route.size_ = links.size();
  return route;
}

Route ClusterZone::route(int src_host, int dst_host) const {
  const auto i = static_cast<std::size_t>(src_host - first_host);
  const auto j = static_cast<std::size_t>(dst_host - first_host);
  if (group.empty() || group[i] == group[j]) return {up[i], down[j]};
  return {up[i], swup[static_cast<std::size_t>(group[i])],
          swdown[static_cast<std::size_t>(group[j])], down[j]};
}

int Platform::add_host(HostSpec spec) {
  SMPI_REQUIRE(!spec.name.empty(), "host needs a name");
  SMPI_REQUIRE(spec.speed_flops > 0, "host speed must be positive");
  SMPI_REQUIRE(spec.cores >= 1, "host needs at least one core");
  const int id = static_cast<int>(hosts_.size());
  const bool fresh = host_index_.try_emplace(spec.name, id).second;
  SMPI_REQUIRE(fresh, "duplicate host '" + spec.name + "'");
  hosts_.push_back(std::move(spec));
  return id;
}

int Platform::add_link(LinkSpec spec) {
  SMPI_REQUIRE(!spec.name.empty(), "link needs a name");
  SMPI_REQUIRE(spec.bandwidth_bps > 0, "link bandwidth must be positive");
  SMPI_REQUIRE(spec.latency_s >= 0, "link latency must be >= 0");
  const int id = static_cast<int>(links_.size());
  const bool fresh = link_index_.try_emplace(spec.name, id).second;
  SMPI_REQUIRE(fresh, "duplicate link '" + spec.name + "'");
  links_.push_back(std::move(spec));
  return id;
}

void Platform::reserve(int hosts, int links) {
  hosts_.reserve(static_cast<std::size_t>(hosts));
  host_index_.reserve(static_cast<std::size_t>(hosts));
  links_.reserve(static_cast<std::size_t>(links));
  link_index_.reserve(static_cast<std::size_t>(links));
}

void Platform::add_route(int src_host, int dst_host, std::vector<int> links, bool symmetric) {
  SMPI_REQUIRE(src_host >= 0 && src_host < host_count(), "route src out of range");
  SMPI_REQUIRE(dst_host >= 0 && dst_host < host_count(), "route dst out of range");
  SMPI_REQUIRE(src_host != dst_host, "route to self is implicit");
  for (int link : links) {
    SMPI_REQUIRE(link >= 0 && link < link_count(), "route references unknown link");
  }
  explicit_routes_[key(src_host, dst_host)] = links;
  if (symmetric) {
    std::reverse(links.begin(), links.end());
    explicit_routes_[key(dst_host, src_host)] = std::move(links);
  }
}

void Platform::add_cluster_zone(ClusterZone zone) {
  const int n = zone.host_count();
  SMPI_REQUIRE(n >= 1, "cluster zone needs at least one host");
  SMPI_REQUIRE(zone.first_host >= 0 && zone.first_host + n <= host_count(),
               "cluster zone hosts out of range");
  SMPI_REQUIRE(zone.down.size() == zone.up.size(), "cluster zone needs one down link per host");
  SMPI_REQUIRE(zone.group.empty() || zone.group.size() == zone.up.size(),
               "cluster zone needs one group per host");
  SMPI_REQUIRE(zone.swdown.size() == zone.swup.size(),
               "cluster zone needs one swdown link per swup link");
  for (const ClusterZone& other : zones_) {
    SMPI_REQUIRE(zone.first_host + n <= other.first_host ||
                     other.first_host + other.host_count() <= zone.first_host,
                 "cluster zones overlap");
  }
  for (int g : zone.group) {
    SMPI_REQUIRE(g >= 0 && static_cast<std::size_t>(g) < zone.swup.size(),
                 "cluster zone group out of range");
  }
  for (const auto* ids : {&zone.up, &zone.down, &zone.swup, &zone.swdown}) {
    for (int link : *ids) {
      SMPI_REQUIRE(link >= 0 && link < link_count(), "cluster zone references unknown link");
    }
  }
  zones_.push_back(std::move(zone));
}

void Platform::set_host_speed(int id, double speed_flops) {
  SMPI_REQUIRE(id >= 0 && id < host_count(), "host id out of range");
  SMPI_REQUIRE(speed_flops > 0, "host speed must be positive");
  hosts_[static_cast<std::size_t>(id)].speed_flops = speed_flops;
}

void Platform::set_link_bandwidth(int id, double bandwidth_bps) {
  SMPI_REQUIRE(id >= 0 && id < link_count(), "link id out of range");
  SMPI_REQUIRE(bandwidth_bps > 0, "link bandwidth must be positive");
  links_[static_cast<std::size_t>(id)].bandwidth_bps = bandwidth_bps;
}

void Platform::set_link_latency(int id, double latency_s) {
  SMPI_REQUIRE(id >= 0 && id < link_count(), "link id out of range");
  SMPI_REQUIRE(latency_s >= 0, "link latency must be >= 0");
  links_[static_cast<std::size_t>(id)].latency_s = latency_s;
}

const HostSpec& Platform::host(int id) const {
  SMPI_REQUIRE(id >= 0 && id < host_count(), "host id out of range");
  return hosts_[static_cast<std::size_t>(id)];
}

const LinkSpec& Platform::link(int id) const {
  SMPI_REQUIRE(id >= 0 && id < link_count(), "link id out of range");
  return links_[static_cast<std::size_t>(id)];
}

int Platform::find_host(const std::string& name) const {
  auto it = host_index_.find(name);
  return it == host_index_.end() ? -1 : it->second;
}

int Platform::find_link(const std::string& name) const {
  auto it = link_index_.find(name);
  return it == link_index_.end() ? -1 : it->second;
}

const ClusterZone* Platform::zone_of(int host) const {
  for (const ClusterZone& zone : zones_) {
    if (zone.contains(host)) return &zone;
  }
  return nullptr;
}

bool Platform::has_route(int src_host, int dst_host) const {
  if (src_host == dst_host) return true;
  if (explicit_routes_.count(key(src_host, dst_host)) != 0) return true;
  const ClusterZone* zone = zone_of(src_host);
  return zone != nullptr && zone->contains(dst_host);
}

Route Platform::route(int src_host, int dst_host) const {
  if (src_host == dst_host) return {};
  if (!explicit_routes_.empty()) {
    auto it = explicit_routes_.find(key(src_host, dst_host));
    if (it != explicit_routes_.end()) return Route::view(it->second);
  }
  const ClusterZone* zone = zone_of(src_host);
  SMPI_REQUIRE(zone != nullptr && zone->contains(dst_host),
               "no route from '" + host(src_host).name + "' to '" + host(dst_host).name + "'");
  return zone->route(src_host, dst_host);
}

double Platform::route_latency(int src_host, int dst_host) const {
  return route_latency(route(src_host, dst_host));
}

double Platform::route_min_bandwidth(int src_host, int dst_host) const {
  return route_min_bandwidth(route(src_host, dst_host));
}

double Platform::route_latency(const Route& route) const {
  double total = 0;
  for (int id : route) total += link(id).latency_s;
  return total;
}

double Platform::route_min_bandwidth(const Route& route) const {
  SMPI_REQUIRE(!route.empty(), "route with no links has no bandwidth");
  double min_bw = link(route.front()).bandwidth_bps;
  for (int id : route) min_bw = std::min(min_bw, link(id).bandwidth_bps);
  return min_bw;
}

int Platform::route_hop_count(int src_host, int dst_host) const {
  const auto n = static_cast<int>(route(src_host, dst_host).size());
  return std::max(0, n - 1);
}

}  // namespace smpi::platform
