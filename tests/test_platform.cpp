#include "platform/platform.hpp"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "platform/builders.hpp"
#include "platform/platform_xml.hpp"
#include "util/check.hpp"

namespace sp = smpi::platform;
using smpi::util::ContractError;

namespace {

std::vector<int> links_of(const sp::Route& route) { return {route.begin(), route.end()}; }

}  // namespace

TEST(Platform, AddAndLookupHostsAndLinks) {
  sp::Platform p;
  const int h0 = p.add_host({"a", 1e9, 4});
  const int h1 = p.add_host({"b", 2e9, 8});
  const int l0 = p.add_link({"l", 1e8, 1e-4, sp::LinkSharing::kShared});
  EXPECT_EQ(p.host_count(), 2);
  EXPECT_EQ(p.link_count(), 1);
  EXPECT_EQ(p.find_host("a"), h0);
  EXPECT_EQ(p.find_host("b"), h1);
  EXPECT_EQ(p.find_host("zzz"), -1);
  EXPECT_EQ(p.find_link("l"), l0);
  EXPECT_DOUBLE_EQ(p.host(h1).speed_flops, 2e9);
}

TEST(Platform, RejectsDuplicatesAndBadSpecs) {
  sp::Platform p;
  p.add_host({"a", 1e9, 1});
  EXPECT_THROW(p.add_host({"a", 1e9, 1}), ContractError);
  EXPECT_THROW(p.add_host({"", 1e9, 1}), ContractError);
  EXPECT_THROW(p.add_host({"c", -5, 1}), ContractError);
  EXPECT_THROW(p.add_host({"d", 1e9, 0}), ContractError);
  p.add_link({"l", 1e8, 0, sp::LinkSharing::kShared});
  EXPECT_THROW(p.add_link({"l", 1e8, 0, sp::LinkSharing::kShared}), ContractError);
  EXPECT_THROW(p.add_link({"m", 0, 0, sp::LinkSharing::kShared}), ContractError);
}

TEST(Platform, ParameterOverridesMutateInPlace) {
  sp::Platform p;
  const int h = p.add_host({"a", 1e9, 4});
  const int l = p.add_link({"l", 1e8, 1e-4, sp::LinkSharing::kShared});
  p.set_host_speed(h, 4e9);
  p.set_link_bandwidth(l, 2.5e8);
  p.set_link_latency(l, 5e-5);
  EXPECT_DOUBLE_EQ(p.host(h).speed_flops, 4e9);
  EXPECT_DOUBLE_EQ(p.link(l).bandwidth_bps, 2.5e8);
  EXPECT_DOUBLE_EQ(p.link(l).latency_s, 5e-5);
  // Identity untouched by the override.
  EXPECT_EQ(p.find_host("a"), h);
  EXPECT_EQ(p.find_link("l"), l);
}

TEST(Platform, ParameterOverridesKeepContracts) {
  sp::Platform p;
  const int h = p.add_host({"a", 1e9, 4});
  const int l = p.add_link({"l", 1e8, 1e-4, sp::LinkSharing::kShared});
  EXPECT_THROW(p.set_host_speed(h + 1, 1e9), ContractError);
  EXPECT_THROW(p.set_host_speed(h, 0), ContractError);
  EXPECT_THROW(p.set_link_bandwidth(l + 1, 1e8), ContractError);
  EXPECT_THROW(p.set_link_bandwidth(l, -1), ContractError);
  EXPECT_THROW(p.set_link_latency(l, -1e-6), ContractError);
  EXPECT_THROW(p.set_link_latency(l + 7, 1e-6), ContractError);
}

TEST(Platform, SymmetricRoutesReverseLinkOrder) {
  sp::Platform p;
  p.add_host({"a", 1e9, 1});
  p.add_host({"b", 1e9, 1});
  const int l0 = p.add_link({"l0", 1e8, 1e-4, sp::LinkSharing::kShared});
  const int l1 = p.add_link({"l1", 1e8, 1e-4, sp::LinkSharing::kShared});
  p.add_route(0, 1, {l0, l1});
  EXPECT_EQ(links_of(p.route(0, 1)), (std::vector<int>{l0, l1}));
  EXPECT_EQ(links_of(p.route(1, 0)), (std::vector<int>{l1, l0}));
}

TEST(Platform, MissingRouteThrows) {
  sp::Platform p;
  p.add_host({"a", 1e9, 1});
  p.add_host({"b", 1e9, 1});
  EXPECT_FALSE(p.has_route(0, 1));
  EXPECT_THROW(p.route(0, 1), ContractError);
}

TEST(Platform, RouteToSelfIsEmpty) {
  sp::Platform p;
  p.add_host({"a", 1e9, 1});
  EXPECT_TRUE(p.has_route(0, 0));
  EXPECT_TRUE(p.route(0, 0).empty());
}

TEST(Platform, RouteAggregates) {
  sp::Platform p;
  p.add_host({"a", 1e9, 1});
  p.add_host({"b", 1e9, 1});
  const int fast = p.add_link({"fast", 2e8, 1e-4, sp::LinkSharing::kShared});
  const int slow = p.add_link({"slow", 5e7, 3e-4, sp::LinkSharing::kShared});
  p.add_route(0, 1, {fast, slow});
  EXPECT_DOUBLE_EQ(p.route_latency(0, 1), 4e-4);
  EXPECT_DOUBLE_EQ(p.route_min_bandwidth(0, 1), 5e7);
  EXPECT_EQ(p.route_hop_count(0, 1), 1);
}

TEST(FlatCluster, AllPairsRouted) {
  sp::FlatClusterParams params;
  params.nodes = 5;
  auto p = sp::build_flat_cluster(params);
  EXPECT_EQ(p.host_count(), 5);
  for (int i = 0; i < 5; ++i) {
    for (int j = 0; j < 5; ++j) {
      if (i == j) continue;
      ASSERT_TRUE(p.has_route(i, j));
      EXPECT_EQ(p.route(i, j).size(), 2u);  // up_i, down_j: one switch
      EXPECT_EQ(p.route_hop_count(i, j), 1);
    }
  }
}

TEST(FlatCluster, UplinkIsSharedAcrossDestinations) {
  auto p = sp::build_flat_cluster({});
  // Routes 0->1 and 0->2 must share the first link (node 0's uplink) — this
  // is where endpoint contention comes from.
  EXPECT_EQ(p.route(0, 1)[0], p.route(0, 2)[0]);
  EXPECT_NE(p.route(0, 1)[1], p.route(0, 2)[1]);
}

TEST(Griffon, MatchesPaperDescription) {
  auto p = sp::build_griffon();
  EXPECT_EQ(p.host_count(), 92);  // 33 + 27 + 32
  // Same cabinet: 1 switch.
  EXPECT_EQ(p.route_hop_count(0, 1), 1);
  // Different cabinets: node -> cab switch -> 2nd level -> cab switch -> node.
  const auto params = sp::griffon_params();
  const int cab1_first = sp::first_node_of_cabinet(params, 1);
  EXPECT_EQ(cab1_first, 33);
  EXPECT_EQ(p.route_hop_count(0, cab1_first), 3);
  // The second-level hop runs at 10 GbE.
  const auto& route = p.route(0, cab1_first);
  ASSERT_EQ(route.size(), 4u);
  EXPECT_DOUBLE_EQ(p.link(route[1]).bandwidth_bps, 1.25e9);
  EXPECT_DOUBLE_EQ(p.link(route[0]).bandwidth_bps, 125e6);
}

TEST(Gdx, MatchesPaperDescription) {
  auto p = sp::build_gdx();
  EXPECT_EQ(p.host_count(), 312);
  const auto params = sp::gdx_params();
  // Two cabinets share a switch: nodes of cabinet 0 and 1 cross 1 switch.
  const int cab1_first = sp::first_node_of_cabinet(params, 1);
  EXPECT_EQ(p.route_hop_count(0, cab1_first), 1);
  // Distant cabinets (different switch groups) cross 3 switches.
  const int cab2_first = sp::first_node_of_cabinet(params, 2);
  EXPECT_EQ(p.route_hop_count(0, cab2_first), 3);
  // gdx's second level is plain GbE (the paper's "Ethernet 1 Gigabit links").
  const auto& route = p.route(0, cab2_first);
  ASSERT_EQ(route.size(), 4u);
  EXPECT_DOUBLE_EQ(p.link(route[1]).bandwidth_bps, 125e6);
}

TEST(HierarchicalCluster, RejectsEmpty) {
  sp::HierarchicalClusterParams params;
  EXPECT_THROW(sp::build_hierarchical_cluster(params), ContractError);
}

TEST(HierarchicalCluster, FirstNodeOfCabinetValidatesRange) {
  const auto params = sp::griffon_params();
  EXPECT_EQ(sp::first_node_of_cabinet(params, 0), 0);
  EXPECT_EQ(sp::first_node_of_cabinet(params, 2), 60);
  EXPECT_THROW(sp::first_node_of_cabinet(params, 3), ContractError);
}

// --- Structural routing vs the all-pairs table ----------------------------
//
// The reference builders below materialize every route into the explicit
// table, exactly as the builders did before cluster zones existed (same
// host/link creation order, so the link ids agree). The zone-routed platform
// must answer every route query identically, bit for bit.

namespace {

sp::Platform reference_flat_cluster(const sp::FlatClusterParams& params) {
  sp::Platform p;
  std::vector<int> up(static_cast<std::size_t>(params.nodes));
  std::vector<int> down(static_cast<std::size_t>(params.nodes));
  for (int i = 0; i < params.nodes; ++i) {
    const std::string id = params.prefix + std::to_string(i);
    p.add_host({id, params.speed_flops, params.cores});
    up[static_cast<std::size_t>(i)] = p.add_link(
        {"up-" + id, params.link_bandwidth_bps, params.link_latency_s, sp::LinkSharing::kShared});
    down[static_cast<std::size_t>(i)] = p.add_link(
        {"down-" + id, params.link_bandwidth_bps, params.link_latency_s, sp::LinkSharing::kShared});
  }
  for (int i = 0; i < params.nodes; ++i) {
    for (int j = 0; j < params.nodes; ++j) {
      if (i == j) continue;
      p.add_route(i, j, {up[static_cast<std::size_t>(i)], down[static_cast<std::size_t>(j)]},
                  /*symmetric=*/false);
    }
  }
  return p;
}

sp::Platform reference_hierarchical_cluster(const sp::HierarchicalClusterParams& params) {
  sp::Platform p;
  std::vector<int> up, down, node_switch;
  const int cabinets = static_cast<int>(params.cabinet_sizes.size());
  for (int cab = 0; cab < cabinets; ++cab) {
    for (int k = 0; k < params.cabinet_sizes[static_cast<std::size_t>(cab)]; ++k) {
      const std::string id = params.prefix + std::to_string(up.size());
      p.add_host({id, params.speed_flops, params.cores});
      up.push_back(p.add_link(
          {"up-" + id, params.node_bandwidth_bps, params.node_latency_s, sp::LinkSharing::kShared}));
      down.push_back(p.add_link({"down-" + id, params.node_bandwidth_bps, params.node_latency_s,
                                 sp::LinkSharing::kShared}));
      node_switch.push_back(cab / params.cabinets_per_switch);
    }
  }
  const int switches = (cabinets + params.cabinets_per_switch - 1) / params.cabinets_per_switch;
  std::vector<int> sw_up, sw_down;
  for (int s = 0; s < switches; ++s) {
    sw_up.push_back(p.add_link({"swup-" + std::to_string(s), params.uplink_bandwidth_bps,
                                params.uplink_latency_s, sp::LinkSharing::kShared}));
    sw_down.push_back(p.add_link({"swdown-" + std::to_string(s), params.uplink_bandwidth_bps,
                                  params.uplink_latency_s, sp::LinkSharing::kShared}));
  }
  const int n = static_cast<int>(up.size());
  for (int i = 0; i < n; ++i) {
    for (int j = 0; j < n; ++j) {
      if (i == j) continue;
      const auto a = static_cast<std::size_t>(i);
      const auto b = static_cast<std::size_t>(j);
      const auto si = static_cast<std::size_t>(node_switch[a]);
      const auto sj = static_cast<std::size_t>(node_switch[b]);
      if (si == sj) {
        p.add_route(i, j, {up[a], down[b]}, /*symmetric=*/false);
      } else {
        p.add_route(i, j, {up[a], sw_up[si], sw_down[sj], down[b]}, /*symmetric=*/false);
      }
    }
  }
  return p;
}

// Every route query, every ordered pair (self pairs included).
void expect_same_routing(const sp::Platform& reference, const sp::Platform& zoned) {
  ASSERT_EQ(reference.host_count(), zoned.host_count());
  ASSERT_EQ(reference.link_count(), zoned.link_count());
  for (int i = 0; i < reference.host_count(); ++i) {
    for (int j = 0; j < reference.host_count(); ++j) {
      SCOPED_TRACE("pair " + std::to_string(i) + " -> " + std::to_string(j));
      ASSERT_EQ(reference.has_route(i, j), zoned.has_route(i, j));
      if (!reference.has_route(i, j)) {
        EXPECT_THROW(zoned.route(i, j), ContractError);
        continue;
      }
      ASSERT_EQ(links_of(reference.route(i, j)), links_of(zoned.route(i, j)));
      // Bitwise: same links summed in the same order.
      EXPECT_EQ(reference.route_latency(i, j), zoned.route_latency(i, j));
      if (i != j) {
        EXPECT_EQ(reference.route_min_bandwidth(i, j), zoned.route_min_bandwidth(i, j));
      }
      EXPECT_EQ(reference.route_hop_count(i, j), zoned.route_hop_count(i, j));
    }
  }
}

}  // namespace

TEST(StructuralRouting, FlatClusterMatchesAllPairsTable) {
  for (const int nodes : {1, 2, 37}) {
    SCOPED_TRACE("nodes=" + std::to_string(nodes));
    sp::FlatClusterParams params;
    params.nodes = nodes;
    const auto zoned = sp::build_flat_cluster(params);
    EXPECT_EQ(zoned.explicit_route_count(), 0u);
    expect_same_routing(reference_flat_cluster(params), zoned);
  }
}

TEST(StructuralRouting, GriffonMatchesAllPairsTable) {
  const auto zoned = sp::build_griffon();
  EXPECT_EQ(zoned.explicit_route_count(), 0u);
  expect_same_routing(reference_hierarchical_cluster(sp::griffon_params()), zoned);
}

TEST(StructuralRouting, GdxMatchesAllPairsTable) {
  const auto zoned = sp::build_gdx();
  EXPECT_EQ(zoned.explicit_route_count(), 0u);
  expect_same_routing(reference_hierarchical_cluster(sp::gdx_params()), zoned);
}

TEST(StructuralRouting, XmlClusterWithExplicitRoutesMatchesExpansion) {
  // A <cluster> plus explicit routes: one from an outside host into the
  // cluster (symmetric), one overriding a cluster pair with a route longer
  // than the inline capacity. The outside host reaches only c-0, so most of
  // its pairs have no route at all.
  const std::string head = R"(<platform version="4">
    <host id="gw" speed="1Gf"/>
    <link id="bb" bandwidth="1GBps" latency="10us"/>
    <link id="slow" bandwidth="10MBps" latency="1ms"/>
)";
  const std::string tail = R"(
    <route src="gw" dst="c-0"><link_ctn id="bb"/><link_ctn id="down-c-0"/></route>
    <route src="c-1" dst="c-2" symmetric="NO">
      <link_ctn id="up-c-1"/><link_ctn id="slow"/><link_ctn id="bb"/>
      <link_ctn id="slow"/><link_ctn id="down-c-2"/>
    </route>
  </platform>)";
  const auto zoned = sp::load_platform_from_string(
      head +
      R"(<cluster id="c" prefix="c-" radical="0-5" speed="10Gf" cores="2" bw="125MBps" lat="50us"/>)" +
      tail);
  EXPECT_EQ(zoned.explicit_route_count(), 3u);  // gw<->c-0 and c-1->c-2

  // The reference spells the cluster out the old way: hosts, links and one
  // explicit route per ordered pair, in the loader's creation order.
  std::string expansion;
  for (int k = 0; k <= 5; ++k) {
    const std::string id = "c-" + std::to_string(k);
    expansion += "<host id=\"" + id + "\" speed=\"10Gf\" cores=\"2\"/>";
    expansion += "<link id=\"up-" + id + "\" bandwidth=\"125MBps\" latency=\"50us\"/>";
    expansion += "<link id=\"down-" + id + "\" bandwidth=\"125MBps\" latency=\"50us\"/>";
  }
  for (int i = 0; i <= 5; ++i) {
    for (int j = 0; j <= 5; ++j) {
      if (i == j) continue;
      expansion += "<route src=\"c-" + std::to_string(i) + "\" dst=\"c-" + std::to_string(j) +
                   "\" symmetric=\"NO\"><link_ctn id=\"up-c-" + std::to_string(i) +
                   "\"/><link_ctn id=\"down-c-" + std::to_string(j) + "\"/></route>";
    }
  }
  const auto reference = sp::load_platform_from_string(head + expansion + tail);
  expect_same_routing(reference, zoned);

  // Explicit wins: the overridden pair takes the five-link route, its
  // reverse keeps the cluster route.
  const int c1 = zoned.find_host("c-1");
  const int c2 = zoned.find_host("c-2");
  EXPECT_EQ(zoned.route(c1, c2).size(), 5u);
  EXPECT_EQ(links_of(zoned.route(c2, c1)),
            (std::vector<int>{zoned.find_link("up-c-2"), zoned.find_link("down-c-1")}));
}

TEST(StructuralRouting, LargeFlatClusterStoresNoRoutes) {
  sp::FlatClusterParams params;
  params.nodes = 16384;
  const auto p = sp::build_flat_cluster(params);
  EXPECT_EQ(p.explicit_route_count(), 0u);
  EXPECT_EQ(links_of(p.route(0, 16383)),
            (std::vector<int>{p.find_link("up-node-0"), p.find_link("down-node-16383")}));
}

TEST(StructuralRouting, ZoneContractsAreChecked) {
  sp::Platform p;
  p.add_host({"a", 1e9, 1});
  p.add_host({"b", 1e9, 1});
  const int l = p.add_link({"l", 1e8, 1e-4, sp::LinkSharing::kShared});
  sp::ClusterZone beyond_hosts;
  beyond_hosts.first_host = 1;
  beyond_hosts.up = beyond_hosts.down = {l, l};
  EXPECT_THROW(p.add_cluster_zone(beyond_hosts), ContractError);
  sp::ClusterZone unknown_link;
  unknown_link.up = {l, l + 1};
  unknown_link.down = {l, l};
  EXPECT_THROW(p.add_cluster_zone(unknown_link), ContractError);
  sp::ClusterZone bad_group;
  bad_group.up = bad_group.down = {l, l};
  bad_group.group = {0, 1};
  bad_group.swup = bad_group.swdown = {l};
  EXPECT_THROW(p.add_cluster_zone(bad_group), ContractError);
  sp::ClusterZone ok;
  ok.up = ok.down = {l, l};
  p.add_cluster_zone(ok);
  EXPECT_TRUE(p.has_route(0, 1));
  EXPECT_THROW(p.add_cluster_zone(ok), ContractError);  // overlaps
}
