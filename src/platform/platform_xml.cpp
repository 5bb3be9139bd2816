#include "platform/platform_xml.hpp"

#include "platform/builders.hpp"
#include "util/check.hpp"
#include "util/units.hpp"

namespace smpi::platform {
namespace {

LinkSharing parse_sharing(const std::string& text, int line) {
  if (text == "SHARED" || text == "shared") return LinkSharing::kShared;
  if (text == "FATPIPE" || text == "fatpipe") return LinkSharing::kFatpipe;
  throw XmlError("unknown link sharing policy '" + text + "'", line);
}

void expand_cluster(Platform& p, const XmlElement& el) {
  const std::string prefix = el.attribute_or("prefix", el.attribute("id") + "-");
  const std::string suffix = el.attribute_or("suffix", "");
  const auto ids = parse_radical(el.attribute("radical"));
  const double speed = smpi::util::parse_flops(el.attribute("speed"));
  const int cores = std::stoi(el.attribute_or("cores", "1"));
  const double bw = smpi::util::parse_bandwidth(el.attribute("bw"));
  const double lat = smpi::util::parse_duration(el.attribute("lat"));

  if (ids.empty()) return;
  // add_host hands out consecutive ids, so the cluster's hosts form one zone.
  const int n = static_cast<int>(ids.size());
  p.reserve(p.host_count() + n, p.link_count() + 2 * n);
  ClusterZone zone;
  zone.first_host = p.host_count();
  for (int id : ids) {
    const std::string name = prefix + std::to_string(id) + suffix;
    p.add_host({name, speed, cores});
    zone.up.push_back(p.add_link({"up-" + name, bw, lat, LinkSharing::kShared}));
    zone.down.push_back(p.add_link({"down-" + name, bw, lat, LinkSharing::kShared}));
  }
  p.add_cluster_zone(std::move(zone));
}

}  // namespace

std::vector<int> parse_radical(const std::string& text) {
  std::vector<int> out;
  std::size_t pos = 0;
  while (pos < text.size()) {
    auto comma = text.find(',', pos);
    if (comma == std::string::npos) comma = text.size();
    const std::string chunk = text.substr(pos, comma - pos);
    SMPI_REQUIRE(!chunk.empty(), "empty radical chunk in '" + text + "'");
    const auto dash = chunk.find('-');
    if (dash == std::string::npos) {
      out.push_back(std::stoi(chunk));
    } else {
      const int lo = std::stoi(chunk.substr(0, dash));
      const int hi = std::stoi(chunk.substr(dash + 1));
      SMPI_REQUIRE(lo <= hi, "descending radical range in '" + text + "'");
      for (int v = lo; v <= hi; ++v) out.push_back(v);
    }
    pos = comma + 1;
  }
  return out;
}

Platform load_platform(const XmlElement& root) {
  if (root.name != "platform") {
    throw XmlError("root element must be <platform>, got <" + root.name + ">", root.line);
  }
  Platform p;
  for (const auto& child : root.children) {
    const XmlElement& el = *child;
    if (el.name == "host") {
      HostSpec spec;
      spec.name = el.attribute("id");
      spec.speed_flops = smpi::util::parse_flops(el.attribute("speed"));
      spec.cores = std::stoi(el.attribute_or("cores", "1"));
      p.add_host(std::move(spec));
    } else if (el.name == "link") {
      LinkSpec spec;
      spec.name = el.attribute("id");
      spec.bandwidth_bps = smpi::util::parse_bandwidth(el.attribute("bandwidth"));
      spec.latency_s = smpi::util::parse_duration(el.attribute("latency"));
      spec.sharing = parse_sharing(el.attribute_or("sharing", "SHARED"), el.line);
      p.add_link(std::move(spec));
    } else if (el.name == "route") {
      const int src = p.find_host(el.attribute("src"));
      const int dst = p.find_host(el.attribute("dst"));
      if (src < 0) throw XmlError("route src '" + el.attribute("src") + "' unknown", el.line);
      if (dst < 0) throw XmlError("route dst '" + el.attribute("dst") + "' unknown", el.line);
      const bool symmetric = el.attribute_or("symmetric", "YES") != "NO";
      std::vector<int> links;
      for (const auto* ctn : el.children_named("link_ctn")) {
        const int link = p.find_link(ctn->attribute("id"));
        if (link < 0) throw XmlError("link '" + ctn->attribute("id") + "' unknown", ctn->line);
        links.push_back(link);
      }
      if (links.empty()) throw XmlError("route needs at least one <link_ctn>", el.line);
      p.add_route(src, dst, std::move(links), symmetric);
    } else if (el.name == "cluster") {
      expand_cluster(p, el);
    } else {
      throw XmlError("unsupported element <" + el.name + ">", el.line);
    }
  }
  return p;
}

Platform load_platform_from_string(const std::string& document) {
  return load_platform(*parse_xml(document));
}

Platform load_platform_from_file(const std::string& path) {
  return load_platform(*parse_xml_file(path));
}

}  // namespace smpi::platform
