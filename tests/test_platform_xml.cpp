#include "platform/platform_xml.hpp"

#include <gtest/gtest.h>

#include "platform/xml.hpp"
#include "util/check.hpp"

namespace sp = smpi::platform;

TEST(Xml, ParsesElementsAttributesAndText) {
  auto root = sp::parse_xml(R"(<?xml version="1.0"?>
<!-- a comment -->
<root version="4">
  <child name="a" value='1'/>
  <child name="b">text &amp; more</child>
</root>)");
  EXPECT_EQ(root->name, "root");
  EXPECT_EQ(root->attribute("version"), "4");
  const auto children = root->children_named("child");
  ASSERT_EQ(children.size(), 2u);
  EXPECT_EQ(children[0]->attribute("name"), "a");
  EXPECT_EQ(children[1]->text, "text & more");
}

TEST(Xml, EntitiesDecode) {
  auto root = sp::parse_xml(R"(<r a="&lt;x&gt;&quot;&apos;"/>)");
  EXPECT_EQ(root->attribute("a"), "<x>\"'");
}

TEST(Xml, NestedElements) {
  auto root = sp::parse_xml("<a><b><c deep=\"yes\"/></b></a>");
  ASSERT_EQ(root->children.size(), 1u);
  ASSERT_EQ(root->children[0]->children.size(), 1u);
  EXPECT_EQ(root->children[0]->children[0]->attribute("deep"), "yes");
}

TEST(Xml, DoctypeAndProcessingInstructionsSkipped) {
  auto root = sp::parse_xml("<?xml version=\"1.0\"?><!DOCTYPE platform SYSTEM "
                            "\"http://example.org/simgrid.dtd\"><p/>");
  EXPECT_EQ(root->name, "p");
}

TEST(Xml, ErrorsCarryLineNumbers) {
  try {
    sp::parse_xml("<a>\n<b>\n</c>\n</a>");
    FAIL() << "expected XmlError";
  } catch (const sp::XmlError& e) {
    EXPECT_EQ(e.line(), 3);
  }
}

TEST(Xml, RejectsTrailingContent) { EXPECT_THROW(sp::parse_xml("<a/><b/>"), sp::XmlError); }

TEST(Xml, RejectsMissingAttributeOnAccess) {
  auto root = sp::parse_xml("<a/>");
  EXPECT_THROW(root->attribute("nope"), sp::XmlError);
  EXPECT_EQ(root->attribute_or("nope", "dflt"), "dflt");
}

TEST(Radical, ParsesRangesAndLists) {
  EXPECT_EQ(sp::parse_radical("0-3"), (std::vector<int>{0, 1, 2, 3}));
  EXPECT_EQ(sp::parse_radical("5"), (std::vector<int>{5}));
  EXPECT_EQ(sp::parse_radical("0-1,4,7-8"), (std::vector<int>{0, 1, 4, 7, 8}));
  EXPECT_THROW(sp::parse_radical("5-2"), smpi::util::ContractError);
}

// A bad number names the radical it sits in instead of the bare `stoi`.
TEST(Radical, RejectsNonNumericAndOutOfRangeBounds) {
  for (const std::string& text : {std::string("a-3"), std::string("0-x"), std::string("1,z"),
                                  std::string("0-99999999999"), std::string("3.5")}) {
    SCOPED_TRACE(text);
    try {
      sp::parse_radical(text);
      ADD_FAILURE() << "radical accepted";
    } catch (const smpi::util::ContractError& e) {
      EXPECT_NE(std::string(e.what()).find("radical '" + text + "'"), std::string::npos)
          << e.what();
    }
  }
}

namespace {
constexpr const char* kPlatformDoc = R"(<?xml version="1.0"?>
<platform version="4">
  <host id="n0" speed="1Gf" cores="4"/>
  <host id="n1" speed="2Gf"/>
  <link id="l0" bandwidth="1Gbps" latency="50us"/>
  <link id="bb" bandwidth="10Gbps" latency="20us" sharing="FATPIPE"/>
  <route src="n0" dst="n1">
    <link_ctn id="l0"/>
    <link_ctn id="bb"/>
  </route>
</platform>)";
}  // namespace

TEST(PlatformXml, LoadsHostsLinksRoutes) {
  auto p = sp::load_platform_from_string(kPlatformDoc);
  EXPECT_EQ(p.host_count(), 2);
  EXPECT_EQ(p.link_count(), 2);
  EXPECT_DOUBLE_EQ(p.host(p.find_host("n0")).speed_flops, 1e9);
  EXPECT_EQ(p.host(p.find_host("n0")).cores, 4);
  EXPECT_EQ(p.host(p.find_host("n1")).cores, 1);  // default
  EXPECT_DOUBLE_EQ(p.link(p.find_link("l0")).bandwidth_bps, 125e6);
  EXPECT_EQ(p.link(p.find_link("bb")).sharing, sp::LinkSharing::kFatpipe);
  ASSERT_TRUE(p.has_route(0, 1));
  EXPECT_EQ(p.route(0, 1).size(), 2u);
  // symmetric by default, reversed order
  EXPECT_EQ(p.route(1, 0).front(), p.find_link("bb"));
}

TEST(PlatformXml, ClusterElementExpands) {
  auto p = sp::load_platform_from_string(R"(<platform version="4">
    <cluster id="c" prefix="node-" radical="0-7" speed="1Gf" cores="2"
             bw="1Gbps" lat="50us"/>
  </platform>)");
  EXPECT_EQ(p.host_count(), 8);
  EXPECT_NE(p.find_host("node-0"), -1);
  EXPECT_NE(p.find_host("node-7"), -1);
  EXPECT_TRUE(p.has_route(0, 7));
  EXPECT_EQ(p.route_hop_count(0, 7), 1);
}

TEST(PlatformXml, BadCoreCountNamesTheAttribute) {
  for (const std::string& cores : {std::string("four"), std::string("99999999999")}) {
    SCOPED_TRACE(cores);
    for (const std::string& element :
         {R"(<host id="n0" speed="1Gf" cores=")" + cores + R"("/>)",
          R"(<cluster id="c" radical="0-1" speed="1Gf" bw="1Gbps" lat="50us" cores=")" + cores +
              R"("/>)"}) {
      try {
        sp::load_platform_from_string(R"(<platform version="4">)" + element + "</platform>");
        ADD_FAILURE() << "cores accepted";
      } catch (const smpi::util::ContractError& e) {
        EXPECT_EQ(std::string(e.what()).rfind("cores: '" + cores + "'", 0), 0u) << e.what();
      }
    }
  }
}

TEST(PlatformXml, UnknownRouteEndpointFails) {
  EXPECT_THROW(sp::load_platform_from_string(R"(<platform version="4">
    <host id="n0" speed="1Gf"/>
    <link id="l0" bandwidth="1Gbps" latency="50us"/>
    <route src="n0" dst="ghost"><link_ctn id="l0"/></route>
  </platform>)"),
               sp::XmlError);
}

TEST(PlatformXml, RouteWithoutLinksFails) {
  EXPECT_THROW(sp::load_platform_from_string(R"(<platform version="4">
    <host id="n0" speed="1Gf"/>
    <host id="n1" speed="1Gf"/>
    <route src="n0" dst="n1"/>
  </platform>)"),
               sp::XmlError);
}

TEST(PlatformXml, UnsupportedElementFails) {
  EXPECT_THROW(sp::load_platform_from_string("<platform><flux capacitor=\"1\"/></platform>"),
               sp::XmlError);
}

TEST(PlatformXml, NonPlatformRootFails) {
  EXPECT_THROW(sp::load_platform_from_string("<cluster/>"), sp::XmlError);
}
