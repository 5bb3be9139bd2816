#include "util/units.hpp"

#include <gtest/gtest.h>

#include <string>

#include "util/check.hpp"

namespace su = smpi::util;

TEST(ParseBytes, BinaryAndDecimalSuffixes) {
  EXPECT_EQ(su::parse_bytes("0"), 0u);
  EXPECT_EQ(su::parse_bytes("512"), 512u);
  EXPECT_EQ(su::parse_bytes("512B"), 512u);
  EXPECT_EQ(su::parse_bytes("1KiB"), 1024u);
  EXPECT_EQ(su::parse_bytes("64KiB"), 65536u);
  EXPECT_EQ(su::parse_bytes("4MiB"), 4u * 1024 * 1024);
  EXPECT_EQ(su::parse_bytes("2GiB"), 2ull * 1024 * 1024 * 1024);
  EXPECT_EQ(su::parse_bytes("1KB"), 1000u);
  EXPECT_EQ(su::parse_bytes("1MB"), 1000000u);
  EXPECT_EQ(su::parse_bytes("1.5KiB"), 1536u);
}

TEST(ParseBytes, RejectsGarbage) {
  EXPECT_THROW(su::parse_bytes(""), su::ContractError);
  EXPECT_THROW(su::parse_bytes("abc"), su::ContractError);
  EXPECT_THROW(su::parse_bytes("12XiB"), su::ContractError);
}

TEST(ParseBandwidth, BitsAndBytes) {
  EXPECT_DOUBLE_EQ(su::parse_bandwidth("1Gbps"), 125e6);
  EXPECT_DOUBLE_EQ(su::parse_bandwidth("10Gbps"), 1.25e9);
  EXPECT_DOUBLE_EQ(su::parse_bandwidth("100Mbps"), 12.5e6);
  EXPECT_DOUBLE_EQ(su::parse_bandwidth("125MByteps"), 125e6);
  EXPECT_DOUBLE_EQ(su::parse_bandwidth("1MiBps"), 1024.0 * 1024);
}

TEST(ParseDuration, CommonSuffixes) {
  EXPECT_DOUBLE_EQ(su::parse_duration("1s"), 1.0);
  EXPECT_DOUBLE_EQ(su::parse_duration("50us"), 50e-6);
  EXPECT_DOUBLE_EQ(su::parse_duration("1.5ms"), 1.5e-3);
  EXPECT_DOUBLE_EQ(su::parse_duration("2min"), 120.0);
  EXPECT_DOUBLE_EQ(su::parse_duration("3"), 3.0);
}

TEST(ParseFlops, Suffixes) {
  EXPECT_DOUBLE_EQ(su::parse_flops("1Gf"), 1e9);
  EXPECT_DOUBLE_EQ(su::parse_flops("2.5Gf"), 2.5e9);
  EXPECT_DOUBLE_EQ(su::parse_flops("100Mf"), 1e8);
  EXPECT_DOUBLE_EQ(su::parse_flops("7"), 7.0);
}

TEST(ParseNumber, WholeStringValues) {
  EXPECT_EQ(su::parse_number<int>("42", "--np"), 42);
  EXPECT_EQ(su::parse_number<int>("-3", "--np"), -3);
  EXPECT_EQ(su::parse_number<long long>("9007199254740993", "--noise-seed"), 9007199254740993LL);
  EXPECT_DOUBLE_EQ(su::parse_number<double>("0.25", "--sampling"), 0.25);
  EXPECT_DOUBLE_EQ(su::parse_number<double>("1e-3", "--max-sim-time"), 1e-3);
  EXPECT_DOUBLE_EQ(su::parse_number<double>("7", "--timeout"), 7.0);
}

// The message names the option and says what is wrong with the text.
template <typename T>
void expect_rejected(const std::string& text, const std::string& problem) {
  try {
    su::parse_number<T>(text, "--opt");
    ADD_FAILURE() << "accepted '" << text << "'";
  } catch (const su::ContractError& e) {
    EXPECT_EQ(std::string(e.what()), "--opt: '" + text + "' " + problem);
  }
}

TEST(ParseNumber, RejectsNonNumericValuesNamingTheOption) {
  for (const char* text : {"abc", "", " 4", "4 ", "4x", "+4", "1.5", "0x10"}) {
    SCOPED_TRACE(text);
    expect_rejected<int>(text, "is not an integer");
  }
  expect_rejected<long long>("12abc", "is not an integer");
  for (const char* text : {"abc", "", "0.5x", "nan", "inf", "-inf"}) {
    SCOPED_TRACE(text);
    expect_rejected<double>(text, "is not a number");
  }
}

TEST(ParseNumber, RejectsOutOfRangeValuesNamingTheOption) {
  expect_rejected<int>("99999999999", "is out of range");
  expect_rejected<int>("-99999999999", "is out of range");
  expect_rejected<long long>("99999999999999999999", "is out of range");
  expect_rejected<double>("1e999", "is out of range");
}

TEST(Format, RoundTripReadability) {
  EXPECT_EQ(su::format_bytes(512), "512B");
  EXPECT_EQ(su::format_bytes(65536), "64.0KiB");
  EXPECT_EQ(su::format_bytes(4u * 1024 * 1024), "4.0MiB");
  EXPECT_EQ(su::format_duration(0.5), "500.000ms");
  EXPECT_EQ(su::format_duration(2.5e-6), "2.500us");
  EXPECT_EQ(su::format_rate(125e6), "119.2MiB/s");
}
