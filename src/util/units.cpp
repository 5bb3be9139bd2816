#include "util/units.hpp"

#include <cctype>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <type_traits>

#include "util/check.hpp"

namespace smpi::util {
namespace {

struct NumberSuffix {
  double value;
  std::string suffix;  // lower-cased, whitespace-stripped
};

NumberSuffix split_number(const std::string& text) {
  SMPI_REQUIRE(!text.empty(), "empty unit string");
  std::size_t pos = 0;
  char* end = nullptr;
  const double value = std::strtod(text.c_str(), &end);
  SMPI_REQUIRE(end != text.c_str(), "no numeric prefix in '" + text + "'");
  pos = static_cast<std::size_t>(end - text.c_str());
  std::string suffix;
  for (; pos < text.size(); ++pos) {
    if (!std::isspace(static_cast<unsigned char>(text[pos]))) {
      suffix.push_back(static_cast<char>(std::tolower(static_cast<unsigned char>(text[pos]))));
    }
  }
  return {value, suffix};
}

}  // namespace

template <typename T>
T parse_number(const std::string& text, const std::string& what) {
  constexpr bool kInteger = std::is_integral_v<T>;
  T value{};
  const char* last = text.data() + text.size();
  const auto [end, error] = std::from_chars(text.data(), last, value);
  if (error == std::errc::result_out_of_range) {
    throw ContractError(what + ": '" + text + "' is out of range");
  }
  if (error != std::errc() || end != last || !(kInteger || std::isfinite(value))) {
    throw ContractError(what + ": '" + text + "' is not " +
                        (kInteger ? "an integer" : "a number"));
  }
  return value;
}

template int parse_number<int>(const std::string&, const std::string&);
template long long parse_number<long long>(const std::string&, const std::string&);
template double parse_number<double>(const std::string&, const std::string&);

std::uint64_t parse_bytes(const std::string& text) {
  const auto [value, suffix] = split_number(text);
  double mult = 1;
  if (suffix.empty() || suffix == "b") {
    mult = 1;
  } else if (suffix == "kib") {
    mult = 1024.0;
  } else if (suffix == "mib") {
    mult = 1024.0 * 1024;
  } else if (suffix == "gib") {
    mult = 1024.0 * 1024 * 1024;
  } else if (suffix == "kb") {
    mult = 1e3;
  } else if (suffix == "mb") {
    mult = 1e6;
  } else if (suffix == "gb") {
    mult = 1e9;
  } else {
    SMPI_REQUIRE(false, "unknown byte suffix in '" + text + "'");
  }
  SMPI_REQUIRE(value >= 0, "negative byte count");
  return static_cast<std::uint64_t>(std::llround(value * mult));
}

double parse_bandwidth(const std::string& text) {
  const auto [value, suffix] = split_number(text);
  SMPI_REQUIRE(value >= 0, "negative bandwidth");
  if (suffix == "bps") return value / 8.0;
  if (suffix == "kbps") return value * 1e3 / 8.0;
  if (suffix == "mbps") return value * 1e6 / 8.0;
  if (suffix == "gbps") return value * 1e9 / 8.0;
  if (suffix.empty() || suffix == "bps" || suffix == "b/s") return value / 8.0;
  if (suffix == "byteps" || suffix == "bytes" ) return value;
  if (suffix == "kbyteps" || suffix == "kbps8") return value * 1e3;
  if (suffix == "kibps") return value * 1024.0;  // kibibytes/s (SimGrid-style)
  if (suffix == "mibps") return value * 1024.0 * 1024;
  if (suffix == "gibps") return value * 1024.0 * 1024 * 1024;
  if (suffix == "mbyteps") return value * 1e6;
  if (suffix == "gbyteps") return value * 1e9;
  SMPI_REQUIRE(false, "unknown bandwidth suffix in '" + text + "'");
  return 0;
}

double parse_duration(const std::string& text) {
  const auto [value, suffix] = split_number(text);
  SMPI_REQUIRE(value >= 0, "negative duration");
  if (suffix.empty() || suffix == "s") return value;
  if (suffix == "ms") return value * 1e-3;
  if (suffix == "us" || suffix == "µs") return value * 1e-6;
  if (suffix == "ns") return value * 1e-9;
  if (suffix == "min") return value * 60;
  SMPI_REQUIRE(false, "unknown duration suffix in '" + text + "'");
  return 0;
}

double parse_flops(const std::string& text) {
  const auto [value, suffix] = split_number(text);
  SMPI_REQUIRE(value >= 0, "negative flops");
  if (suffix.empty() || suffix == "f" || suffix == "flops") return value;
  if (suffix == "kf" || suffix == "kflops") return value * 1e3;
  if (suffix == "mf" || suffix == "mflops") return value * 1e6;
  if (suffix == "gf" || suffix == "gflops") return value * 1e9;
  if (suffix == "tf" || suffix == "tflops") return value * 1e12;
  SMPI_REQUIRE(false, "unknown flops suffix in '" + text + "'");
  return 0;
}

std::string format_bytes(std::uint64_t bytes) {
  char buf[64];
  const double b = static_cast<double>(bytes);
  if (bytes >= (1ULL << 30)) {
    std::snprintf(buf, sizeof buf, "%.1fGiB", b / (1ULL << 30));
  } else if (bytes >= (1ULL << 20)) {
    std::snprintf(buf, sizeof buf, "%.1fMiB", b / (1ULL << 20));
  } else if (bytes >= 1024) {
    std::snprintf(buf, sizeof buf, "%.1fKiB", b / 1024.0);
  } else {
    std::snprintf(buf, sizeof buf, "%lluB", static_cast<unsigned long long>(bytes));
  }
  return buf;
}

std::string format_duration(double seconds) {
  char buf[64];
  if (seconds >= 1.0) {
    std::snprintf(buf, sizeof buf, "%.3fs", seconds);
  } else if (seconds >= 1e-3) {
    std::snprintf(buf, sizeof buf, "%.3fms", seconds * 1e3);
  } else if (seconds >= 1e-6) {
    std::snprintf(buf, sizeof buf, "%.3fus", seconds * 1e6);
  } else {
    std::snprintf(buf, sizeof buf, "%.1fns", seconds * 1e9);
  }
  return buf;
}

std::string format_rate(double bytes_per_second) {
  char buf[64];
  if (bytes_per_second >= double{1ULL << 30}) {
    std::snprintf(buf, sizeof buf, "%.1fGiB/s", bytes_per_second / double{1ULL << 30});
  } else if (bytes_per_second >= double{1ULL << 20}) {
    std::snprintf(buf, sizeof buf, "%.1fMiB/s", bytes_per_second / double{1ULL << 20});
  } else if (bytes_per_second >= 1024.0) {
    std::snprintf(buf, sizeof buf, "%.1fKiB/s", bytes_per_second / 1024.0);
  } else {
    std::snprintf(buf, sizeof buf, "%.1fB/s", bytes_per_second);
  }
  return buf;
}

}  // namespace smpi::util
