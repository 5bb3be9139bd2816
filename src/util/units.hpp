// Unit parsing and formatting: byte sizes ("64KiB"), rates ("1Gbps",
// "125MBps"), durations ("50us"). Used by the platform XML parser and the
// bench table printers. Plain numbers (command-line options, XML counts)
// go through parse_number.
#pragma once

#include <cstdint>
#include <string>

namespace smpi::util {

// The whole of `text` as a decimal T (int, long long or finite double).
// Throws ContractError naming `what` (an option or attribute) when text is
// not such a number or does not fit in T: "--np: 'abc' is not an integer".
template <typename T>
T parse_number(const std::string& text, const std::string& what);

// "64KiB" -> 65536; accepts B, KiB, MiB, GiB, KB, MB, GB (decimal) and bare
// numbers. Throws ContractError on malformed input.
std::uint64_t parse_bytes(const std::string& text);

// "1Gbps" (bits/s) or "125MBps" (bytes/s) -> bytes per second.
double parse_bandwidth(const std::string& text);

// "50us", "1.5ms", "2s" -> seconds.
double parse_duration(const std::string& text);

// "1Gf", "2.5Gf", "1e9f" -> flops (floating point operations).
double parse_flops(const std::string& text);

std::string format_bytes(std::uint64_t bytes);     // "4.0MiB"
std::string format_duration(double seconds);       // "1.234ms"
std::string format_rate(double bytes_per_second);  // "117.7MiB/s"

}  // namespace smpi::util
