// Platform build cost: flat and hierarchical cluster builders from 256 to
// 16384 hosts. Cluster routing is structural (platform::ClusterZone), so a
// build must cost O(hosts) time and memory; a stored all-pairs route table
// would grow 4x per doubling and could not build 16384 hosts at all.
//
//   BENCH_platform.json records (one per builder and size):
//     op      platform_build_flat | platform_build_hierarchical
//     n       hosts
//     wall_ns min build time over the repetitions (what the gates read)
//     reps, min_ns, median_ns, spread       build time statistics
//     rss_min_mb, rss_median_mb, rss_spread resident-set growth while the
//                                           built platform is alive
//   spread = (max - min) / median over the repetitions.
//
// Repetitions are interleaved: each round builds every (builder, size) once,
// so a burst of host noise lands on all sizes alike instead of on all
// repetitions of one size, and the per-size minimums stay comparable.
//
// tools/bench_trend.py gates the machine-independent invariant: for each
// builder, t(2N) / t(N) <= 2.5 on the min over repetitions. The absolute
// fresh-vs-baseline tripwire applies per series as usual.
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <functional>
#include <string>
#include <vector>

#if defined(__GLIBC__)
#include <malloc.h>
#endif

#include "bench_json.hpp"
#include "platform/builders.hpp"
#include "util/check.hpp"
#include "util/stats.hpp"

namespace {

constexpr int kReps = 15;

double rss_mb() {
  long pages = 0, resident = 0;
  std::FILE* f = std::fopen("/proc/self/statm", "r");
  if (f == nullptr) return 0;
  if (std::fscanf(f, "%ld %ld", &pages, &resident) != 2) resident = 0;
  std::fclose(f);
  return static_cast<double>(resident) * static_cast<double>(sysconf(_SC_PAGESIZE)) /
         (1024.0 * 1024.0);
}

// Hand freed heap pages back, so every repetition starts from the same
// resident set and its growth is the platform's own.
void release_free_memory() {
#if defined(__GLIBC__)
  malloc_trim(0);
#endif
}

struct Stats {
  double min = 0, median = 0, spread = 0;
};

Stats stats_of(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  Stats s;
  s.min = values.front();
  s.median = smpi::util::quantile_sorted(values, 0.5);
  s.spread = s.median > 0 ? (values.back() - values.front()) / s.median : 0;
  return s;
}

using Builder = std::function<smpi::platform::Platform(int hosts)>;

struct Series {
  const char* op;
  int hosts;
  Builder build;
  std::vector<double> wall_ns;
  std::vector<double> rss_delta_mb;
};

void measure_once(Series& series) {
  release_free_memory();
  const double rss_before = rss_mb();
  const auto start = std::chrono::steady_clock::now();
  const auto platform = series.build(series.hosts);
  const auto stop = std::chrono::steady_clock::now();
  series.rss_delta_mb.push_back(rss_mb() - rss_before);
  series.wall_ns.push_back(std::chrono::duration<double, std::nano>(stop - start).count());
  SMPI_ENSURE(platform.host_count() == series.hosts, "builder produced the wrong host count");
  SMPI_ENSURE(platform.explicit_route_count() == 0, "generated platform stored routes");
}

void report(bench::JsonWriter& json, const Series& series) {
  const Stats t = stats_of(series.wall_ns);
  const Stats m = stats_of(series.rss_delta_mb);
  std::printf("%-28s %6d %10.3fms %10.3fms %7.2f %9.2fMiB %9.2fMiB\n", series.op, series.hosts,
              t.min / 1e6, t.median / 1e6, t.spread, m.min, m.median);
  json.add(series.op, series.hosts, t.min,
           {{"reps", kReps},
            {"min_ns", t.min},
            {"median_ns", t.median},
            {"spread", t.spread},
            {"rss_min_mb", m.min},
            {"rss_median_mb", m.median},
            {"rss_spread", m.spread}});
}

}  // namespace

int main() {
  bench::JsonWriter json("BENCH_platform.json");
  std::printf("%-28s %6s %12s %12s %7s %12s %12s\n", "builder", "hosts", "min", "median",
              "spread", "rss min", "rss median");

  const Builder flat = [](int hosts) {
    smpi::platform::FlatClusterParams params;  // smpirun --cluster N defaults
    params.nodes = hosts;
    return smpi::platform::build_flat_cluster(params);
  };
  // gdx-shaped: 32-host cabinets, two cabinets per first-level switch.
  const Builder hierarchical = [](int hosts) {
    auto params = smpi::platform::gdx_params();
    params.cabinet_sizes.assign(static_cast<std::size_t>(hosts / 32), 32);
    return smpi::platform::build_hierarchical_cluster(params);
  };

  std::vector<Series> all;
  for (const auto& [op, build] : {std::make_pair("platform_build_flat", flat),
                                  std::make_pair("platform_build_hierarchical", hierarchical)}) {
    for (int hosts = 256; hosts <= 16384; hosts *= 2) all.push_back({op, hosts, build, {}, {}});
  }
  for (int round = 0; round < kReps; ++round) {
    for (Series& series : all) measure_once(series);
  }
  for (const Series& series : all) report(json, series);
  json.save();
  return 0;
}
