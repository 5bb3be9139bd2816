#include <gtest/gtest.h>

#include <chrono>
#include <cmath>

#include "apps/dt.hpp"
#include "apps/ep.hpp"
#include "smpi_test_util.hpp"
#include "util/check.hpp"

namespace ap = smpi::apps;
namespace sc = smpi::core;
using namespace smpi_test;

// ---------------------------------------------------------------------------
// DT graph shapes (the paper's process-count table, §7.1.4 & Figures 13-14).
// ---------------------------------------------------------------------------

TEST(DtGraph, ProcessCountsMatchThePaper) {
  using ap::DtClass;
  using ap::DtGraph;
  // WH and BH: 21, 43, 85 processes for classes A, B, C.
  EXPECT_EQ(ap::dt_process_count(DtGraph::kWhiteHole, DtClass::kA), 21);
  EXPECT_EQ(ap::dt_process_count(DtGraph::kWhiteHole, DtClass::kB), 43);
  EXPECT_EQ(ap::dt_process_count(DtGraph::kWhiteHole, DtClass::kC), 85);
  EXPECT_EQ(ap::dt_process_count(DtGraph::kBlackHole, DtClass::kA), 21);
  EXPECT_EQ(ap::dt_process_count(DtGraph::kBlackHole, DtClass::kB), 43);
  EXPECT_EQ(ap::dt_process_count(DtGraph::kBlackHole, DtClass::kC), 85);
  // SH: 80, 192, 448.
  EXPECT_EQ(ap::dt_process_count(DtGraph::kShuffle, DtClass::kA), 80);
  EXPECT_EQ(ap::dt_process_count(DtGraph::kShuffle, DtClass::kB), 192);
  EXPECT_EQ(ap::dt_process_count(DtGraph::kShuffle, DtClass::kC), 448);
}

TEST(DtGraph, BlackHoleConvergesToOneSink) {
  const auto spec = ap::build_dt_graph(ap::DtGraph::kBlackHole, ap::DtClass::kA);
  EXPECT_EQ(spec.node_count(), 21);
  EXPECT_EQ(spec.source_count(), 16);
  EXPECT_EQ(spec.sink_count(), 1);
  // The sink is the last node and has 4 predecessors (Figure 13's shape).
  EXPECT_EQ(spec.predecessors.back().size(), 4u);
  // Sources have no predecessors and exactly one successor.
  for (int n = 0; n < 16; ++n) {
    EXPECT_TRUE(spec.predecessors[static_cast<std::size_t>(n)].empty());
    EXPECT_EQ(spec.successors[static_cast<std::size_t>(n)].size(), 1u);
  }
}

TEST(DtGraph, WhiteHoleMirrorsBlackHole) {
  const auto spec = ap::build_dt_graph(ap::DtGraph::kWhiteHole, ap::DtClass::kA);
  EXPECT_EQ(spec.source_count(), 1);
  EXPECT_EQ(spec.sink_count(), 16);
  // Node 0 feeds 4 consumers, as in Figure 14.
  EXPECT_EQ(spec.successors[0].size(), 4u);
}

TEST(DtGraph, ShuffleHasConstantWidthLayers) {
  const auto spec = ap::build_dt_graph(ap::DtGraph::kShuffle, ap::DtClass::kS);
  EXPECT_EQ(spec.node_count(), 12);  // 4 x 3
  EXPECT_EQ(spec.source_count(), 4);
  EXPECT_EQ(spec.sink_count(), 4);
  // Interior nodes have 4 predecessors (the shuffle).
  for (int n = 4; n < 12; ++n) {
    EXPECT_EQ(spec.predecessors[static_cast<std::size_t>(n)].size(), 4u);
  }
}

TEST(DtGraph, EdgesAreAcyclicAndLayered) {
  for (auto graph : {ap::DtGraph::kBlackHole, ap::DtGraph::kWhiteHole, ap::DtGraph::kShuffle}) {
    const auto spec = ap::build_dt_graph(graph, ap::DtClass::kW);
    for (int n = 0; n < spec.node_count(); ++n) {
      for (int succ : spec.successors[static_cast<std::size_t>(n)]) {
        EXPECT_EQ(spec.layer[static_cast<std::size_t>(succ)],
                  spec.layer[static_cast<std::size_t>(n)] + 1);
      }
    }
  }
}

// ---------------------------------------------------------------------------
// DT end-to-end: simulated run matches the serial dataflow reference.
// ---------------------------------------------------------------------------

class DtEndToEnd : public ::testing::TestWithParam<ap::DtGraph> {};

TEST_P(DtEndToEnd, ChecksumMatchesSerialReference) {
  ap::DtParams params;
  params.graph = GetParam();
  params.cls = ap::DtClass::kS;
  params.scale = 0.1;  // keep the test fast
  const int nprocs = ap::dt_process_count(params.graph, params.cls);
  auto platform = test_cluster(nprocs);
  sc::SmpiWorld world(platform, fast_config());
  world.run(nprocs, ap::make_dt_app(params));
  EXPECT_GT(world.simulated_time(), 0);
  EXPECT_NEAR(ap::dt_last_checksum(), ap::dt_reference_checksum(params),
              ap::dt_reference_checksum(params) * 1e-12);
}

INSTANTIATE_TEST_SUITE_P(Graphs, DtEndToEnd,
                         ::testing::Values(ap::DtGraph::kBlackHole, ap::DtGraph::kWhiteHole,
                                           ap::DtGraph::kShuffle));

TEST(DtApp, FoldedMemoryShrinksFootprintButKeepsTraffic) {
  ap::DtParams params;
  // WH: every node holds an equal-size array, so all 11 class-W ranks fold
  // into a single physical block (the paper's m x s -> s reduction).
  params.graph = ap::DtGraph::kWhiteHole;
  params.cls = ap::DtClass::kW;
  params.scale = 0.5;
  const int nprocs = ap::dt_process_count(params.graph, params.cls);
  auto platform = test_cluster(nprocs);

  sc::MemoryReport unfolded, folded;
  double t_unfolded = 0, t_folded = 0;
  {
    sc::SmpiWorld world(platform, fast_config());
    world.run(nprocs, ap::make_dt_app(params));
    unfolded = world.memory_report();
    t_unfolded = world.simulated_time();
  }
  {
    ap::DtParams fold = params;
    fold.fold_memory = true;
    sc::SmpiWorld world(platform, fast_config());
    world.run(nprocs, ap::make_dt_app(fold));
    folded = world.memory_report();
    t_folded = world.simulated_time();
  }
  // Folding cuts the physically-allocated footprint by a large factor...
  EXPECT_LT(folded.folded_peak_bytes, unfolded.folded_peak_bytes / 2);
  // ...while the application-level (unfolded) footprint stays identical...
  EXPECT_EQ(folded.unfolded_peak_bytes, unfolded.unfolded_peak_bytes);
  // ...and the simulated execution time is essentially unchanged (§7.2).
  EXPECT_NEAR(t_folded, t_unfolded, t_unfolded * 0.05);
}

// ---------------------------------------------------------------------------
// EP.
// ---------------------------------------------------------------------------

TEST(EpApp, MatchesSerialReferenceWithFullSampling) {
  ap::EpParams params;
  params.log2_pairs = 16;
  params.batches = 8;
  params.sampling_ratio = 1.0;
  const auto reference = ap::ep_reference(params);
  auto platform = test_cluster(4);
  sc::SmpiWorld world(platform, fast_config());
  world.run(4, ap::make_ep_app(params));
  const auto result = ap::ep_last_result();
  EXPECT_EQ(result.gaussian_pairs(), reference.gaussian_pairs());
  EXPECT_NEAR(result.sum_x, reference.sum_x, std::max(std::abs(reference.sum_x) * 1e-9, 1e-9));
  EXPECT_NEAR(result.sum_y, reference.sum_y, std::max(std::abs(reference.sum_y) * 1e-9, 1e-9));
  EXPECT_EQ(result.annuli, reference.annuli);
}

// Out-of-range parameters fail when the program is made, before any rank
// runs: 2^log2_pairs is a shift that is undefined outside [0, 63].
TEST(EpApp, RejectsParametersOutOfRange) {
  for (const int log2_pairs : {-1, 64, 100}) {
    SCOPED_TRACE(log2_pairs);
    ap::EpParams params;
    params.log2_pairs = log2_pairs;
    EXPECT_THROW(ap::make_ep_app(params), smpi::util::ContractError);
    EXPECT_THROW(ap::ep_reference(params), smpi::util::ContractError);
  }
  ap::EpParams params;
  params.sampling_ratio = 5;
  EXPECT_THROW(ap::make_ep_app(params), smpi::util::ContractError);
}

TEST(EpApp, GaussianAcceptanceRateIsPlausible) {
  ap::EpParams params;
  params.log2_pairs = 16;
  const auto reference = ap::ep_reference(params);
  // Marsaglia accepts pi/4 ~ 78.5% of pairs.
  const double rate =
      static_cast<double>(reference.gaussian_pairs()) / static_cast<double>(1 << 16);
  EXPECT_NEAR(rate, 0.785, 0.02);
}

// Sampling folds *measured host time* of compute bursts into simulated
// time, so this test only holds when host timing is representative.
#if defined(__SANITIZE_ADDRESS__)
#define SMPI_TIMING_DISTORTED 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
#define SMPI_TIMING_DISTORTED 1
#endif
#endif

TEST(EpApp, SamplingReducesHostWorkNotSimulatedShape) {
#if defined(SMPI_TIMING_DISTORTED)
  GTEST_SKIP() << "sanitizer overhead distorts the wall-clock-derived simulated times";
#endif
  ap::EpParams full, quarter;
  full.log2_pairs = quarter.log2_pairs = 18;
  full.batches = quarter.batches = 16;
  full.sampling_ratio = 1.0;
  quarter.sampling_ratio = 0.25;
  EXPECT_EQ(ap::ep_sample_budget(full), 16);
  EXPECT_EQ(ap::ep_sample_budget(quarter), 4);

  auto run_ep = [](const ap::EpParams& params, double* wall_seconds) {
    auto platform = test_cluster(4);
    sc::SmpiWorld world(platform, fast_config());
    const auto start = std::chrono::steady_clock::now();
    world.run(4, ap::make_ep_app(params));
    *wall_seconds = std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
    return world.simulated_time();
  };
  double wall_full = 0, wall_quarter = 0;
  const double sim_full = run_ep(full, &wall_full);
  const double sim_quarter = run_ep(quarter, &wall_quarter);
  // Host (wall-clock) work shrinks with the ratio...
  EXPECT_LT(wall_quarter, wall_full * 0.7);
  // ...while the simulated execution time stays put (Figure 18's dashed
  // lines): folded batches replay the measured mean.
  EXPECT_NEAR(sim_quarter, sim_full, sim_full * 0.35);
}

TEST(EpApp, RejectsBadSamplingRatio) {
  ap::EpParams params;
  params.sampling_ratio = 0;
  EXPECT_THROW(ap::ep_sample_budget(params), smpi::util::ContractError);
  params.sampling_ratio = 1.5;
  EXPECT_THROW(ap::ep_sample_budget(params), smpi::util::ContractError);
}
