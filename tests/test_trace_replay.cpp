// Trace subsystem tests: record round-trips, capture/replay equivalence on
// the paper's applications (replayed simulated time == online simulated time
// within 1e-9 relative), payload-free p2p semantics, what-if replays on a
// different platform, and the Paje timeline writer.
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "apps/dt.hpp"
#include "apps/ep.hpp"
#include "obs/run.hpp"
#include "smpi_test_util.hpp"
#include "trace/capture.hpp"
#include "trace/paje.hpp"
#include "trace/reader.hpp"
#include "trace/replay.hpp"
#include "trace/writer.hpp"
#include "util/check.hpp"

namespace fs = std::filesystem;
namespace tr = smpi::trace;
using namespace smpi_test;

namespace {

// Fresh temp directory per use, removed on destruction.
struct TempDir {
  fs::path path;
  TempDir() {
    static int counter = 0;
    path = fs::temp_directory_path() /
           ("smpi_trace_test_" + std::to_string(::getpid()) + "_" + std::to_string(counter++));
    fs::remove_all(path);
    fs::create_directories(path);
  }
  ~TempDir() {
    std::error_code ec;
    fs::remove_all(path, ec);
  }
  std::string str() const { return path.string(); }
};

// Runs `app` over `nprocs` ranks on `platform` while capturing a TI trace
// into `dir`; returns the online simulated time.
double capture_run(const smpi::platform::Platform& platform, const smpi::core::SmpiConfig& config,
                   int nprocs, smpi::core::MpiMain app, const std::string& dir) {
  tr::TiWriter writer(dir, nprocs, "test");
  smpi::obs::RunCollectors collectors;
  collectors.ti = &writer;
  return smpi::obs::run_observed(platform, config, nprocs, std::move(app), collectors)
      .simulated_time;
}

}  // namespace

// ---------------------------------------------------------------------------
// Record serialization
// ---------------------------------------------------------------------------

TEST(TiRecord, RoundTripsEveryOpKind) {
  std::vector<tr::TiRecord> records;
  {
    tr::TiRecord r;
    r.op = tr::TiOp::kCompute;
    r.value = 1234.567891234567e7;  // must round-trip bit-exactly
    records.push_back(r);
  }
  {
    tr::TiRecord r;
    r.op = tr::TiOp::kIsend;
    r.peer = 12;
    r.count = 1 << 30;  // 8 GiB message: count*elem must never flatten to int
    r.elem = 8;
    r.tag = 7;
    r.req = 42;
    records.push_back(r);
  }
  {
    tr::TiRecord r;
    r.op = tr::TiOp::kRecv;
    r.peer = tr::kPeerAny;
    r.count = 8;
    r.tag = tr::kTagAny;
    records.push_back(r);
  }
  {
    tr::TiRecord r;
    r.op = tr::TiOp::kWaitall;
    r.reqs = {3, 1, 4, 1, 5};
    records.push_back(r);
  }
  {
    tr::TiRecord r;
    r.op = tr::TiOp::kAllreduce;
    r.count = 1000;
    r.elem = 8;
    r.commutative = false;
    records.push_back(r);
  }
  {
    tr::TiRecord r;
    r.op = tr::TiOp::kAlltoallv;
    r.elem = 4;
    r.elem2 = 8;
    r.counts = {1, 2, 3};
    r.counts2 = {4, 5, 6};
    records.push_back(r);
  }
  {
    tr::TiRecord r;
    r.op = tr::TiOp::kSendrecv;
    r.peer = 1;
    r.count = 100;
    r.tag = 2;
    r.peer2 = tr::kPeerNull;
    r.count2 = 200;
    r.tag2 = 3;
    records.push_back(r);
  }

  for (const auto& original : records) {
    const std::string line = tr::serialize_record(original);
    tr::TiRecord parsed;
    ASSERT_TRUE(tr::parse_record(line, &parsed)) << line;
    EXPECT_EQ(parsed.op, original.op) << line;
    EXPECT_EQ(parsed.value, original.value) << line;  // bit-exact doubles
    EXPECT_EQ(parsed.peer, original.peer);
    EXPECT_EQ(parsed.peer2, original.peer2);
    EXPECT_EQ(parsed.count, original.count);
    EXPECT_EQ(parsed.count2, original.count2);
    EXPECT_EQ(parsed.tag, original.tag);
    EXPECT_EQ(parsed.tag2, original.tag2);
    EXPECT_EQ(parsed.req, original.req);
    EXPECT_EQ(parsed.commutative, original.commutative);
    EXPECT_EQ(parsed.reqs, original.reqs);
    EXPECT_EQ(parsed.counts, original.counts);
    EXPECT_EQ(parsed.counts2, original.counts2);
  }
  tr::TiRecord bad;
  EXPECT_FALSE(tr::parse_record("frobnicate 1 2 3", &bad));
  EXPECT_FALSE(tr::parse_record("send 1", &bad));
}

TEST(TiWriterReader, WriterProducesLoadableTraces) {
  TempDir dir;
  {
    tr::TiWriter writer(dir.str(), 2, "unit");
    tr::TiRecord r;
    r.op = tr::TiOp::kInit;
    writer.append(0, r);
    writer.append(1, r);
    r.op = tr::TiOp::kCompute;
    r.value = 5e6;
    writer.append(0, r);
    r.op = tr::TiOp::kFinalize;
    writer.append(0, r);
    writer.append(1, r);
    writer.finish();
    EXPECT_EQ(writer.records_written(), 5u);
  }
  const tr::TiTrace trace = tr::load_ti_trace(dir.str());
  EXPECT_EQ(trace.nranks, 2);
  EXPECT_EQ(trace.app, "unit");
  ASSERT_EQ(trace.ranks[0].size(), 3u);
  ASSERT_EQ(trace.ranks[1].size(), 2u);
  EXPECT_EQ(trace.ranks[0][1].op, tr::TiOp::kCompute);
  EXPECT_EQ(trace.ranks[0][1].value, 5e6);
}

// ---------------------------------------------------------------------------
// Capture -> replay equivalence
// ---------------------------------------------------------------------------

TEST(TraceReplay, EpReplayReproducesOnlineTime) {
  TempDir dir;
  auto platform = test_cluster(8);
  auto config = fast_config();
  smpi::apps::EpParams params;
  params.log2_pairs = 14;
  const double online =
      capture_run(platform, config, 8, smpi::apps::make_ep_app(params), dir.str());
  ASSERT_GT(online, 0);

  const auto result = tr::replay_trace(platform, config, dir.str());
  EXPECT_EQ(result.ranks, 8);
  EXPECT_GT(result.records, 0);
  EXPECT_NEAR(result.simulated_time, online, 1e-9 * online);
}

TEST(TraceReplay, EpWithFoldedSamplingReplaysExactly) {
  TempDir dir;
  auto platform = test_cluster(8);
  auto config = fast_config();
  smpi::apps::EpParams params;
  params.log2_pairs = 14;
  params.sampling_ratio = 0.25;  // most bursts folded to the measured mean
  const double online =
      capture_run(platform, config, 8, smpi::apps::make_ep_app(params), dir.str());
  const auto result = tr::replay_trace(platform, config, dir.str());
  EXPECT_NEAR(result.simulated_time, online, 1e-9 * online);
}

TEST(TraceReplay, DtReplayReproducesOnlineTime) {
  TempDir dir;
  smpi::apps::DtParams params;
  params.cls = smpi::apps::DtClass::kS;
  params.graph = smpi::apps::DtGraph::kWhiteHole;
  const int np = smpi::apps::dt_process_count(params.graph, params.cls);
  auto platform = test_cluster(np);
  auto config = fast_config();
  const double online =
      capture_run(platform, config, np, smpi::apps::make_dt_app(params), dir.str());
  ASSERT_GT(online, 0);

  const auto result = tr::replay_trace(platform, config, dir.str());
  EXPECT_EQ(result.ranks, np);
  EXPECT_NEAR(result.simulated_time, online, 1e-9 * online);
}

TEST(TraceReplay, CollectiveMixReplaysExactly) {
  TempDir dir;
  auto platform = test_cluster(7);  // non-power-of-two exercises other paths
  auto config = fast_config();
  auto app = [](int, char**) {
    MPI_Init(nullptr, nullptr);
    const int rank = my_rank();
    const int size = world_size();
    std::vector<double> buf(2048, rank);
    std::vector<double> out(2048 * static_cast<std::size_t>(size));
    MPI_Bcast(buf.data(), 2048, MPI_DOUBLE, 0, MPI_COMM_WORLD);
    MPI_Allreduce(buf.data(), buf.data() + 1024, 1024, MPI_DOUBLE, MPI_SUM, MPI_COMM_WORLD);
    MPI_Barrier(MPI_COMM_WORLD);
    MPI_Gather(buf.data(), 64, MPI_DOUBLE, out.data(), 64, MPI_DOUBLE, size - 1,
               MPI_COMM_WORLD);
    MPI_Alltoall(out.data(), 16, MPI_DOUBLE, out.data() + 1024, 16, MPI_DOUBLE, MPI_COMM_WORLD);
    double prefix = 0;
    MPI_Scan(buf.data(), &prefix, 1, MPI_DOUBLE, MPI_SUM, MPI_COMM_WORLD);
    std::vector<int> counts(static_cast<std::size_t>(size), 4);
    std::vector<double> slice(4);
    MPI_Reduce_scatter(out.data(), slice.data(), counts.data(), MPI_DOUBLE, MPI_SUM,
                       MPI_COMM_WORLD);
    // Point-to-point ring with nonblocking requests.
    std::vector<MPI_Request> reqs(2);
    MPI_Isend(buf.data(), 256, MPI_DOUBLE, (rank + 1) % size, 9, MPI_COMM_WORLD, &reqs[0]);
    MPI_Irecv(out.data(), 256, MPI_DOUBLE, (rank - 1 + size) % size, 9, MPI_COMM_WORLD,
              &reqs[1]);
    MPI_Waitall(2, reqs.data(), MPI_STATUSES_IGNORE);
    smpi_execute_flops(1e6);
    MPI_Finalize();
  };
  const double online = capture_run(platform, config, 7, app, dir.str());
  ASSERT_GT(online, 0);
  const auto result = tr::replay_trace(platform, config, dir.str());
  EXPECT_NEAR(result.simulated_time, online, 1e-9 * online);
}

// Covers the replay arms CollectiveMixReplaysExactly does not: reduce,
// scatter, the v-variants (including the nullptr non-root argument paths),
// sendrecv, probe, and request-free.
TEST(TraceReplay, VariantMixReplaysExactly) {
  TempDir dir;
  auto platform = test_cluster(5);
  auto config = fast_config();
  auto app = [](int, char**) {
    MPI_Init(nullptr, nullptr);
    const int rank = my_rank();
    const int size = world_size();
    const int root = size - 1;
    std::vector<int> mine(64, rank);
    std::vector<int> all(64 * static_cast<std::size_t>(size));
    std::vector<int> counts(static_cast<std::size_t>(size));
    std::vector<int> displs(static_cast<std::size_t>(size));
    int offset = 0;
    for (int r = 0; r < size; ++r) {
      counts[static_cast<std::size_t>(r)] = 8 * (r + 1);
      displs[static_cast<std::size_t>(r)] = offset;
      offset += counts[static_cast<std::size_t>(r)];
    }
    std::vector<int> uneven(static_cast<std::size_t>(offset));

    std::vector<int> reduced(64);
    MPI_Reduce(mine.data(), reduced.data(), 64, MPI_INT, MPI_SUM, root, MPI_COMM_WORLD);
    MPI_Scatter(rank == root ? all.data() : nullptr, 64, MPI_INT, mine.data(), 64, MPI_INT,
                root, MPI_COMM_WORLD);
    MPI_Gatherv(mine.data(), counts[static_cast<std::size_t>(rank)], MPI_INT,
                rank == root ? uneven.data() : nullptr,
                rank == root ? counts.data() : nullptr, rank == root ? displs.data() : nullptr,
                MPI_INT, root, MPI_COMM_WORLD);
    MPI_Scatterv(rank == root ? uneven.data() : nullptr,
                 rank == root ? counts.data() : nullptr,
                 rank == root ? displs.data() : nullptr, MPI_INT, mine.data(),
                 counts[static_cast<std::size_t>(rank)], MPI_INT, root, MPI_COMM_WORLD);
    MPI_Allgatherv(mine.data(), counts[static_cast<std::size_t>(rank)], MPI_INT, uneven.data(),
                   counts.data(), displs.data(), MPI_INT, MPI_COMM_WORLD);
    std::vector<int> acounts(static_cast<std::size_t>(size), 4);
    std::vector<int> adispls(static_cast<std::size_t>(size));
    for (int r = 0; r < size; ++r) adispls[static_cast<std::size_t>(r)] = 4 * r;
    MPI_Alltoallv(all.data(), acounts.data(), adispls.data(), MPI_INT, uneven.data(),
                  acounts.data(), adispls.data(), MPI_INT, MPI_COMM_WORLD);

    // Sendrecv ring, a probed message, and an abandoned request.
    MPI_Sendrecv(mine.data(), 32, MPI_INT, (rank + 1) % size, 5, all.data(), 32, MPI_INT,
                 (rank - 1 + size) % size, 5, MPI_COMM_WORLD, MPI_STATUS_IGNORE);
    if (rank == 0) {
      MPI_Send(mine.data(), 16, MPI_INT, 1, 6, MPI_COMM_WORLD);
    } else if (rank == 1) {
      MPI_Status status;
      MPI_Probe(0, 6, MPI_COMM_WORLD, &status);
      MPI_Recv(all.data(), 16, MPI_INT, 0, 6, MPI_COMM_WORLD, MPI_STATUS_IGNORE);
      MPI_Request orphan;
      MPI_Irecv(all.data(), 8, MPI_INT, MPI_ANY_SOURCE, 99, MPI_COMM_WORLD, &orphan);
      MPI_Request_free(&orphan);
    }
    MPI_Finalize();
  };
  const double online = capture_run(platform, config, 5, app, dir.str());
  ASSERT_GT(online, 0);
  const auto result = tr::replay_trace(platform, config, dir.str());
  EXPECT_NEAR(result.simulated_time, online, 1e-9 * online);
}

TEST(TraceReplay, ReplayOnSlowerPlatformTakesLonger) {
  TempDir dir;
  auto platform = test_cluster(8);
  auto config = fast_config();
  auto app = [](int, char**) {
    MPI_Init(nullptr, nullptr);
    std::vector<char> buf(1 << 20);
    MPI_Bcast(buf.data(), 1 << 20, MPI_CHAR, 0, MPI_COMM_WORLD);
    MPI_Finalize();
  };
  const double online = capture_run(platform, config, 8, app, dir.str());

  // Same trace, 10x slower links: the what-if axis the subsystem exists for.
  smpi::platform::FlatClusterParams slow;
  slow.nodes = 8;
  slow.link_bandwidth_bps = 1e7;
  slow.link_latency_s = 1e-4;
  slow.speed_flops = 1e9;
  auto slow_platform = smpi::platform::build_flat_cluster(slow);
  const auto slow_result = tr::replay_trace(slow_platform, config, dir.str());
  EXPECT_GT(slow_result.simulated_time, online * 2);
}

TEST(TraceReplay, CaptureRejectsCollectivesOnDerivedComms) {
  TempDir dir;
  auto platform = test_cluster(4);
  auto config = fast_config();
  auto app = [](int, char**) {
    MPI_Init(nullptr, nullptr);
    MPI_Comm half;
    MPI_Comm_split(MPI_COMM_WORLD, my_rank() % 2, 0, &half);
    int v = 1, s = 0;
    MPI_Allreduce(&v, &s, 1, MPI_INT, MPI_SUM, half);  // must throw under capture
    MPI_Finalize();
  };
  EXPECT_THROW(capture_run(platform, config, 4, app, dir.str()), smpi::util::ContractError);
}

// ---------------------------------------------------------------------------
// Payload-free mode
// ---------------------------------------------------------------------------

TEST(PayloadFree, TimingMatchesNormalModeWithoutTouchingPayload) {
  auto run = [](bool payload_free) {
    auto config = fast_config();
    config.payload_free = payload_free;
    return run_mpi(4, [] {
      const int rank = my_rank();
      std::vector<char> buf(1 << 16, static_cast<char>(rank));
      if (rank == 0) {
        MPI_Send(buf.data(), 1 << 16, MPI_CHAR, 1, 0, MPI_COMM_WORLD);
      } else if (rank == 1) {
        MPI_Status status;
        MPI_Recv(buf.data(), 1 << 16, MPI_CHAR, 0, 0, MPI_COMM_WORLD, &status);
        int got = 0;
        MPI_Get_count(&status, MPI_CHAR, &got);
        EXPECT_EQ(got, 1 << 16);  // statuses still track sizes
      }
      std::vector<char> all(4);
      char mine = static_cast<char>('a' + rank);
      MPI_Allgather(&mine, 1, MPI_CHAR, all.data(), 1, MPI_CHAR, MPI_COMM_WORLD);
    }, config);
  };
  const double normal = run(false);
  const double payload_free = run(true);
  EXPECT_NEAR(payload_free, normal, 1e-12 * normal);
}

TEST(PayloadFree, ReceiverBufferIsNeverWritten) {
  auto config = fast_config();
  config.payload_free = true;
  run_mpi(2, [] {
    const int rank = my_rank();
    std::vector<char> buf(1024, rank == 0 ? 'S' : 'R');
    if (rank == 0) {
      MPI_Send(buf.data(), 1024, MPI_CHAR, 1, 0, MPI_COMM_WORLD);
    } else {
      MPI_Recv(buf.data(), 1024, MPI_CHAR, 0, 0, MPI_COMM_WORLD, MPI_STATUS_IGNORE);
      for (char c : buf) ASSERT_EQ(c, 'R');  // payload never materialized
    }
  }, config);
}

// ---------------------------------------------------------------------------
// Paje timeline
// ---------------------------------------------------------------------------

TEST(Paje, TimelineHasBalancedStatesAndContainers) {
  TempDir dir;
  const std::string path = (dir.path / "out.paje").string();
  auto platform = test_cluster(4);
  auto config = fast_config();
  {
    smpi::core::SmpiWorld world(platform, config);
    tr::PajeWriter paje(path);
    paje.begin(4);
    tr::install_capture(nullptr, &paje);
    world.run(4, [](int, char**) {
      MPI_Init(nullptr, nullptr);
      std::vector<char> buf(4096);
      MPI_Bcast(buf.data(), 4096, MPI_CHAR, 0, MPI_COMM_WORLD);
      smpi_execute_flops(1e6);
      MPI_Finalize();
    });
    tr::clear_capture();
    paje.finish(world.simulated_time());
    EXPECT_GT(paje.events(), 0u);
  }
  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::string line;
  int pushes = 0, pops = 0, creates = 0, destroys = 0;
  bool header = false;
  while (std::getline(in, line)) {
    if (line.rfind("%EventDef PajeDefineContainerType", 0) == 0) header = true;
    if (line.rfind("4 ", 0) == 0) ++pushes;
    if (line.rfind("5 ", 0) == 0) ++pops;
    if (line.rfind("2 ", 0) == 0) ++creates;
    if (line.rfind("3 ", 0) == 0) ++destroys;
  }
  EXPECT_TRUE(header);
  EXPECT_EQ(pushes, pops);         // every MPI call opens and closes a state
  EXPECT_EQ(creates, destroys);    // sim + one container per rank
  EXPECT_EQ(creates, 5);
  // init, bcast, computing, finalize per rank.
  EXPECT_EQ(pushes, 4 * 4);
}

// Replay drives the same Paje hooks through the replayed MPI calls.
TEST(Paje, ReplayEmitsTimeline) {
  TempDir dir;
  auto platform = test_cluster(4);
  auto config = fast_config();
  auto app = [](int, char**) {
    MPI_Init(nullptr, nullptr);
    std::vector<char> buf(1024);
    MPI_Bcast(buf.data(), 1024, MPI_CHAR, 0, MPI_COMM_WORLD);
    MPI_Finalize();
  };
  capture_run(platform, config, 4, app, dir.str());

  const std::string path = (dir.path / "replay.paje").string();
  tr::PajeWriter paje(path);
  tr::ReplayOptions options;
  options.paje = &paje;
  const auto result = tr::replay_trace(platform, config, dir.str(), options);
  EXPECT_GT(result.simulated_time, 0);
  EXPECT_GT(paje.events(), 0u);
  std::ifstream in(path);
  ASSERT_TRUE(in.good());
}

// ---------------------------------------------------------------------------
// Up-front trace validation (missing / truncated rank files)
// ---------------------------------------------------------------------------

namespace {

// A valid 2-rank trace to corrupt: init, compute, finalize per rank.
void write_valid_trace(const std::string& dir) {
  tr::TiWriter writer(dir, 2, "unit");
  tr::TiRecord r;
  r.op = tr::TiOp::kInit;
  writer.append(0, r);
  writer.append(1, r);
  r.op = tr::TiOp::kCompute;
  r.value = 1e6;
  writer.append(0, r);
  writer.append(1, r);
  r.op = tr::TiOp::kFinalize;
  writer.append(0, r);
  writer.append(1, r);
  writer.finish();
}

std::string load_error(const std::string& dir) {
  try {
    tr::load_ti_trace(dir);
  } catch (const smpi::util::ContractError& e) {
    return e.what();
  }
  return "";
}

}  // namespace

TEST(TraceValidation, MissingRankFileNamesRankAndPath) {
  TempDir dir;
  write_valid_trace(dir.str());
  fs::remove(dir.path / "rank_1.ti");
  const std::string error = load_error(dir.str());
  EXPECT_NE(error.find("rank 1"), std::string::npos) << error;
  EXPECT_NE(error.find("rank_1.ti"), std::string::npos) << error;
  EXPECT_NE(error.find("2 ranks"), std::string::npos) << error;
}

TEST(TraceValidation, TruncatedRankFileNamesLastRecordAndLine) {
  TempDir dir;
  write_valid_trace(dir.str());
  // Drop the trailing finalize from rank 0 — the shape an interrupted
  // capture leaves behind. Replaying it would deadlock; loading must not.
  {
    std::ofstream out(dir.path / "rank_0.ti", std::ios::trunc);
    tr::TiRecord r;
    r.op = tr::TiOp::kInit;
    out << tr::serialize_record(r) << "\n";
    r.op = tr::TiOp::kCompute;
    r.value = 1e6;
    out << tr::serialize_record(r) << "\n";
  }
  const std::string error = load_error(dir.str());
  EXPECT_NE(error.find("truncated"), std::string::npos) << error;
  EXPECT_NE(error.find("rank_0.ti"), std::string::npos) << error;
  EXPECT_NE(error.find("line 2"), std::string::npos) << error;
  EXPECT_NE(error.find("compute"), std::string::npos) << error;
}

TEST(TraceValidation, LenientLoadAcceptsTruncatedTraces) {
  TempDir dir;
  write_valid_trace(dir.str());
  {
    std::ofstream out(dir.path / "rank_0.ti", std::ios::trunc);
    tr::TiRecord r;
    r.op = tr::TiOp::kInit;
    out << tr::serialize_record(r) << "\n";
  }
  // ti_inspect's diagnostic mode: load whatever is there.
  const tr::TiTrace trace = tr::load_ti_trace(dir.str(), /*validate=*/false);
  EXPECT_EQ(trace.ranks[0].size(), 1u);
  EXPECT_EQ(trace.ranks[1].size(), 3u);
}

TEST(TraceValidation, EmptyRankFileIsRejected) {
  TempDir dir;
  write_valid_trace(dir.str());
  { std::ofstream out(dir.path / "rank_0.ti", std::ios::trunc); }
  const std::string error = load_error(dir.str());
  EXPECT_NE(error.find("empty"), std::string::npos) << error;
  EXPECT_NE(error.find("rank 0"), std::string::npos) << error;
}

TEST(TraceValidation, TraceNotStartingWithInitIsRejected) {
  TempDir dir;
  write_valid_trace(dir.str());
  {
    std::ofstream out(dir.path / "rank_1.ti", std::ios::trunc);
    tr::TiRecord r;
    r.op = tr::TiOp::kCompute;
    r.value = 1e6;
    out << tr::serialize_record(r) << "\n";
    r.op = tr::TiOp::kFinalize;
    out << tr::serialize_record(r) << "\n";
  }
  const std::string error = load_error(dir.str());
  EXPECT_NE(error.find("does not start with init"), std::string::npos) << error;
  EXPECT_NE(error.find("rank_1.ti"), std::string::npos) << error;
}
