// Failure-model tests: fault-spec parsing, seeded-random resolution
// determinism, host-crash propagation into blocked operations under both
// policies, link degradation, and the empty-spec bit-identity guarantee.
#include "sim/fault.hpp"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "smpi_test_util.hpp"
#include "util/check.hpp"

using namespace smpi_test;
namespace ss = smpi::sim;
namespace sc = smpi::core;
using smpi::util::ContractError;

namespace {

ss::TargetIndex fake_index(int hosts, int links) {
  ss::TargetIndex index;
  index.host_count = hosts;
  index.link_count = links;
  index.find_host = [hosts](const std::string& name) {
    return name.rfind("h", 0) == 0 ? std::stoi(name.substr(1)) % hosts : -1;
  };
  index.find_link = [links](const std::string& name) {
    return name.rfind("l", 0) == 0 ? std::stoi(name.substr(1)) % links : -1;
  };
  return index;
}

}  // namespace

TEST(FaultSpec, ParsesInlineEventsAndPolicy) {
  const auto spec = ss::FaultSpec::parse_text(R"({
    "policy": "detect",
    "events": [
      {"kind": "host_crash", "time": 0.5, "host": "node-3"},
      {"kind": "link_degrade", "time": 1.0, "link": "up-node-0", "factor": 0.25}
    ]
  })");
  EXPECT_EQ(spec.policy, ss::FailurePolicy::kDetect);
  EXPECT_FALSE(spec.empty());
  ASSERT_EQ(spec.events.size(), 2u);
  EXPECT_EQ(spec.events[0].kind, ss::FaultEvent::Kind::kHostCrash);
  EXPECT_EQ(spec.events[0].target, "node-3");
  EXPECT_DOUBLE_EQ(spec.events[1].factor, 0.25);
}

TEST(FaultSpec, RejectsBadSpecs) {
  EXPECT_THROW(ss::FaultSpec::parse_text(R"({"policy": "retry"})"), ContractError);
  EXPECT_THROW(
      ss::FaultSpec::parse_text(R"({"events": [{"kind": "meteor", "time": 1, "host": "x"}]})"),
      ContractError);
  EXPECT_THROW(ss::FaultSpec::parse_text(
                   R"({"events": [{"kind": "link_degrade", "time": 1, "link": "l", "factor": 2}]})"),
               ContractError);
  EXPECT_TRUE(ss::FaultSpec::parse_text(R"({})").empty());
}

TEST(FaultSpec, RandomResolutionIsSeedReproducible) {
  auto spec = ss::FaultSpec::parse_text(R"({
    "random": {"seed": 7, "host_crashes": 3, "link_failures": 2,
               "link_degradations": 2, "time_min": 0.1, "time_max": 9, "mttr": 1}
  })");
  const auto index = fake_index(8, 16);
  const auto a = ss::resolve_faults(spec, index);
  const auto b = ss::resolve_faults(spec, index);
  // 3 crashes + 2 failures + 2 degradations, each with an mttr recovery.
  ASSERT_EQ(a.size(), 14u);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].kind, b[i].kind);
    EXPECT_EQ(a[i].target, b[i].target);
    EXPECT_DOUBLE_EQ(a[i].time, b[i].time);
    EXPECT_DOUBLE_EQ(a[i].factor, b[i].factor);
  }
  for (std::size_t i = 1; i < a.size(); ++i) EXPECT_LE(a[i - 1].time, a[i].time);

  spec.random.seed = 8;
  const auto c = ss::resolve_faults(spec, index);
  bool differs = c.size() != a.size();
  for (std::size_t i = 0; !differs && i < a.size(); ++i) {
    differs = a[i].time != c[i].time || a[i].target != c[i].target;
  }
  EXPECT_TRUE(differs) << "seed change must perturb the drawn faults";
}

TEST(Fault, HostCrashAbortsBlockedTransfer) {
  auto platform = test_cluster(2);
  sc::SmpiConfig config = fast_config();
  // 1 MB at 1e8 B/s takes ~10 ms; the crash lands mid-transfer.
  config.faults = ss::FaultSpec::parse_text(
      R"({"policy": "abort", "events": [{"kind": "host_crash", "time": 0.005, "host": "node-1"}]})");
  sc::SmpiWorld world(platform, config);
  world.run(2, [](int, char**) {
    MPI_Init(nullptr, nullptr);
    std::vector<char> buf(1 << 20);
    if (my_rank() == 0) {
      MPI_Send(buf.data(), static_cast<int>(buf.size()), MPI_BYTE, 1, 0, MPI_COMM_WORLD);
    } else {
      MPI_Recv(buf.data(), static_cast<int>(buf.size()), MPI_BYTE, 0, 0, MPI_COMM_WORLD,
               MPI_STATUS_IGNORE);
    }
    MPI_Finalize();
  });
  EXPECT_TRUE(world.aborted());
  EXPECT_EQ(world.abort_code(), -2);
  EXPECT_NE(world.failure_diagnostic().find("failed"), std::string::npos)
      << world.failure_diagnostic();
}

// Regression: a crash mid-collective unwinds the dead ranks' frames while
// transfers between the *surviving* nodes are still in flight. Their
// completion callbacks hold raw Request pointers into actor stacks; the
// engine must freeze at the abort date instead of dispatching them
// (heap-use-after-free under ASan otherwise).
TEST(Fault, AbortMidCollectiveLeavesInFlightTransfersUndispatched) {
  auto platform = test_cluster(8);
  sc::SmpiConfig config = fast_config();
  config.faults = ss::FaultSpec::parse_text(
      R"({"policy": "abort", "events": [{"kind": "host_crash", "time": 0.002, "host": "node-5"}]})");
  sc::SmpiWorld world(platform, config);
  world.run(8, [](int, char**) {
    MPI_Init(nullptr, nullptr);
    int size = 0;
    MPI_Comm_size(MPI_COMM_WORLD, &size);
    const int chunk = 65536;
    std::vector<char> send(static_cast<std::size_t>(size) * chunk, 'x');
    std::vector<char> recv(send.size());
    for (int iter = 0; iter < 8; ++iter) {
      MPI_Alltoall(send.data(), chunk, MPI_BYTE, recv.data(), chunk, MPI_BYTE, MPI_COMM_WORLD);
    }
    MPI_Finalize();
  });
  EXPECT_TRUE(world.aborted());
  EXPECT_EQ(world.abort_code(), -2);
  EXPECT_NE(world.failure_diagnostic().find("node 5"), std::string::npos)
      << world.failure_diagnostic();
}

// Regression (leak under ASan's leak checker): with protocol emulation the
// envelope holds its RTS flow and, once matched, the flow's completion hook
// holds the envelope. An abort while the RTS is still on the wire freezes
// the engine before that hook fires; tearing the world down must release
// the pair anyway.
TEST(Fault, AbortWithRendezvousHandshakeInFlightReleasesTheEnvelope) {
  auto platform = test_cluster(2);
  sc::SmpiConfig config = fast_config();
  config.personality = sc::Personality::openmpi();
  sc::SmpiWorld world(platform, config);
  world.run(2, [](int, char**) {
    MPI_Init(nullptr, nullptr);
    std::vector<char> buf(1 << 20);  // above the eager threshold
    MPI_Request request = MPI_REQUEST_NULL;
    if (my_rank() == 0) {
      MPI_Isend(buf.data(), static_cast<int>(buf.size()), MPI_BYTE, 1, 0, MPI_COMM_WORLD,
                &request);
      smpi_execute_flops(1e3);  // 1 us: the RTS needs 2 x 100 us of latency
      MPI_Abort(MPI_COMM_WORLD, 7);
    } else {
      MPI_Irecv(buf.data(), static_cast<int>(buf.size()), MPI_BYTE, 0, 0, MPI_COMM_WORLD,
                &request);
      MPI_Wait(&request, MPI_STATUS_IGNORE);
    }
    MPI_Finalize();
  });
  EXPECT_TRUE(world.aborted());
  EXPECT_EQ(world.abort_code(), 7);
}

TEST(Fault, HostCrashDetectPolicyReportsDeadlock) {
  auto platform = test_cluster(2);
  sc::SmpiConfig config = fast_config();
  config.faults = ss::FaultSpec::parse_text(
      R"({"policy": "detect", "events": [{"kind": "host_crash", "time": 0.005, "host": "node-1"}]})");
  sc::SmpiWorld world(platform, config);
  try {
    world.run(2, [](int, char**) {
      MPI_Init(nullptr, nullptr);
      std::vector<char> buf(1 << 20);
      if (my_rank() == 0) {
        MPI_Send(buf.data(), static_cast<int>(buf.size()), MPI_BYTE, 1, 0, MPI_COMM_WORLD);
      } else {
        MPI_Recv(buf.data(), static_cast<int>(buf.size()), MPI_BYTE, 0, 0, MPI_COMM_WORLD,
                 MPI_STATUS_IGNORE);
      }
      MPI_Finalize();
    });
    FAIL() << "detect policy must leave the ranks deadlocked";
  } catch (const ss::DeadlockError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("wait-for state"), std::string::npos) << what;
    EXPECT_NE(what.find("failed-op"), std::string::npos) << what;
  }
}

TEST(Fault, ComputeFailsOnDeadHost) {
  auto platform = test_cluster(2);
  sc::SmpiConfig config = fast_config();
  config.faults = ss::FaultSpec::parse_text(
      R"({"policy": "abort", "events": [{"kind": "host_crash", "time": 0.1, "host": "node-1"}]})");
  sc::SmpiWorld world(platform, config);
  world.run(2, [](int, char**) {
    MPI_Init(nullptr, nullptr);
    if (my_rank() == 1) smpi_execute_flops(1e10);  // 10 s on a 1e9 flop/s node
    MPI_Finalize();
  });
  EXPECT_TRUE(world.aborted());
  EXPECT_NE(world.failure_diagnostic().find("compute"), std::string::npos)
      << world.failure_diagnostic();
}

TEST(Fault, LinkDegradeSlowsTransfer) {
  const auto body = [] {
    std::vector<char> buf(1 << 20);
    if (my_rank() == 0) {
      MPI_Send(buf.data(), static_cast<int>(buf.size()), MPI_BYTE, 1, 0, MPI_COMM_WORLD);
    } else {
      MPI_Recv(buf.data(), static_cast<int>(buf.size()), MPI_BYTE, 0, 0, MPI_COMM_WORLD,
               MPI_STATUS_IGNORE);
    }
  };
  const double baseline = run_mpi(2, body);
  sc::SmpiConfig degraded = fast_config();
  degraded.faults = ss::FaultSpec::parse_text(
      R"({"events": [{"kind": "link_degrade", "time": 0, "link": "up-node-0", "factor": 0.5}]})");
  auto platform = test_cluster(2);
  sc::SmpiWorld world(platform, degraded);
  world.run(2, [&body](int, char**) {
    MPI_Init(nullptr, nullptr);
    body();
    MPI_Finalize();
  });
  EXPECT_FALSE(world.aborted());
  EXPECT_GT(world.simulated_time(), baseline * 1.2)
      << "halving the uplink must slow the transfer";
}

TEST(Fault, EmptySpecIsBitIdenticalToFaultFree) {
  const auto body = [] {
    std::vector<char> buf(1 << 16);
    const int peer = my_rank() ^ 1;
    MPI_Sendrecv(buf.data(), static_cast<int>(buf.size()), MPI_BYTE, peer, 0, buf.data(),
                 static_cast<int>(buf.size()), MPI_BYTE, peer, 0, MPI_COMM_WORLD,
                 MPI_STATUS_IGNORE);
    smpi_execute_flops(1e8);
  };
  const double fault_free = run_mpi(4, body);
  sc::SmpiConfig config = fast_config();
  config.faults = ss::FaultSpec{};  // explicitly empty
  const double with_empty_spec = run_mpi(4, body, config);
  EXPECT_EQ(fault_free, with_empty_spec);  // bit-identical, not just close
}

TEST(Fault, SeededRandomRunIsBitReproducible) {
  const auto run_once = [](std::uint64_t seed) {
    auto platform = test_cluster(4);
    sc::SmpiConfig config = fast_config();
    config.faults = ss::FaultSpec::parse_text(
        R"({"policy": "abort", "random": {"seed": )" + std::to_string(seed) +
        R"(, "host_crashes": 1, "time_min": 0.001, "time_max": 0.02}})");
    sc::SmpiWorld world(platform, config);
    world.run(4, [](int, char**) {
      MPI_Init(nullptr, nullptr);
      std::vector<char> buf(1 << 20);
      const int peer = my_rank() ^ 1;
      MPI_Sendrecv(buf.data(), static_cast<int>(buf.size()), MPI_BYTE, peer, 0, buf.data(),
                   static_cast<int>(buf.size()), MPI_BYTE, peer, 0, MPI_COMM_WORLD,
                   MPI_STATUS_IGNORE);
      MPI_Finalize();
    });
    return std::make_pair(world.simulated_time(), world.failure_diagnostic());
  };
  const auto a = run_once(11);
  const auto b = run_once(11);
  EXPECT_EQ(a.first, b.first);
  EXPECT_EQ(a.second, b.second);
}
