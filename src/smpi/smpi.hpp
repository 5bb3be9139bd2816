// The simulation-side API of SMPI: configure a target platform + model,
// then run an MPI program (a plain function using smpi/mpi.h) over N
// simulated processes inside this single OS process.
//
//   auto platform = smpi::platform::build_griffon();
//   smpi::core::SmpiConfig config;                 // flow model, SMPI defaults
//   smpi::core::SmpiWorld world(platform, config);
//   world.run(16, my_mpi_main);
//   double t = world.simulated_time();
//
// Ground-truth mode (the paper's "OpenMPI"/"MPICH2" real runs) is the same
// call with config.backend = kPacket and a personality.
#pragma once

#include <cstdint>
#include <exception>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "noise/noise.hpp"
#include "platform/platform.hpp"
#include "pnet/packetnet.hpp"
#include "sim/engine.hpp"
#include "sim/fault.hpp"
#include "surf/cpu.hpp"
#include "surf/network.hpp"

namespace smpi::core {

class Process;
class Comm;
class Group;
class MemoryTracker;

// Models how a concrete MPI implementation moves one message: protocol
// switch point, per-message software overheads, and whether the rendezvous
// control messages are sent for real (ground-truth mode) or folded into the
// calibrated piece-wise model (SMPI mode).
struct Personality {
  std::string name = "smpi";
  std::uint64_t eager_threshold = 64 * 1024;
  double overhead_send_s = 0;       // sender-side per-message CPU cost
  double overhead_recv_s = 0;       // receiver-side per-message CPU cost
  double copy_cost_s_per_byte = 0;  // eager buffering memcpy cost
  bool emulate_protocol_messages = false;  // explicit RTS/CTS round-trip

  static Personality smpi();     // everything folded into the network model
  static Personality openmpi();  // ground-truth personality A
  static Personality mpich2();   // ground-truth personality B
};

// Collective-algorithm selection. "auto" keeps the built-in size-based
// dispatch (the MPICH2-style §5.3 rules); naming a variant forces it for
// every call, which is how what-if campaigns sweep over algorithm choices.
// A forced variant must still satisfy its own preconditions (e.g.
// recursive doubling needs a power-of-two size) — violating them is a hard
// error, not a silent fallback.
struct CollSelection {
  std::string bcast = "auto";      // binomial | scatter_ring_allgather
  std::string alltoall = "auto";   // bruck | basic | pairwise
  std::string allreduce = "auto";  // recursive_doubling | rabenseifner | reduce_bcast
  std::string allgather = "auto";  // recursive_doubling | ring
};

struct SmpiConfig {
  enum class Backend { kFlow, kPacket };
  Backend backend = Backend::kFlow;
  surf::NetworkConfig network;   // used when backend == kFlow
  pnet::PacketNetConfig packet;  // used when backend == kPacket
  Personality personality = Personality::smpi();
  sim::EngineConfig engine;

  // Host node performance (flop/s) used to convert measured CPU-burst
  // durations into target flops (§3.1/§6), and an additional user scale
  // factor for "what if the target nodes were k x faster" studies.
  double host_speed_flops = 1e9;
  double cpu_scale = 1.0;

  // Simulated-host RAM budget; the memory tracker flags configurations whose
  // unfolded footprint would not fit (the "OM" labels of Figure 16).
  std::uint64_t host_ram_budget_bytes = 16ull << 30;

  // Rank placement: rank r runs on node placement[r] when `placement` is
  // non-empty, otherwise on node (r * placement_stride) % host_count.
  std::vector<int> placement;
  int placement_stride = 1;

  // Forced collective-algorithm variants (campaign what-ifs); see above.
  CollSelection coll;

  // Zero-copy eager mode: collective-internal eager sends whose source
  // buffer is registered as stable for the enclosing algorithm skip the
  // snapshot copy and deliver straight from the user buffer at match time.
  // Timing is unaffected (the copy is modeled via copy_cost_s_per_byte
  // either way); this only changes how payload bytes move through the
  // simulator. Off = always snapshot (reference arm for equivalence tests).
  bool zero_copy_eager = true;

  // Failure model (sim/fault.hpp): host crashes / link faults scheduled at
  // simulated dates, plus seeded-random generation. An empty spec builds no
  // fault machinery at all, so all simulated times stay bit-identical to a
  // fault-free run. Faults require the flow backend. The spec's policy
  // decides what a rank does when a blocked operation fails: abort the rank
  // with a diagnostic, or hang so the deadlock detector reports the
  // wait-for state.
  sim::FaultSpec faults;

  // Noise model (noise/noise.hpp): the `message_jitter` channel adds a
  // seeded per-message delay at flow creation (requires the flow backend).
  // Static channels (host_speed / link_*) are applied to the Platform
  // *before* world construction — by campaign materialization or smpirun —
  // not here. An empty or identity spec installs nothing: the simulation is
  // bit-identical to a noise-free run. `noise.seed` should already carry the
  // replication sub-seed (noise::replication_seed) when campaigns replicate.
  noise::NoiseSpec noise;

  // Payload-free mode (offline trace replay): message *sizes* drive all
  // timing but payload bytes are never materialized — eager sends skip the
  // snapshot copy, receives skip the unpack, datatype pack/unpack and
  // reduction operators become no-ops. Buffers passed to MPI calls are only
  // used for size/offset arithmetic, so one shared scratch arena can serve
  // every rank.
  bool payload_free = false;
};

struct MemoryReport {
  std::uint64_t folded_peak_bytes = 0;    // what the simulation really allocates
  std::uint64_t unfolded_peak_bytes = 0;  // what m processes would have used
  std::uint64_t max_rank_peak_bytes = 0;  // largest single-rank footprint
  bool over_budget = false;               // unfolded footprint exceeds the host budget
};

// Hot-path accounting for the p2p transfer engine: how well the free-list
// pools recycle (hits vs heap fallbacks), and how often the zero-copy eager
// path elided the snapshot memcpy. `bytes_not_copied` is the payload volume
// that never went through an eager staging buffer.
struct P2pCounters {
  std::uint64_t pool_hits = 0;             // engine pools: block + buffer reuse
  std::uint64_t pool_misses = 0;           // engine pools: fresh heap allocations
  std::uint64_t eager_snapshots = 0;       // eager sends that copied into a staging buffer
  std::uint64_t eager_copy_elided = 0;     // eager sends proven stable: no snapshot taken
  std::uint64_t eager_flush_snapshots = 0; // zero-copy envelopes snapshotted at scope exit
  std::uint64_t bytes_not_copied = 0;      // payload bytes delivered without staging
};

using MpiMain = std::function<void(int argc, char** argv)>;

class SmpiWorld {
 public:
  SmpiWorld(const platform::Platform& platform, SmpiConfig config);
  ~SmpiWorld();

  SmpiWorld(const SmpiWorld&) = delete;
  SmpiWorld& operator=(const SmpiWorld&) = delete;

  // Runs `app` as `nprocs` MPI processes; returns when all have finished.
  // argv[0] is `app_name`, followed by `args`.
  void run(int nprocs, MpiMain app, std::vector<std::string> args = {},
           std::string app_name = "smpi_app");

  double simulated_time() const { return finish_time_; }
  MemoryReport memory_report() const;
  // Hot-path accounting: smpi-layer counters merged with the engine's pool
  // statistics (valid for the lifetime of the world).
  P2pCounters p2p_counters() const;
  bool aborted() const { return aborted_; }
  int abort_code() const { return abort_code_; }
  // First resource-failure diagnostic observed by a rank (abort policy);
  // empty when no operation failed.
  const std::string& failure_diagnostic() const { return fault_diagnostic_; }
  // The per-rank wait-for state (blocked operation + unmatched queues) the
  // deadlock detector appends to DeadlockError; also usable directly.
  std::string wait_for_diagnostic() const;

  sim::Engine& engine() { return *engine_; }
  const platform::Platform& platform() const { return platform_; }
  const SmpiConfig& config() const { return config_; }
  sim::NetworkBackend& network() { return *network_; }
  sim::ComputeBackend& cpu() { return *cpu_; }
  // The surf models behind network()/cpu(); flow_network() is null under
  // the packet backend.
  surf::FlowNetworkModel* flow_network() { return flow_network_; }
  surf::CpuModel& cpu_model() { return *cpu_model_; }

  // --- internal services (used by the MPI call implementations) -----------
  static SmpiWorld* instance();
  Process* current_process();           // nullptr outside MPI ranks
  Process* process(int world_rank);
  int world_size() const { return static_cast<int>(processes_.size()); }
  Comm* world_comm() { return world_comm_; }
  Group* empty_group() { return empty_group_; }
  MemoryTracker& memory() { return *memory_; }
  void record_abort(int code);
  // Records the first fault diagnostic (abort policy) alongside the abort.
  void record_failure(const std::string& diagnostic);
  int next_comm_id() { return next_comm_id_++; }
  P2pCounters& p2p_raw() { return p2p_counters_; }  // smpi-layer increments

 private:
  const platform::Platform& platform_;
  SmpiConfig config_;
  std::unique_ptr<sim::Engine> engine_;
  std::shared_ptr<surf::CpuModel> cpu_model_;
  sim::NetworkBackend* network_ = nullptr;
  surf::FlowNetworkModel* flow_network_ = nullptr;  // null with the packet backend
  sim::ComputeBackend* cpu_ = nullptr;
  std::vector<std::unique_ptr<Process>> processes_;
  Comm* world_comm_ = nullptr;
  Group* empty_group_ = nullptr;
  std::unique_ptr<MemoryTracker> memory_;
  std::vector<std::unique_ptr<Comm>> static_comms_;
  std::vector<std::unique_ptr<Group>> static_groups_;
  std::exception_ptr first_exception_;
  std::vector<std::string> argv_storage_;
  std::vector<char*> argv_pointers_;
  P2pCounters p2p_counters_;  // pool fields filled from the engine on read
  std::unique_ptr<noise::MessageJitter> jitter_;  // null when no live jitter channel
  double finish_time_ = 0;
  std::string fault_diagnostic_;
  bool aborted_ = false;
  int abort_code_ = 0;
  int next_comm_id_ = 1;
};

// Convenience wrapper: build world, run, return simulated time.
double run_simulation(const platform::Platform& platform, const SmpiConfig& config, int nprocs,
                      MpiMain app, std::vector<std::string> args = {});

}  // namespace smpi::core
