#include "trace/capture.hpp"

#include <unordered_map>
#include <vector>

#include "obs/span.hpp"
#include "smpi/internals.hpp"
#include "trace/writer.hpp"
#include "util/check.hpp"

namespace smpi::trace {

namespace {

struct Instrumentation {
  TiWriter* ti = nullptr;
  // Request* -> capture id, per rank. Request objects are pooled and their
  // addresses recycled after GC, so bindings are erased when consumed.
  std::vector<std::unordered_map<const core::Request*, long long>> request_ids;
  std::vector<long long> request_seq;
};

Instrumentation g_instr;

core::Process* capture_process() {
  core::SmpiWorld* world = core::SmpiWorld::instance();
  return world == nullptr ? nullptr : world->current_process();
}

}  // namespace

void install_capture(TiWriter* ti) {
  g_instr.ti = ti;
  g_instr.request_ids.clear();
  g_instr.request_seq.clear();
  if (ti != nullptr) {
    g_instr.request_ids.resize(static_cast<std::size_t>(ti->nranks()));
    g_instr.request_seq.resize(static_cast<std::size_t>(ti->nranks()), 0);
  }
}

void clear_capture() { install_capture(nullptr); }

bool capture_installed() { return g_instr.ti != nullptr; }

ApiScope::ApiScope(const char* state) : state_(state) {
  if (!capture_installed() && !obs::spans_enabled()) return;
  proc_ = capture_process();
  if (proc_ == nullptr) return;  // MPI call outside a rank: let the callee complain
  outer_ = ++proc_->trace_depth == 1;
  recording_ = outer_ && g_instr.ti != nullptr;
  start_time_ = proc_->world->engine().now();
  if (outer_ && obs::spans_enabled()) {
    obs::spans()->on_enter(proc_->world_rank, state_, start_time_);
  }
}

ApiScope::~ApiScope() {
  if (proc_ == nullptr) return;
  if (outer_ && obs::spans_enabled()) {
    obs::spans()->on_exit(proc_->world_rank, proc_->world->engine().now());
  }
  --proc_->trace_depth;
}

void ApiScope::emit(const TiRecord& record) {
  if (!recording_) return;
  g_instr.ti->append(proc_->world_rank, record);
}

long long ApiScope::register_request(const core::Request* request) {
  if (!recording_ || request == nullptr) return -1;
  const auto rank = static_cast<std::size_t>(proc_->world_rank);
  const long long id = g_instr.request_seq[rank]++;
  g_instr.request_ids[rank][request] = id;
  return id;
}

long long ApiScope::lookup_request(const core::Request* request, bool erase) {
  if (!recording_ || request == nullptr) return -1;
  const auto rank = static_cast<std::size_t>(proc_->world_rank);
  auto& ids = g_instr.request_ids[rank];
  auto it = ids.find(request);
  if (it == ids.end()) return -1;
  const long long id = it->second;
  if (erase) ids.erase(it);
  return id;
}

}  // namespace smpi::trace
