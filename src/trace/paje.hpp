// Paje-format timeline export (the visualization side of the trace
// subsystem). Unlike the TI capture this trace *is* time-stamped: it shows
// per-rank activity over simulated time, and opens in Paje viewers (ViTE
// and friends).
//
// Paje is written from spans. The run collects the span stream (one Span
// per application-level MPI call, obs/span.hpp) like any other observer,
// and write_paje() turns it into the file after the run. Online runs and
// offline replays produce the same timeline because the replay actor
// issues the same MPI calls.
#pragma once

#include <cstdint>
#include <string>

namespace smpi::obs {
class SpanCollector;
}

namespace smpi::trace {

enum class PajeStates {
  // One push/pop per outermost MPI call, named by the call (Span::op), at
  // the dates it started and completed; zero-length calls included.
  kMpiCalls,
  // Each call split into "compute", "transfer" and the wait-state class of
  // every blocked interval (obs::wait_class_name); empty pieces omitted.
  kWaitStates,
};

// Writes the header, one container per rank of `spans`, every state as a
// push/pop pair in non-decreasing date order, and destroys the containers
// at max(finish_time, last event date). Returns the number of push/pop
// events written; throws util::ContractError if `path` cannot be opened.
std::uint64_t write_paje(const obs::SpanCollector& spans, const std::string& path,
                         double finish_time, PajeStates states);

}  // namespace smpi::trace
