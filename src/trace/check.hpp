// Static TI-trace sanity checks — catch traces that would deadlock a replay
// before burning a simulation on them.
//
// A TI trace is only replayable when its ranks agree with each other: every
// point-to-point send needs a receive on the destination rank (and vice
// versa), and every rank must enter the same collectives in the same order.
// A hand-edited or truncated trace that violates this replays into a
// simulated deadlock; `check_trace` finds the disagreement by counting, with
// no simulation at all.
//
// It also reports what the replay itself would reject on a single rank: a
// rank that does not start with init or end with finalize (the loader's
// validation rule, trace::rank_shape), and a wait, waitall or reqfree on a
// request id the rank never issued or already consumed.
//
// Wildcard receives (MPI_ANY_SOURCE / MPI_ANY_TAG) can match any send, so a
// rank that posts them only gets the aggregate send/receive balance checked
// — flagging a specific (source, tag) bucket would be a false positive.
#pragma once

#include <string>
#include <vector>

namespace smpi::trace {

struct TiTrace;

struct TraceFinding {
  int rank = -1;  // the rank the finding anchors to (-1 = trace-wide)
  std::string message;
};

struct TraceCheckReport {
  std::vector<TraceFinding> findings;
  bool ok() const { return findings.empty(); }
};

// Pure record-counting pass over the loaded trace; safe on traces loaded
// with validate = false (ti_inspect's lenient mode).
TraceCheckReport check_trace(const TiTrace& trace);

}  // namespace smpi::trace
