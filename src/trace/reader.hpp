// TI trace loader: manifest + per-rank record vectors, parsed upfront so the
// replay actors run a plain in-memory cursor (no IO inside the simulation).
#pragma once

#include <string>
#include <vector>

#include "trace/record.hpp"

namespace smpi::trace {

struct TiTrace {
  int nranks = 0;
  std::string app;
  std::vector<std::vector<TiRecord>> ranks;  // ranks[r] = rank r's records, in order

  long long total_records() const {
    long long total = 0;
    for (const auto& r : ranks) total += static_cast<long long>(r.size());
    return total;
  }
};

// The structural rule every replayable rank obeys: its records start with
// init and end with finalize. One rule for the loader's validation and for
// check_trace (trace/check.hpp), each of which words its own message.
enum class RankShape { kOk, kEmpty, kNoInit, kNoFinalize };
RankShape rank_shape(const std::vector<TiRecord>& records);

// Throws util::ContractError on a missing/malformed trace. By default the
// trace is also validated structurally — every rank file present, starting
// with init and ending with finalize — so an interrupted capture is rejected
// up front (with rank, path, line) instead of deadlocking a replay.
// `validate = false` loads whatever is there (ti_inspect uses it to diagnose
// exactly such broken traces).
TiTrace load_ti_trace(const std::string& dir, bool validate = true);

}  // namespace smpi::trace
