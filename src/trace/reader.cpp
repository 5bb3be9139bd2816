#include "trace/reader.hpp"

#include <fstream>
#include <sstream>

#include "util/check.hpp"

namespace smpi::trace {

RankShape rank_shape(const std::vector<TiRecord>& records) {
  if (records.empty()) return RankShape::kEmpty;
  if (records.front().op != TiOp::kInit) return RankShape::kNoInit;
  if (records.back().op != TiOp::kFinalize) return RankShape::kNoFinalize;
  return RankShape::kOk;
}

TiTrace load_ti_trace(const std::string& dir, bool validate) {
  TiTrace trace;
  {
    std::ifstream manifest(dir + "/manifest.txt");
    SMPI_REQUIRE(manifest.good(), "trace manifest not found: " + dir + "/manifest.txt");
    std::string magic;
    int version = 0;
    manifest >> magic >> version;
    SMPI_REQUIRE(magic == "smpi-ti" && version == 1, "unsupported trace format");
    std::string key;
    while (manifest >> key) {
      if (key == "ranks") {
        manifest >> trace.nranks;
      } else if (key == "app") {
        manifest >> trace.app;
      } else {
        std::string ignored;
        std::getline(manifest, ignored);
      }
    }
    SMPI_REQUIRE(trace.nranks > 0, "trace manifest has no ranks");
  }

  trace.ranks.resize(static_cast<std::size_t>(trace.nranks));
  for (int rank = 0; rank < trace.nranks; ++rank) {
    const std::string path = dir + "/rank_" + std::to_string(rank) + ".ti";
    std::ifstream in(path);
    SMPI_REQUIRE(in.good(), "trace file missing for rank " + std::to_string(rank) + ": " + path +
                                " (manifest declares " + std::to_string(trace.nranks) +
                                " ranks)");
    auto& records = trace.ranks[static_cast<std::size_t>(rank)];
    std::string line;
    long long line_no = 0;
    long long last_record_line = 0;
    while (std::getline(in, line)) {
      ++line_no;
      if (line.empty() || line[0] == '#') continue;
      TiRecord record;
      SMPI_REQUIRE(parse_record(line, &record),
                   "malformed trace record at " + path + ":" + std::to_string(line_no) + ": " +
                       line);
      last_record_line = line_no;
      records.push_back(std::move(record));
    }
    // Structural validation, up front: a replay of a trace that stops short
    // of finalize deadlocks deep inside the simulation (peers wait on
    // messages that are never re-issued), so reject it here with the rank,
    // the path, and where the file ends.
    if (!validate) continue;
    const RankShape shape = rank_shape(records);
    SMPI_REQUIRE(shape != RankShape::kEmpty,
                 "trace for rank " + std::to_string(rank) + " is empty: " + path);
    SMPI_REQUIRE(shape != RankShape::kNoInit,
                 "trace for rank " + std::to_string(rank) + " does not start with init: " + path +
                     " (first record '" + ti_op_name(records.front().op) + "')");
    SMPI_REQUIRE(shape != RankShape::kNoFinalize,
                 "trace for rank " + std::to_string(rank) + " is truncated: " + path +
                     " ends at line " + std::to_string(last_record_line) + " with '" +
                     ti_op_name(records.back().op) +
                     "' (expected finalize — was the capture interrupted?)");
  }
  return trace;
}

}  // namespace smpi::trace
