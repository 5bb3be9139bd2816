// Machine-readable bench output: a tiny JSON writer so the perf trajectory
// of the kernels can be tracked across PRs without scraping stdout tables.
//
// Every record is {op, n, wall_ns}: `op` names the measured operation, `n`
// its problem size (flows, ranks, ...), `wall_ns` the host wall-clock cost.
// A record may carry extra numeric fields after those three (repetition
// statistics, memory); tools/bench_trend.py reads only the first three.
// The file is an array of such records, written atomically on save().
#pragma once

#include <cstdio>
#include <string>
#include <utility>
#include <vector>

namespace bench {

class JsonWriter {
 public:
  explicit JsonWriter(std::string path) : path_(std::move(path)) {}

  using Extras = std::vector<std::pair<std::string, double>>;

  void add(const std::string& op, long long n, double wall_ns, Extras extras = {}) {
    records_.push_back(Record{op, n, wall_ns, std::move(extras)});
  }

  // Writes the collected records; returns false (and keeps them) on IO error.
  bool save() const {
    const std::string tmp = path_ + ".tmp";
    std::FILE* f = std::fopen(tmp.c_str(), "w");
    if (f == nullptr) return false;
    std::fprintf(f, "[\n");
    for (std::size_t i = 0; i < records_.size(); ++i) {
      const Record& r = records_[i];
      std::fprintf(f, "  {\"op\": \"%s\", \"n\": %lld, \"wall_ns\": %.1f",
                   escaped(r.op).c_str(), r.n, r.wall_ns);
      for (const auto& [key, value] : r.extras) {
        std::fprintf(f, ", \"%s\": %.6g", escaped(key).c_str(), value);
      }
      std::fprintf(f, "}%s\n", i + 1 < records_.size() ? "," : "");
    }
    std::fprintf(f, "]\n");
    std::fclose(f);
    if (std::rename(tmp.c_str(), path_.c_str()) != 0) {
      std::remove(tmp.c_str());
      return false;
    }
    std::printf("wrote %zu record(s) to %s\n", records_.size(), path_.c_str());
    return true;
  }

  std::size_t record_count() const { return records_.size(); }

 private:
  struct Record {
    std::string op;
    long long n;
    double wall_ns;
    Extras extras;
  };

  static std::string escaped(const std::string& s) {
    std::string out;
    for (char c : s) {
      if (c == '"' || c == '\\') out.push_back('\\');
      out.push_back(c);
    }
    return out;
  }

  std::string path_;
  std::vector<Record> records_;
};

}  // namespace bench
