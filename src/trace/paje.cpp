#include "trace/paje.hpp"

#include <algorithm>
#include <cstdio>
#include <vector>

#include "obs/span.hpp"
#include "util/check.hpp"

namespace smpi::trace {

namespace {

// Minimal Paje event-definition header: container/state types plus the four
// event kinds we emit. Numeric aliases follow the ids Paje tools expect.
constexpr const char* kHeader =
    "%EventDef PajeDefineContainerType 0\n"
    "%       Alias string\n"
    "%       Type string\n"
    "%       Name string\n"
    "%EndEventDef\n"
    "%EventDef PajeDefineStateType 1\n"
    "%       Alias string\n"
    "%       Type string\n"
    "%       Name string\n"
    "%EndEventDef\n"
    "%EventDef PajeCreateContainer 2\n"
    "%       Time date\n"
    "%       Alias string\n"
    "%       Type string\n"
    "%       Container string\n"
    "%       Name string\n"
    "%EndEventDef\n"
    "%EventDef PajeDestroyContainer 3\n"
    "%       Time date\n"
    "%       Name string\n"
    "%       Type string\n"
    "%EndEventDef\n"
    "%EventDef PajePushState 4\n"
    "%       Time date\n"
    "%       Container string\n"
    "%       Type string\n"
    "%       Value string\n"
    "%EndEventDef\n"
    "%EventDef PajePopState 5\n"
    "%       Time date\n"
    "%       Container string\n"
    "%       Type string\n"
    "%EndEventDef\n";

struct Event {
  double date;
  int rank;
  const char* state;  // nullptr = pop
};

void add_mpi_calls(const obs::SpanCollector& spans, int rank, std::vector<Event>& events) {
  for (const obs::Span& span : spans.spans(rank)) {
    events.push_back({span.t_start, rank, span.op});
    events.push_back({span.t_end, rank, nullptr});
  }
}

void add_wait_states(const obs::SpanCollector& spans, int rank, std::vector<Event>& events) {
  const auto emit = [&](double t0, double t1, const char* state) {
    if (t1 <= t0) return;
    events.push_back({t0, rank, state});
    events.push_back({t1, rank, nullptr});
  };
  // Group this rank's intervals by owning span (both streams are in program
  // order, so one forward scan suffices).
  const auto& intervals = spans.intervals(rank);
  std::size_t next = 0;
  const auto& rank_spans = spans.spans(rank);
  for (std::size_t s = 0; s < rank_spans.size(); ++s) {
    const obs::Span& span = rank_spans[s];
    double cursor = span.t_start;
    while (next < intervals.size() && intervals[next].span <= static_cast<int>(s)) {
      const obs::BlockedInterval& b = intervals[next];
      if (b.span != static_cast<int>(s)) {  // orphan (no open span): skip
        ++next;
        continue;
      }
      emit(cursor, b.t0, "compute");
      const double fs = b.t0 + b.wait_s();
      emit(b.t0, fs, obs::wait_class_name(b.cls));
      emit(fs, b.t1, "transfer");
      cursor = std::max(cursor, b.t1);
      ++next;
    }
    emit(cursor, span.t_end, "compute");
  }
}

}  // namespace

std::uint64_t write_paje(const obs::SpanCollector& spans, const std::string& path,
                         double finish_time, PajeStates states) {
  std::vector<Event> events;
  for (int rank = 0; rank < spans.nranks(); ++rank) {
    if (states == PajeStates::kMpiCalls) {
      add_mpi_calls(spans, rank, events);
    } else {
      add_wait_states(spans, rank, events);
    }
  }
  // Paje wants globally non-decreasing dates. Events were appended rank-major
  // in per-rank order; a stable sort by date preserves each rank's pop-
  // before-push sequencing at shared dates.
  std::stable_sort(events.begin(), events.end(),
                   [](const Event& a, const Event& b) { return a.date < b.date; });

  std::FILE* file = std::fopen(path.c_str(), "w");
  SMPI_REQUIRE(file != nullptr, "cannot open paje trace file: " + path);
  std::fputs(kHeader, file);
  std::fprintf(file, "0 CT_Sim 0 \"Simulation\"\n");
  std::fprintf(file, "0 CT_Proc CT_Sim \"MPI Process\"\n");
  std::fprintf(file, "1 ST_MPI CT_Proc \"MPI_STATE\"\n");
  std::fprintf(file, "2 %.9f sim CT_Sim 0 \"simulation\"\n", 0.0);
  for (int rank = 0; rank < spans.nranks(); ++rank) {
    std::fprintf(file, "2 %.9f rank-%d CT_Proc sim \"rank-%d\"\n", 0.0, rank, rank);
  }
  for (const Event& event : events) {
    if (event.state != nullptr) {
      std::fprintf(file, "4 %.9f rank-%d ST_MPI \"%s\"\n", event.date, event.rank, event.state);
    } else {
      std::fprintf(file, "5 %.9f rank-%d ST_MPI\n", event.date, event.rank);
    }
  }
  const double end = std::max(finish_time, events.empty() ? 0.0 : events.back().date);
  for (int rank = 0; rank < spans.nranks(); ++rank) {
    std::fprintf(file, "3 %.9f rank-%d CT_Proc\n", end, rank);
  }
  std::fprintf(file, "3 %.9f sim CT_Sim\n", end);
  std::fclose(file);
  return events.size();
}

}  // namespace smpi::trace
