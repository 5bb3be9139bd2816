#include "apps/dt.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>

#include "smpi/mpi.h"
#include "util/check.hpp"
#include "util/rng.hpp"

namespace smpi::apps {
namespace {

// Layer widths per graph/class. BH converges by factors of 4 down to one
// node, WH is the mirror image, SH keeps a constant width.
std::vector<int> layer_widths(DtGraph graph, DtClass cls) {
  const int index = static_cast<int>(cls);  // S=0 .. C=4
  switch (graph) {
    case DtGraph::kBlackHole: {
      std::vector<int> widths;
      for (int w = 4 << index; w > 1; w /= 4) widths.push_back(w);
      widths.push_back(1);
      return widths;
    }
    case DtGraph::kWhiteHole: {
      std::vector<int> widths = layer_widths(DtGraph::kBlackHole, cls);
      std::reverse(widths.begin(), widths.end());
      return widths;
    }
    case DtGraph::kShuffle: {
      const int width = 4 << index;
      return std::vector<int>(static_cast<std::size_t>(index) + 3, width);
    }
  }
  SMPI_UNREACHABLE("bad graph kind");
}

}  // namespace

const char* dt_graph_name(DtGraph graph) {
  switch (graph) {
    case DtGraph::kBlackHole:
      return "BH";
    case DtGraph::kWhiteHole:
      return "WH";
    case DtGraph::kShuffle:
      return "SH";
  }
  return "?";
}

char dt_class_name(DtClass cls) { return "SWABC"[static_cast<int>(cls)]; }

int dt_process_count(DtGraph graph, DtClass cls) {
  int total = 0;
  for (int w : layer_widths(graph, cls)) total += w;
  return total;
}

std::size_t dt_feature_elements(DtClass cls) {
  // NAS DT grows the payload by 8x per class, starting at 1728 doubles.
  std::size_t elements = 1728;
  for (int i = 0; i < static_cast<int>(cls); ++i) elements *= 8;
  return elements;
}

std::size_t DtParams::feature_length() const {
  auto scaled = static_cast<std::size_t>(
      std::llround(static_cast<double>(dt_feature_elements(cls)) * scale));
  if (scaled < 16) scaled = 16;
  return (scaled + 3) / 4 * 4;  // SH splits streams in four
}

std::size_t dt_node_elements(DtGraph graph, DtClass cls, int layer, std::size_t base_elements) {
  // The data a node holds after combining its inputs:
  //  BH — streams concatenate toward the sink (the "black hole" collects
  //       every source's data for verification): a node of layer l holds the
  //       data of all width(0)/width(l) sources that feed it;
  //  WH — each node filters one input and duplicates it: always L;
  //  SH — streams are redistributed, not amplified: always L.
  if (graph == DtGraph::kBlackHole) {
    const auto widths = layer_widths(graph, cls);
    return base_elements * static_cast<std::size_t>(widths.front() /
                                                    widths[static_cast<std::size_t>(layer)]);
  }
  return base_elements;
}

std::size_t dt_edge_elements(DtGraph graph, DtClass cls, int from_layer,
                             std::size_t base_elements) {
  switch (graph) {
    case DtGraph::kBlackHole:
      // The whole accumulated stream moves up.
      return dt_node_elements(graph, cls, from_layer, base_elements);
    case DtGraph::kWhiteHole:
      return base_elements;  // duplicated to every successor
    case DtGraph::kShuffle:
      return base_elements / 4;  // split across the four successors
  }
  SMPI_UNREACHABLE("bad graph kind");
}

int DtGraphSpec::source_count() const {
  int count = 0;
  for (const auto& preds : predecessors) {
    if (preds.empty()) ++count;
  }
  return count;
}

int DtGraphSpec::sink_count() const {
  int count = 0;
  for (const auto& succs : successors) {
    if (succs.empty()) ++count;
  }
  return count;
}

DtGraphSpec build_dt_graph(DtGraph graph, DtClass cls) {
  const auto widths = layer_widths(graph, cls);
  // Node ids are assigned layer by layer.
  std::vector<int> layer_start;
  int total = 0;
  for (int w : widths) {
    layer_start.push_back(total);
    total += w;
  }
  DtGraphSpec spec;
  spec.predecessors.resize(static_cast<std::size_t>(total));
  spec.successors.resize(static_cast<std::size_t>(total));
  spec.layer.resize(static_cast<std::size_t>(total));
  for (std::size_t l = 0; l < widths.size(); ++l) {
    for (int j = 0; j < widths[l]; ++j) {
      spec.layer[static_cast<std::size_t>(layer_start[l] + j)] = static_cast<int>(l);
    }
  }
  auto connect = [&spec](int from, int to) {
    spec.successors[static_cast<std::size_t>(from)].push_back(to);
    spec.predecessors[static_cast<std::size_t>(to)].push_back(from);
  };
  for (std::size_t l = 0; l + 1 < widths.size(); ++l) {
    const int wa = widths[l];
    const int wb = widths[l + 1];
    const int a0 = layer_start[l];
    const int b0 = layer_start[l + 1];
    if (wb < wa) {
      // Converging (BH): node j of the next layer eats a contiguous group.
      const int fan = wa / wb;
      for (int j = 0; j < wa; ++j) connect(a0 + j, b0 + j / fan);
    } else if (wb > wa) {
      // Diverging (WH): node j of this layer feeds a contiguous group.
      const int fan = wb / wa;
      for (int j = 0; j < wb; ++j) connect(a0 + j / fan, b0 + j);
    } else {
      // Shuffle: 4 predecessors per node, perfect-shuffle pattern.
      for (int j = 0; j < wb; ++j) {
        for (int k = 0; k < 4; ++k) connect(a0 + (4 * j + k) % wa, b0 + j);
      }
    }
  }
  return spec;
}

namespace {

double g_last_checksum = 0;

void fill_source_features(std::uint64_t node, const DtParams& params, double* out,
                          std::size_t len) {
  util::NasLcg lcg(util::NasLcg::kDefaultSeed);
  lcg.skip((node + 1 + params.seed_offset) * 97);
  for (std::size_t i = 0; i < len; ++i) out[i] = lcg.randlc() - 0.5;
}

double checksum_features(const double* data, std::size_t len) {
  double sum = 0;
  for (std::size_t i = 0; i < len; ++i) sum += std::fabs(data[i]);
  return sum;
}

// What a node sends on the edge to its k-th successor.
const double* edge_payload(DtGraph graph, const double* features, std::size_t edge_len,
                           std::size_t successor_index) {
  if (graph == DtGraph::kShuffle) return features + successor_index * edge_len;
  (void)edge_len;
  return features;  // BH: the whole stream; WH: a duplicate of the stream
}

}  // namespace

double dt_last_checksum() { return g_last_checksum; }

core::MpiMain make_dt_app(const DtParams& params) {
  return [params](int /*argc*/, char** /*argv*/) {
    MPI_Init(nullptr, nullptr);
    int rank = -1, size = -1;
    MPI_Comm_rank(MPI_COMM_WORLD, &rank);
    MPI_Comm_size(MPI_COMM_WORLD, &size);
    const DtGraphSpec spec = build_dt_graph(params.graph, params.cls);
    SMPI_REQUIRE(size == spec.node_count(), "DT needs one process per graph node");
    const std::size_t base = params.feature_length();
    const int my_layer = spec.layer[static_cast<std::size_t>(rank)];
    const std::size_t my_elements = dt_node_elements(params.graph, params.cls, my_layer, base);
    const std::size_t my_bytes = my_elements * sizeof(double);

    auto allocate = [&params](std::size_t bytes, const char* file, int line) -> double* {
      // RAM folding (§3.2) shares one buffer per call site across all ranks,
      // which wrecks the numeric result but preserves the communication
      // behaviour — exactly the paper's trade-off.
      return static_cast<double*>(params.fold_memory ? smpi_shared_malloc(bytes, file, line)
                                                     : smpi_malloc(bytes));
    };
    auto release = [&params](double* ptr) {
      if (params.fold_memory) {
        smpi_shared_free(ptr);
      } else {
        smpi_free(ptr);
      }
    };

    double* features = allocate(my_bytes, __FILE__, __LINE__);
    const auto& preds = spec.predecessors[static_cast<std::size_t>(rank)];
    const auto& succs = spec.successors[static_cast<std::size_t>(rank)];
    const double element_cost = params.flops_per_element;

    if (preds.empty()) {
      fill_source_features(static_cast<std::uint64_t>(rank), params, features, my_elements);
      smpi_execute_flops(static_cast<double>(my_elements) * element_cost);
    } else {
      // Receive every predecessor's stream directly into my buffer
      // (concatenated in predecessor order), then pay the filtering cost
      // (user-supplied flops — the paper's n = 0 sampling mode, §3.1).
      const std::size_t in_len = dt_edge_elements(params.graph, params.cls, my_layer - 1, base);
      SMPI_ENSURE(in_len * preds.size() == my_elements, "DT stream lengths out of balance");
      std::vector<MPI_Request> requests(preds.size());
      for (std::size_t p = 0; p < preds.size(); ++p) {
        MPI_Irecv(features + p * in_len, static_cast<int>(in_len), MPI_DOUBLE, preds[p], 0,
                  MPI_COMM_WORLD, &requests[p]);
      }
      MPI_Waitall(static_cast<int>(requests.size()), requests.data(), MPI_STATUSES_IGNORE);
      smpi_execute_flops(static_cast<double>(my_elements) * element_cost);
    }

    if (succs.empty()) {
      // Sink: verify (checksum) and reduce to the last rank.
      const double local = checksum_features(features, my_elements);
      smpi_execute_flops(static_cast<double>(my_elements) * element_cost);
      double total = 0;
      MPI_Reduce(&local, &total, 1, MPI_DOUBLE, MPI_SUM, size - 1, MPI_COMM_WORLD);
      if (rank == size - 1) g_last_checksum = total;
    } else {
      const std::size_t out_len = dt_edge_elements(params.graph, params.cls, my_layer, base);
      std::vector<MPI_Request> requests(succs.size());
      for (std::size_t s = 0; s < succs.size(); ++s) {
        MPI_Isend(edge_payload(params.graph, features, out_len, s), static_cast<int>(out_len),
                  MPI_DOUBLE, succs[s], 0, MPI_COMM_WORLD, &requests[s]);
      }
      MPI_Waitall(static_cast<int>(requests.size()), requests.data(), MPI_STATUSES_IGNORE);
      const double zero = 0;
      double ignored = 0;
      MPI_Reduce(&zero, &ignored, 1, MPI_DOUBLE, MPI_SUM, size - 1, MPI_COMM_WORLD);
    }

    release(features);
    MPI_Finalize();
  };
}

double dt_reference_checksum(const DtParams& params) {
  const DtGraphSpec spec = build_dt_graph(params.graph, params.cls);
  const std::size_t base = params.feature_length();
  // Nodes are numbered layer by layer and every predecessor sits in the layer
  // before, so only that layer's streams need to stay alive.
  std::vector<std::vector<double>> previous, current;
  int previous_first = 0, current_first = 0, current_layer = 0;
  double checksum = 0;
  for (int node = 0; node < spec.node_count(); ++node) {
    const int layer = spec.layer[static_cast<std::size_t>(node)];
    if (layer != current_layer) {
      previous = std::move(current);
      current.clear();
      previous_first = current_first;
      current_first = node;
      current_layer = layer;
    }
    auto& mine = current.emplace_back(dt_node_elements(params.graph, params.cls, layer, base));
    const auto& preds = spec.predecessors[static_cast<std::size_t>(node)];
    if (preds.empty()) {
      fill_source_features(static_cast<std::uint64_t>(node), params, mine.data(), mine.size());
    } else {
      const std::size_t in_len = dt_edge_elements(params.graph, params.cls, layer - 1, base);
      for (std::size_t p = 0; p < preds.size(); ++p) {
        const auto& src = previous[static_cast<std::size_t>(preds[p] - previous_first)];
        // Which slice of the predecessor's stream reaches me?
        const auto& pred_succs = spec.successors[static_cast<std::size_t>(preds[p])];
        std::size_t my_index = 0;
        for (std::size_t s = 0; s < pred_succs.size(); ++s) {
          if (pred_succs[s] == node) my_index = s;
        }
        const double* payload =
            params.graph == DtGraph::kShuffle ? src.data() + my_index * in_len : src.data();
        std::memcpy(mine.data() + p * in_len, payload, in_len * sizeof(double));
      }
    }
    if (spec.successors[static_cast<std::size_t>(node)].empty()) {
      checksum += checksum_features(mine.data(), mine.size());
    }
  }
  return checksum;
}

}  // namespace smpi::apps
