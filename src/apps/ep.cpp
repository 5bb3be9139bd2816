#include "apps/ep.hpp"

#include <cmath>

#include "smpi/mpi.h"
#include "util/check.hpp"
#include "util/rng.hpp"

namespace smpi::apps {
namespace {

EpResult g_last_result;

// 2^log2_pairs; a shift by a negative or too wide count is undefined.
std::uint64_t total_pairs(const EpParams& params) {
  SMPI_REQUIRE(params.log2_pairs >= 0 && params.log2_pairs < 64, "log2_pairs must be in [0, 63]");
  return std::uint64_t{1} << params.log2_pairs;
}

// Process `pairs` pairs starting at stream offset `first_pair`, accumulating
// into `result`. This is the real NAS EP inner loop (Marsaglia polar).
void ep_kernel(std::uint64_t first_pair, std::uint64_t pairs, EpResult* result) {
  util::NasLcg lcg;
  lcg.skip(2 * first_pair);
  for (std::uint64_t i = 0; i < pairs; ++i) {
    const double x = 2.0 * lcg.randlc() - 1.0;
    const double y = 2.0 * lcg.randlc() - 1.0;
    const double t = x * x + y * y;
    if (t > 1.0 || t == 0.0) continue;
    const double factor = std::sqrt(-2.0 * std::log(t) / t);
    const double gx = x * factor;
    const double gy = y * factor;
    const auto ring = static_cast<int>(std::max(std::fabs(gx), std::fabs(gy)));
    if (ring < 10) {
      result->annuli[static_cast<std::size_t>(ring)] += 1;
      result->sum_x += gx;
      result->sum_y += gy;
    }
  }
}

}  // namespace

long long EpResult::gaussian_pairs() const {
  long long total = 0;
  for (long long c : annuli) total += c;
  return total;
}

int ep_sample_budget(const EpParams& params) {
  SMPI_REQUIRE(params.sampling_ratio > 0 && params.sampling_ratio <= 1,
               "sampling ratio must be in (0, 1]");
  const int budget = static_cast<int>(std::ceil(params.sampling_ratio * params.batches));
  return budget < 1 ? 1 : budget;
}

EpResult ep_last_result() { return g_last_result; }

core::MpiMain make_ep_app(const EpParams& params) {
  const std::uint64_t all_pairs = total_pairs(params);
  const int budget = ep_sample_budget(params);
  return [params, all_pairs, budget](int /*argc*/, char** /*argv*/) {
    MPI_Init(nullptr, nullptr);
    int rank = -1, size = -1;
    MPI_Comm_rank(MPI_COMM_WORLD, &rank);
    MPI_Comm_size(MPI_COMM_WORLD, &size);
    const std::uint64_t my_pairs = all_pairs / static_cast<std::uint64_t>(size);
    const std::uint64_t my_first = my_pairs * static_cast<std::uint64_t>(rank);
    const auto batches = static_cast<std::uint64_t>(params.batches);
    const std::uint64_t per_batch = my_pairs / batches;

    EpResult local;
    for (std::uint64_t b = 0; b < batches; ++b) {
      // The sampled CPU burst: executed for the first `budget` iterations,
      // then folded into the measured mean delay (§3.1). Folded batches do
      // not update `local` — EP's statistics tolerate it, which is why the
      // paper calls this acceptable for regular applications only.
      SMPI_SAMPLE_LOCAL(budget) {
        ep_kernel(my_first + b * per_batch, per_batch, &local);
      }
    }

    EpResult global;
    MPI_Allreduce(&local.sum_x, &global.sum_x, 1, MPI_DOUBLE, MPI_SUM, MPI_COMM_WORLD);
    MPI_Allreduce(&local.sum_y, &global.sum_y, 1, MPI_DOUBLE, MPI_SUM, MPI_COMM_WORLD);
    MPI_Allreduce(local.annuli.data(), global.annuli.data(), 10, MPI_LONG_LONG, MPI_SUM,
                  MPI_COMM_WORLD);
    if (rank == 0) g_last_result = global;
    MPI_Finalize();
  };
}

EpResult ep_reference(const EpParams& params) {
  EpResult result;
  ep_kernel(0, total_pairs(params), &result);
  return result;
}

}  // namespace smpi::apps
