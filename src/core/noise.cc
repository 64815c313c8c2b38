#include "src/core/noise.h"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "src/tensor/arena.h"
#include "src/tensor/kernels.h"
#include "src/util/check.h"

namespace edsr::core {

std::vector<int64_t> NearestNeighbors(const eval::RepresentationMatrix& reps,
                                      int64_t index, int64_t k) {
  EDSR_CHECK(index >= 0 && index < reps.n);
  k = std::min<int64_t>(k, reps.n - 1);
  if (k <= 0) return {};
  // Anchor-vs-all distances in one GEMM-backed pass.
  tensor::arena::Scope scope;
  float* dist = tensor::arena::AllocFloats(reps.n);
  tensor::kernels::PairwiseSqDist(reps.Row(index), 1, reps.values.data(),
                                  reps.n, reps.d, dist);
  // Nearest first is largest first on the negated distances (negation is
  // exact), with ties in index order. The anchor's slot is squeezed out, so
  // slot i holds row i + (i >= index) and index order is kept.
  int64_t m = 0;
  for (int64_t i = 0; i < reps.n; ++i) {
    if (i != index) dist[m++] = -dist[i];
  }
  std::vector<int64_t> neighbors(k);
  tensor::kernels::TopK(dist, m, k, neighbors.data());
  for (int64_t& i : neighbors) i += i >= index;
  return neighbors;
}

std::vector<float> KnnNoiseScale(const eval::RepresentationMatrix& reps,
                                 int64_t index, int64_t k) {
  std::vector<float> scale(reps.d, 0.0f);
  std::vector<int64_t> neighbors = NearestNeighbors(reps, index, k);
  if (neighbors.size() < 2) return scale;  // std undefined below 2 points
  for (int64_t j = 0; j < reps.d; ++j) {
    double mean = 0.0;
    for (int64_t i : neighbors) mean += reps.Row(i)[j];
    mean /= static_cast<double>(neighbors.size());
    double var = 0.0;
    for (int64_t i : neighbors) {
      double diff = reps.Row(i)[j] - mean;
      var += diff * diff;
    }
    var /= static_cast<double>(neighbors.size());
    scale[j] = static_cast<float>(std::sqrt(var));
  }
  return scale;
}

}  // namespace edsr::core
