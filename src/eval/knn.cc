#include "src/eval/knn.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <utility>

#include "src/obs/trace.h"
#include "src/tensor/arena.h"
#include "src/tensor/kernels.h"
#include "src/util/check.h"
#include "src/util/threadpool.h"

namespace edsr::eval {

namespace {
void NormalizeRows(RepresentationMatrix* m) {
  for (int64_t i = 0; i < m->n; ++i) {
    tensor::kernels::NormalizeL2(m->d, m->values.data() + i * m->d);
  }
}
}  // namespace

KnnClassifier::KnnClassifier(RepresentationMatrix bank,
                             std::vector<int64_t> labels,
                             const KnnOptions& options)
    : bank_(std::move(bank)), labels_(std::move(labels)), options_(options) {
  EDSR_CHECK_EQ(bank_.n, static_cast<int64_t>(labels_.size()));
  EDSR_CHECK_GT(bank_.n, 0);
  EDSR_CHECK_GT(options_.num_classes, 0) << "KnnOptions.num_classes required";
  EDSR_CHECK_GT(options_.k, 0);
  NormalizeRows(&bank_);
}

int64_t KnnClassifier::VoteTopK(const float* sims) const {
  tensor::arena::Scope scope;
  int64_t k = std::min(options_.k, bank_.n);
  int64_t* top = tensor::arena::AllocInt64(k);
  tensor::kernels::TopK(sims, bank_.n, k, top);

  // Exponentially weighted vote among the top-k, in rank order.
  double* votes = tensor::arena::AllocDoubles(options_.num_classes);
  std::fill(votes, votes + options_.num_classes, 0.0);
  for (int64_t i = 0; i < k; ++i) {
    votes[labels_[top[i]]] += std::exp(sims[top[i]] / options_.temperature);
  }
  return std::max_element(votes, votes + options_.num_classes) - votes;
}

int64_t KnnClassifier::Predict(const float* representation) const {
  // Normalize the query.
  std::vector<float> q(representation, representation + bank_.d);
  tensor::kernels::NormalizeL2(bank_.d, q.data());

  tensor::arena::Scope scope;
  float* sims = tensor::arena::AllocFloats(bank_.n);
  tensor::kernels::PairwiseSqDist(q.data(), 1, bank_.values.data(), bank_.n,
                                  bank_.d, sims);
  // Both rows are unit-norm, so ||q - b||^2 = 2 - 2 cos; recover the cosine.
  for (int64_t i = 0; i < bank_.n; ++i) sims[i] = 1.0f - 0.5f * sims[i];
  return VoteTopK(sims);
}

double KnnClassifier::Evaluate(const RepresentationMatrix& queries,
                               const std::vector<int64_t>& labels) const {
  EDSR_TRACE_SPAN("knn_eval");
  EDSR_CHECK_EQ(queries.n, static_cast<int64_t>(labels.size()));
  EDSR_CHECK_EQ(queries.d, bank_.d);
  EDSR_CHECK_GT(queries.n, 0);

  // Normalize a copy of the queries, then score every query against the
  // whole bank in one GEMM-backed pairwise pass instead of per-row Dot loops.
  RepresentationMatrix normed = queries;
  NormalizeRows(&normed);
  tensor::arena::Scope scope;
  float* dist = tensor::arena::AllocFloats(queries.n * bank_.n);
  tensor::kernels::PairwiseSqDist(normed.values.data(), normed.n,
                                  bank_.values.data(), bank_.n, bank_.d, dist);
  // The vote loop fans out over query blocks; each row votes independently
  // and the correct-count is an integer sum, so the result is identical at
  // every thread count.
  std::atomic<int64_t> correct{0};
  util::ParallelFor(0, queries.n, /*grain=*/16, [&](int64_t i0, int64_t i1) {
    int64_t local = 0;
    for (int64_t i = i0; i < i1; ++i) {
      float* row = dist + i * bank_.n;
      for (int64_t j = 0; j < bank_.n; ++j) row[j] = 1.0f - 0.5f * row[j];
      if (VoteTopK(row) == labels[i]) ++local;
    }
    correct.fetch_add(local, std::memory_order_relaxed);
  });
  return static_cast<double>(correct.load()) /
         static_cast<double>(queries.n);
}

}  // namespace edsr::eval
