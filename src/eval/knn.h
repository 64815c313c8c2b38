// KNN classifier on frozen representations — the paper's evaluation protocol
// (§IV-A5, following Wu et al.'s instance discrimination): cosine-similarity
// weighted voting, no extra trainable parameters.
#ifndef EDSR_SRC_EVAL_KNN_H_
#define EDSR_SRC_EVAL_KNN_H_

#include <vector>

#include "src/eval/representations.h"

namespace edsr::eval {

struct KnnOptions {
  int64_t k = 20;
  // Softmax temperature for similarity weighting (Wu et al. use 0.07).
  float temperature = 0.1f;
  int64_t num_classes = 0;  // required
};

class KnnClassifier {
 public:
  KnnClassifier(RepresentationMatrix bank, std::vector<int64_t> labels,
                const KnnOptions& options);

  // Predicted class for one L2-normalizable representation row.
  int64_t Predict(const float* representation) const;

  // Fraction of rows whose prediction matches the label.
  double Evaluate(const RepresentationMatrix& queries,
                  const std::vector<int64_t>& labels) const;

  int64_t bank_size() const { return bank_.n; }

 private:
  // Exponentially weighted top-k vote over one row of cosine similarities
  // against the bank. Shared by Predict and the batched Evaluate path.
  // The top k come from tensor::kernels::TopK: a tie at the k-th similarity
  // goes to the lower bank index, so the vote is a function of the row
  // alone (equal across SIMD tiers and thread counts). Equal vote totals go
  // to the lower class id.
  int64_t VoteTopK(const float* sims) const;

  RepresentationMatrix bank_;  // rows L2-normalized at construction
  std::vector<int64_t> labels_;
  KnnOptions options_;
};

}  // namespace edsr::eval

#endif  // EDSR_SRC_EVAL_KNN_H_
