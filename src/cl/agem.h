// A-GEM — Averaged Gradient Episodic Memory (Chaudhry et al., ICLR'19),
// an extension baseline from the paper's related work (§II-B, [14]).
//
// A-GEM stores random old samples and constrains each update: if the new
// batch's gradient g conflicts with the memory batch's gradient g_ref
// (⟨g, g_ref⟩ < 0), g is projected onto the half-space of non-increasing
// memory loss:  g ← g − (⟨g, g_ref⟩ / ⟨g_ref, g_ref⟩) g_ref.
// Here both losses are the unsupervised L_css, making this the UCL
// adaptation the paper alludes to when noting GEM-style methods need labels
// (we replace the per-class gradients with contrastive ones).
#ifndef EDSR_SRC_CL_AGEM_H_
#define EDSR_SRC_CL_AGEM_H_

#include "src/cl/memory.h"
#include "src/cl/strategy.h"

namespace edsr::cl {

class Agem : public ContinualStrategy {
 public:
  explicit Agem(const StrategyContext& context);

  const MemoryBuffer& memory() const { return memory_; }
  const MemoryBuffer* replay_memory() const override { return &memory_; }
  // How many updates were projected so far (diagnostics/tests).
  int64_t projections() const { return projections_; }

 protected:
  tensor::Tensor ComputeBatchLoss(const data::Task& task,
                                  const std::vector<int64_t>& indices,
                                  const tensor::Tensor& view1,
                                  const tensor::Tensor& view2) override;
  void BeforeOptimizerStep() override;
  void OnIncrementEnd(const data::Task& task) override;

 private:
  MemoryBuffer memory_;
  // Reference gradient from the memory batch, parameter-aligned.
  std::vector<std::vector<float>> reference_grad_;
  bool reference_valid_ = false;
  int64_t projections_ = 0;
  data::ImageGeometry replay_geometry_;
};

}  // namespace edsr::cl

#endif  // EDSR_SRC_CL_AGEM_H_
