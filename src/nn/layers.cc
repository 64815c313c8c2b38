#include "src/nn/layers.h"

#include <cmath>

#include "src/nn/init.h"
#include "src/tensor/arena.h"
#include "src/tensor/ops.h"

namespace edsr::nn {

using tensor::Tensor;

namespace {

// Kaiming-uniform weights and a uniform bias in +-1/sqrt(fan_in); all zeros
// without an rng, which draws nothing (Encoder::CopyOf's twins).
Tensor InitWeight(const tensor::Shape& shape, int64_t fan_in, util::Rng* rng) {
  return rng != nullptr ? KaimingUniform(shape, fan_in, rng)
                        : Tensor::Zeros(shape);
}

Tensor InitBias(int64_t size, int64_t fan_in, util::Rng* rng) {
  if (rng == nullptr) return Tensor::Zeros({size});
  float bound = 1.0f / std::sqrt(static_cast<float>(fan_in));
  return Tensor::Rand({size}, rng, -bound, bound);
}

}  // namespace

// ---- Linear ----------------------------------------------------------------

Linear::Linear(int64_t in_features, int64_t out_features, util::Rng* rng,
               bool bias)
    : in_features_(in_features), out_features_(out_features) {
  EDSR_CHECK_GT(in_features, 0);
  EDSR_CHECK_GT(out_features, 0);
  weight_ = RegisterParameter(
      "weight", InitWeight({in_features, out_features}, in_features, rng));
  if (bias) {
    bias_ = RegisterParameter("bias",
                              InitBias(out_features, in_features, rng));
  }
}

Tensor Linear::Forward(const Tensor& input) {
  EDSR_CHECK_EQ(input.dim(), 2) << "Linear expects (n, in) input";
  EDSR_CHECK_EQ(input.shape()[1], in_features_);
  return tensor::Linear(input, weight_, bias_);
}

// ---- Conv2dLayer --------------------------------------------------------------

Conv2dLayer::Conv2dLayer(int64_t in_channels, int64_t out_channels,
                         int64_t kernel, int64_t stride, int64_t padding,
                         util::Rng* rng, bool bias)
    : spec_{stride, padding} {
  int64_t fan_in = in_channels * kernel * kernel;
  weight_ = RegisterParameter(
      "weight",
      InitWeight({out_channels, in_channels, kernel, kernel}, fan_in, rng));
  if (bias) {
    bias_ = RegisterParameter("bias", InitBias(out_channels, fan_in, rng));
  }
}

Tensor Conv2dLayer::Forward(const Tensor& input) {
  return tensor::Conv2d(input, weight_, bias_, spec_);
}

// ---- BatchNorm1d / BatchNorm2d ------------------------------------------------

namespace {
// Shared forward of both BatchNorm layers: one tensor::BatchNorm node, and
// in training mode an update of the running statistics (outside the graph)
// from the batch statistics it reports.
Tensor BatchNormForward(const Tensor& input, const Tensor& gamma,
                        const Tensor& beta, Tensor* running_mean,
                        Tensor* running_var, bool training, float momentum,
                        float eps) {
  float* rm = running_mean->mutable_data().data();
  float* rv = running_var->mutable_data().data();
  if (!training) {
    return tensor::BatchNorm(input, gamma, beta, false, eps, rm, rv);
  }
  int64_t channels = running_mean->numel();
  tensor::arena::Scope scope;
  float* mean = tensor::arena::AllocFloats(channels);
  float* var = tensor::arena::AllocFloats(channels);
  Tensor out = tensor::BatchNorm(input, gamma, beta, true, eps, mean, var);
  for (int64_t i = 0; i < channels; ++i) {
    rm[i] = (1.0f - momentum) * rm[i] + momentum * mean[i];
    rv[i] = (1.0f - momentum) * rv[i] + momentum * var[i];
  }
  return out;
}
}  // namespace

BatchNorm1d::BatchNorm1d(int64_t features, float momentum, float eps)
    : features_(features), momentum_(momentum), eps_(eps) {
  gamma_ = RegisterParameter("gamma", Tensor::Ones({1, features}));
  beta_ = RegisterParameter("beta", Tensor::Zeros({1, features}));
  running_mean_ = RegisterBuffer("running_mean", Tensor::Zeros({1, features}));
  running_var_ = RegisterBuffer("running_var", Tensor::Ones({1, features}));
}

Tensor BatchNorm1d::Forward(const Tensor& input) {
  EDSR_CHECK_EQ(input.dim(), 2);
  EDSR_CHECK_EQ(input.shape()[1], features_);
  return BatchNormForward(input, gamma_, beta_, &running_mean_, &running_var_,
                          training(), momentum_, eps_);
}

BatchNorm2d::BatchNorm2d(int64_t channels, float momentum, float eps)
    : channels_(channels), momentum_(momentum), eps_(eps) {
  gamma_ = RegisterParameter("gamma", Tensor::Ones({1, channels, 1, 1}));
  beta_ = RegisterParameter("beta", Tensor::Zeros({1, channels, 1, 1}));
  running_mean_ =
      RegisterBuffer("running_mean", Tensor::Zeros({1, channels, 1, 1}));
  running_var_ =
      RegisterBuffer("running_var", Tensor::Ones({1, channels, 1, 1}));
}

Tensor BatchNorm2d::Forward(const Tensor& input) {
  EDSR_CHECK_EQ(input.dim(), 4);
  EDSR_CHECK_EQ(input.shape()[1], channels_);
  return BatchNormForward(input, gamma_, beta_, &running_mean_, &running_var_,
                          training(), momentum_, eps_);
}

// ---- ReLU / Sequential ----------------------------------------------------------------

Tensor ReluLayer::Forward(const Tensor& input) { return tensor::Relu(input); }

Tensor Sequential::Forward(const Tensor& input) {
  Tensor out = input;
  for (auto& layer : layers_) out = layer->Forward(out);
  return out;
}

}  // namespace edsr::nn
