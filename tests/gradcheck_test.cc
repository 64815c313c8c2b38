// Finite-difference gradient checks covering every public differentiable op
// in ops.h and conv.h. tensor_test.cc exercises op semantics; this file is
// the systematic derivative audit (satellite of the kernels refactor, which
// rewrote every backward closure).
#include <cmath>
#include <cstring>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "src/nn/layers.h"
#include "src/tensor/conv.h"
#include "src/tensor/ops.h"
#include "tests/testing_util.h"

namespace edsr {
namespace {

using tensor::Shape;
using tensor::Tensor;
using testing::ExpectGradientsMatch;
using testing::RandomTensor;

// Reduces `t` to a scalar through fixed random weights so every output
// element influences the loss (SumAll alone hides sign errors that cancel).
Tensor WeightedSum(const Tensor& t, uint64_t seed) {
  util::Rng rng(seed);
  std::vector<float> w(t.numel());
  for (float& v : w) v = rng.Uniform(0.5f, 1.5f);
  return tensor::SumAll(t * Tensor::FromVector(std::move(w), t.shape()));
}

// ---- Binary arithmetic ----------------------------------------------------

TEST(Gradcheck, AddSubMulSameShape) {
  util::Rng rng(1);
  Tensor a = RandomTensor({2, 3}, &rng);
  Tensor b = RandomTensor({2, 3}, &rng);
  ExpectGradientsMatch([&] { return WeightedSum(a + b, 10); }, {a, b});
  ExpectGradientsMatch([&] { return WeightedSum(a - b, 11); }, {a, b});
  ExpectGradientsMatch([&] { return WeightedSum(a * b, 12); }, {a, b});
}

TEST(Gradcheck, DivSameShapeAndBroadcast) {
  util::Rng rng(2);
  Tensor a = RandomTensor({2, 3}, &rng);
  // Denominator bounded away from zero.
  Tensor b = RandomTensor({2, 3}, &rng, /*margin=*/0.5f);
  ExpectGradientsMatch([&] { return WeightedSum(a / b, 13); }, {a, b});
  Tensor col = RandomTensor({2, 1}, &rng, /*margin=*/0.5f);
  ExpectGradientsMatch([&] { return WeightedSum(a / col, 14); }, {a, col});
}

TEST(Gradcheck, BroadcastRowColScalar) {
  util::Rng rng(3);
  Tensor a = RandomTensor({3, 4}, &rng);
  Tensor row = RandomTensor({1, 4}, &rng);
  Tensor col = RandomTensor({3, 1}, &rng);
  Tensor scalar = RandomTensor({1}, &rng);
  ExpectGradientsMatch([&] { return WeightedSum(a + row, 15); }, {a, row});
  ExpectGradientsMatch([&] { return WeightedSum(a * col, 16); }, {a, col});
  ExpectGradientsMatch([&] { return WeightedSum(a * scalar, 17); },
                       {a, scalar});
}

// Flat offset into a right-aligned, broadcast-stretched input for output
// multi-index `idx` (the textbook per-element definition of broadcasting).
int64_t BroadcastOffset(const Shape& in, const Shape& out,
                        const std::vector<int64_t>& idx) {
  int64_t offset = 0;
  int64_t lead = static_cast<int64_t>(out.size() - in.size());
  for (size_t d = 0; d < in.size(); ++d) {
    int64_t i = in[d] == 1 ? 0 : idx[lead + d];
    offset = offset * in[d] + i;
  }
  return offset;
}

TEST(Gradcheck, BroadcastRunsMatchNaiveLoopBitwise) {
  // The broadcast kernels walk contiguous runs; results must equal a naive
  // per-element loop bit for bit (forward and both grads, every slot
  // accumulated in row-major output order).
  struct Case {
    Shape a, b;
  };
  const std::vector<Case> cases = {
      {{5, 7}, {1, 7}},        // row
      {{5, 7}, {7}},           // row, lower rank
      {{5, 7}, {5, 1}},        // column
      {{5, 7}, {1}},           // scalar
      {{3, 1, 6}, {3, 4, 6}},  // middle dim
      {{5, 1}, {1, 7}},        // two-sided
      {{2, 3, 4}, {3, 1}},     // column revisited across the leading dim
  };
  util::Rng rng(40);
  for (const Case& c : cases) {
    Tensor a = RandomTensor(c.a, &rng, /*margin=*/0.5f);
    Tensor b = RandomTensor(c.b, &rng, /*margin=*/0.5f);
    Tensor out = a / b;
    const Shape& os = out.shape();
    int64_t n = out.numel();
    std::vector<float> w(n);
    for (float& v : w) v = rng.Uniform(-1.5f, 1.5f);
    a.ZeroGrad();
    b.ZeroGrad();
    tensor::SumAll(out * Tensor::FromVector(w, os)).Backward();

    std::vector<float> ref_out(n);
    std::vector<float> ref_ga(a.numel(), 0.0f);
    std::vector<float> ref_gb(b.numel(), 0.0f);
    std::vector<int64_t> idx(os.size(), 0);
    for (int64_t i = 0; i < n; ++i) {
      int64_t ia = BroadcastOffset(c.a, os, idx);
      int64_t ib = BroadcastOffset(c.b, os, idx);
      float x = a.data()[ia];
      float y = b.data()[ib];
      ref_out[i] = x / y;
      ref_ga[ia] += w[i] * (1.0f / y);
      ref_gb[ib] += w[i] * (-x / (y * y));
      for (int64_t d = static_cast<int64_t>(os.size()) - 1; d >= 0; --d) {
        if (++idx[d] < os[d]) break;
        idx[d] = 0;
      }
    }
    std::string label =
        tensor::ShapeToString(c.a) + " / " + tensor::ShapeToString(c.b);
    EXPECT_EQ(std::memcmp(out.data().data(), ref_out.data(),
                          n * sizeof(float)),
              0)
        << label;
    EXPECT_EQ(std::memcmp(a.grad().data(), ref_ga.data(),
                          ref_ga.size() * sizeof(float)),
              0)
        << label;
    EXPECT_EQ(std::memcmp(b.grad().data(), ref_gb.data(),
                          ref_gb.size() * sizeof(float)),
              0)
        << label;
  }
}

TEST(Gradcheck, ScalarOperators) {
  util::Rng rng(4);
  Tensor a = RandomTensor({2, 3}, &rng, /*margin=*/0.5f);
  ExpectGradientsMatch([&] { return WeightedSum(a + 0.7f, 18); }, {a});
  ExpectGradientsMatch([&] { return WeightedSum(a - 0.7f, 19); }, {a});
  ExpectGradientsMatch([&] { return WeightedSum(a * 1.3f, 20); }, {a});
  ExpectGradientsMatch([&] { return WeightedSum(a / 1.3f, 21); }, {a});
  ExpectGradientsMatch([&] { return WeightedSum(2.0f * a, 22); }, {a});
  ExpectGradientsMatch([&] { return WeightedSum(0.5f + a, 23); }, {a});
  ExpectGradientsMatch([&] { return WeightedSum(-a, 24); }, {a});
}

// ---- Unary ----------------------------------------------------------------

TEST(Gradcheck, NegReluAbsLeakyRelu) {
  util::Rng rng(5);
  // Margin keeps inputs away from the kink at 0 (finite differences would
  // straddle it otherwise).
  Tensor a = RandomTensor({2, 5}, &rng, /*margin=*/0.3f);
  ExpectGradientsMatch([&] { return WeightedSum(tensor::Neg(a), 30); }, {a});
  ExpectGradientsMatch([&] { return WeightedSum(tensor::Relu(a), 31); }, {a});
  ExpectGradientsMatch([&] { return WeightedSum(tensor::Abs(a), 32); }, {a});
  ExpectGradientsMatch(
      [&] { return WeightedSum(tensor::LeakyRelu(a, 0.1f), 33); }, {a});
}

TEST(Gradcheck, ReluBackwardPassesUpstreamGradOnlyWherePositive) {
  // x.grad is gy exactly where x > 0 and exactly 0 elsewhere: an inf or NaN
  // upstream grad at x <= 0 contributes 0 (a 0/1 mask multiply would give
  // NaN there).
  const float inf = std::numeric_limits<float>::infinity();
  const float nan = std::numeric_limits<float>::quiet_NaN();
  Tensor x = Tensor::FromVector({1.5f, -2.0f, 0.0f, -0.0f, 3.0f, -1.0f,
                                 -4.0f, 0.25f},
                                {2, 4}, /*requires_grad=*/true);
  const std::vector<float> gy = {0.7f, inf, -inf, nan, -1.25f, nan, 2.0f, inf};
  tensor::SumAll(tensor::Relu(x) * Tensor::FromVector(gy, {2, 4}))
      .Backward();
  const std::vector<float>& gx = x.grad();
  for (int64_t i = 0; i < x.numel(); ++i) {
    float expected = x.data()[i] > 0.0f ? gy[i] : 0.0f;
    EXPECT_EQ(std::memcmp(&gx[i], &expected, sizeof(float)), 0)
        << "element " << i << ": x=" << x.data()[i] << " gy=" << gy[i]
        << " gx=" << gx[i];
  }
}

TEST(Gradcheck, ExpLogSqrt) {
  util::Rng rng(6);
  Tensor a = RandomTensor({2, 4}, &rng);
  Tensor pos = RandomTensor({2, 4}, &rng, /*margin=*/0.5f, /*span=*/1.0f,
                            /*signed_values=*/false);
  ExpectGradientsMatch([&] { return WeightedSum(tensor::Exp(a), 34); }, {a});
  ExpectGradientsMatch([&] { return WeightedSum(tensor::Log(pos), 35); },
                       {pos});
  ExpectGradientsMatch([&] { return WeightedSum(tensor::Sqrt(pos), 36); },
                       {pos});
}

TEST(Gradcheck, TanhSigmoidGelu) {
  util::Rng rng(7);
  Tensor a = RandomTensor({3, 3}, &rng);
  ExpectGradientsMatch([&] { return WeightedSum(tensor::Tanh(a), 37); }, {a});
  ExpectGradientsMatch([&] { return WeightedSum(tensor::Sigmoid(a), 38); },
                       {a});
  ExpectGradientsMatch([&] { return WeightedSum(tensor::Gelu(a), 39); }, {a});
}

TEST(Gradcheck, PowScalarSquare) {
  util::Rng rng(8);
  Tensor pos = RandomTensor({2, 3}, &rng, /*margin=*/0.4f, /*span=*/1.0f,
                            /*signed_values=*/false);
  Tensor a = RandomTensor({2, 3}, &rng);
  ExpectGradientsMatch(
      [&] { return WeightedSum(tensor::PowScalar(pos, 1.7f), 40); }, {pos});
  ExpectGradientsMatch([&] { return WeightedSum(tensor::Square(a), 41); },
                       {a});
}

TEST(Gradcheck, Clamp) {
  util::Rng rng(9);
  // |values| in [0.2, 1.2]; bounds at ±0.9 so some elements saturate (zero
  // grad) and some pass through (unit grad), none near the boundary kink.
  Tensor a = RandomTensor({3, 4}, &rng);
  ExpectGradientsMatch(
      [&] { return WeightedSum(tensor::Clamp(a, -0.9f, 0.9f), 42); }, {a});
}

TEST(Gradcheck, DropoutWithFixedMask) {
  util::Rng data_rng(10);
  Tensor a = RandomTensor({4, 4}, &data_rng);
  // Reseeding inside loss_fn fixes the mask across repeated forward passes,
  // which gradcheck requires.
  auto loss_fn = [&] {
    util::Rng mask_rng(123);
    return WeightedSum(tensor::Dropout(a, 0.3f, &mask_rng), 43);
  };
  ExpectGradientsMatch(loss_fn, {a});
}

// ---- Linear algebra and shape ops ----------------------------------------

TEST(Gradcheck, MatMulTranspose) {
  util::Rng rng(11);
  Tensor a = RandomTensor({3, 4}, &rng);
  Tensor b = RandomTensor({4, 2}, &rng);
  ExpectGradientsMatch([&] { return WeightedSum(tensor::MatMul(a, b), 50); },
                       {a, b});
  ExpectGradientsMatch([&] { return WeightedSum(tensor::Transpose(a), 51); },
                       {a});
}

TEST(Gradcheck, LinearWithAndWithoutBias) {
  util::Rng rng(13);
  Tensor x = RandomTensor({5, 4}, &rng);
  Tensor w = RandomTensor({4, 3}, &rng);
  Tensor b = RandomTensor({3}, &rng);
  ExpectGradientsMatch(
      [&] { return WeightedSum(tensor::Linear(x, w, b), 52); }, {x, w, b});
  ExpectGradientsMatch(
      [&] { return WeightedSum(tensor::Linear(x, w, Tensor()), 53); },
      {x, w});
}

TEST(Gradcheck, LinearMatchesMatMulPlusBiasBitwise) {
  // tensor::Linear must round exactly like the two-node graph it replaced,
  // MatMul(x, W) + b, including gradients accumulated across several uses
  // of the same W and b in one graph (as the two views and the replay batch
  // of a train step do). Widths straddle the 16-column AVX2 panels.
  struct Case {
    int64_t rows, in, out;
  };
  const std::vector<Case> cases = {{16, 24, 32}, {7, 40, 64}, {33, 17, 20}};
  util::Rng rng(41);
  for (const Case& c : cases) {
    Tensor x1 = RandomTensor({c.rows, c.in}, &rng);
    Tensor x2 = RandomTensor({c.rows + 3, c.in}, &rng);
    Tensor w = RandomTensor({c.in, c.out}, &rng);
    Tensor b = RandomTensor({c.out}, &rng);
    std::string label = std::to_string(c.rows) + "x" + std::to_string(c.in) +
                        "x" + std::to_string(c.out);
    for (bool with_bias : {true, false}) {
      Tensor bias = with_bias ? b : Tensor();
      auto run = [&](bool fused) {
        for (Tensor t : {x1, x2, w, b}) t.ZeroGrad();
        auto affine = [&](const Tensor& x) {
          if (fused) return tensor::Linear(x, w, bias);
          Tensor y = tensor::MatMul(x, w);
          return with_bias ? y + bias : y;
        };
        Tensor y1 = affine(x1);
        Tensor y2 = affine(x2);
        (WeightedSum(y1, 86) + WeightedSum(y2, 87)).Backward();
        std::vector<std::vector<float>> result = {
            y1.data(), y2.data(), x1.grad(), x2.grad(), w.grad()};
        if (with_bias) result.push_back(b.grad());
        return result;
      };
      const std::vector<std::vector<float>> ref = run(false);
      const std::vector<std::vector<float>> got = run(true);
      const char* names[] = {"out 1", "out 2", "grad x1", "grad x2",
                             "grad W", "grad b"};
      ASSERT_EQ(got.size(), ref.size());
      for (size_t i = 0; i < ref.size(); ++i) {
        ASSERT_EQ(got[i].size(), ref[i].size()) << label << " " << names[i];
        EXPECT_EQ(std::memcmp(got[i].data(), ref[i].data(),
                              ref[i].size() * sizeof(float)),
                  0)
            << label << (with_bias ? " bias " : " no bias ") << names[i];
      }
    }
  }
}

TEST(Gradcheck, ReshapeNarrow) {
  util::Rng rng(12);
  Tensor a = RandomTensor({2, 6}, &rng);
  ExpectGradientsMatch(
      [&] { return WeightedSum(tensor::Reshape(a, {3, 4}), 52); }, {a});
  ExpectGradientsMatch(
      [&] { return WeightedSum(tensor::Reshape(a, {4, -1}), 53); }, {a});
  ExpectGradientsMatch(
      [&] { return WeightedSum(tensor::Narrow(a, 1, 2, 3), 54); }, {a});
  ExpectGradientsMatch(
      [&] { return WeightedSum(tensor::Narrow(a, 0, 1, 1), 55); }, {a});
}

TEST(Gradcheck, IndexSelectRowsWithDuplicates) {
  util::Rng rng(13);
  Tensor a = RandomTensor({4, 3}, &rng);
  // Row 2 twice: grads must scatter-add.
  std::vector<int64_t> picks = {2, 0, 2, 3};
  ExpectGradientsMatch(
      [&] { return WeightedSum(tensor::IndexSelectRows(a, picks), 56); },
      {a});
}

TEST(Gradcheck, ConcatRows) {
  util::Rng rng(14);
  Tensor a = RandomTensor({2, 3}, &rng);
  Tensor b = RandomTensor({1, 3}, &rng);
  Tensor c = RandomTensor({3, 3}, &rng);
  ExpectGradientsMatch(
      [&] { return WeightedSum(tensor::ConcatRows({a, b, c}), 57); },
      {a, b, c});
}

// ---- Reductions -----------------------------------------------------------

TEST(Gradcheck, SumMeanAll) {
  util::Rng rng(15);
  Tensor a = RandomTensor({3, 4}, &rng);
  ExpectGradientsMatch([&] { return tensor::SumAll(a); }, {a});
  ExpectGradientsMatch([&] { return tensor::MeanAll(a); }, {a});
}

TEST(Gradcheck, SumMeanAxis) {
  util::Rng rng(16);
  Tensor a = RandomTensor({2, 3, 4}, &rng);
  ExpectGradientsMatch([&] { return WeightedSum(tensor::Sum(a, 1), 60); },
                       {a});
  ExpectGradientsMatch(
      [&] { return WeightedSum(tensor::Sum(a, 2, /*keepdims=*/true), 61); },
      {a});
  ExpectGradientsMatch([&] { return WeightedSum(tensor::Mean(a, 0), 62); },
                       {a});
  ExpectGradientsMatch([&] { return WeightedSum(tensor::Mean(a, -1), 63); },
                       {a});
}

TEST(Gradcheck, ReduceMaxMin) {
  util::Rng rng(17);
  // Random draws are distinct with margin >> eps, so the argmax is stable
  // under the finite-difference perturbation.
  Tensor a = RandomTensor({3, 5}, &rng);
  ExpectGradientsMatch(
      [&] { return WeightedSum(tensor::ReduceMax(a, 1), 64); }, {a});
  ExpectGradientsMatch(
      [&] {
        return WeightedSum(tensor::ReduceMax(a, 0, /*keepdims=*/true), 65);
      },
      {a});
  ExpectGradientsMatch(
      [&] { return WeightedSum(tensor::ReduceMin(a, 1), 66); }, {a});
}

// ---- Composites -----------------------------------------------------------

TEST(Gradcheck, L2NormalizeAndCosine) {
  util::Rng rng(18);
  Tensor a = RandomTensor({3, 4}, &rng);
  Tensor b = RandomTensor({3, 4}, &rng);
  ExpectGradientsMatch(
      [&] { return WeightedSum(tensor::L2NormalizeRows(a), 70); }, {a});
  ExpectGradientsMatch(
      [&] { return WeightedSum(tensor::CosineSimilarityRows(a, b), 71); },
      {a, b});
}

TEST(Gradcheck, SoftmaxAndCrossEntropy) {
  util::Rng rng(19);
  Tensor logits = RandomTensor({4, 3}, &rng);
  std::vector<int64_t> labels = {0, 2, 1, 2};
  ExpectGradientsMatch(
      [&] { return WeightedSum(tensor::SoftmaxRows(logits), 72); }, {logits});
  ExpectGradientsMatch(
      [&] { return tensor::CrossEntropyWithLogits(logits, labels); },
      {logits});
}

// ---- Batch normalization --------------------------------------------------

// Per-channel statistics for tensor::BatchNorm: batch-stat outputs in
// training mode, fixed (positive-variance) inputs in eval mode.
struct ChannelStats {
  std::vector<float> mean, var;
  ChannelStats(int64_t c, util::Rng* rng) : mean(c), var(c) {
    for (float& v : mean) v = rng->Uniform(-0.5f, 0.5f);
    for (float& v : var) v = rng->Uniform(0.5f, 1.5f);
  }
};

TEST(Gradcheck, BatchNormTrainAndEval) {
  util::Rng rng(23);
  struct Case {
    Shape x, affine;
  };
  const std::vector<Case> cases = {{{6, 4}, {1, 4}},             // 1d
                                   {{3, 2, 3, 2}, {1, 2, 1, 1}}};  // 2d
  for (const Case& c : cases) {
    Tensor x = RandomTensor(c.x, &rng);
    Tensor gamma = RandomTensor(c.affine, &rng, /*margin=*/0.5f);
    Tensor beta = RandomTensor(c.affine, &rng);
    for (bool training : {true, false}) {
      ChannelStats stats(c.x[1], &rng);
      SCOPED_TRACE(tensor::ShapeToString(c.x) +
                   (training ? " training" : " eval"));
      ExpectGradientsMatch(
          [&] {
            return WeightedSum(
                tensor::BatchNorm(x, gamma, beta, training, 1e-5f,
                                  stats.mean.data(), stats.var.data()),
                84);
          },
          {x, gamma, beta});
    }
  }
}

// The composed ~8-node graph BatchNorm1d/2d used to build, kept here as the
// reference for the fused op: batch mean / biased variance over every axis
// but the channel axis 1, or the given statistics in eval mode.
Tensor ReduceToChannels(const Tensor& t) {
  Tensor r = t;
  for (int64_t axis = t.dim() - 1; axis >= 2; --axis) {
    r = tensor::Mean(r, axis, true);
  }
  return tensor::Mean(r, 0, true);
}

Tensor ComposedBatchNorm(const Tensor& x, const Tensor& gamma,
                         const Tensor& beta, Tensor* mean, Tensor* var,
                         float eps) {
  if (!mean->defined()) {
    *mean = ReduceToChannels(x);
    *var = ReduceToChannels(tensor::Square(x - *mean));
  }
  Tensor xhat = (x - *mean) / tensor::Sqrt(*var + eps);
  return xhat * gamma + beta;
}

void ExpectAllNear(const std::vector<float>& actual,
                   const std::vector<float>& expected, float tol,
                   const std::string& what) {
  ASSERT_EQ(actual.size(), expected.size()) << what;
  for (size_t i = 0; i < actual.size(); ++i) {
    EXPECT_NEAR(actual[i], expected[i], tol) << what << " element " << i;
  }
}

TEST(Gradcheck, BatchNormMatchesComposedGraph) {
  util::Rng rng(24);
  const float eps = 1e-5f;
  const std::vector<std::pair<Shape, Shape>> cases = {
      {{16, 5}, {1, 5}}, {{4, 3, 3, 4}, {1, 3, 1, 1}}};
  for (const auto& [xs, as] : cases) {
    int64_t channels = xs[1];
    Tensor x = tensor::Tensor::Randn(xs, &rng, 1.5f, 2.0f, true);
    Tensor gamma = RandomTensor(as, &rng, /*margin=*/0.5f);
    Tensor beta = RandomTensor(as, &rng);
    ChannelStats fixed(channels, &rng);
    for (bool training : {true, false}) {
      std::string label = tensor::ShapeToString(xs) +
                          (training ? " training" : " eval");
      Tensor ref_mean, ref_var;
      if (!training) {
        ref_mean = Tensor::FromVector(fixed.mean, as);
        ref_var = Tensor::FromVector(fixed.var, as);
      }
      for (Tensor t : {x, gamma, beta}) t.ZeroGrad();
      Tensor ref = ComposedBatchNorm(x, gamma, beta, &ref_mean, &ref_var, eps);
      WeightedSum(ref, 85).Backward();
      std::vector<float> ref_gx = x.grad(), ref_gg = gamma.grad(),
                         ref_gb = beta.grad();

      ChannelStats stats = fixed;
      for (Tensor t : {x, gamma, beta}) t.ZeroGrad();
      Tensor out = tensor::BatchNorm(x, gamma, beta, training, eps,
                                     stats.mean.data(), stats.var.data());
      WeightedSum(out, 85).Backward();

      ExpectAllNear(out.data(), ref.data(), 1e-5f, label + " output");
      ExpectAllNear(x.grad(), ref_gx, 1e-4f, label + " grad x");
      ExpectAllNear(gamma.grad(), ref_gg, 1e-3f, label + " grad gamma");
      ExpectAllNear(beta.grad(), ref_gb, 1e-3f, label + " grad beta");
      ExpectAllNear(stats.mean, ref_mean.data(), 1e-5f, label + " mean");
      ExpectAllNear(stats.var, ref_var.data(), 1e-4f, label + " var");
    }
  }
}

TEST(Gradcheck, BatchNormLayersTrackRunningStatsLikeComposedGraph) {
  // Running statistics after a few training batches and the eval-mode output
  // built from them match the composed reference.
  util::Rng rng(25);
  const float momentum = 0.1f;
  const float eps = 1e-5f;
  nn::BatchNorm1d bn1(5, momentum, eps);
  nn::BatchNorm2d bn2(3, momentum, eps);
  struct Layer {
    nn::Module* module;
    Shape x, affine;
  };
  for (const Layer& layer : {Layer{&bn1, {16, 5}, {1, 5}},
                             Layer{&bn2, {4, 3, 3, 4}, {1, 3, 1, 1}}}) {
    int64_t channels = layer.x[1];
    std::vector<float> rm(channels, 0.0f), rv(channels, 1.0f);
    Tensor ones = Tensor::Ones(layer.affine);
    Tensor zeros = Tensor::Zeros(layer.affine);
    layer.module->SetTraining(true);
    for (int step = 0; step < 3; ++step) {
      Tensor x = Tensor::Randn(layer.x, &rng, 2.0f, 1.5f);
      Tensor mean, var;
      Tensor ref = ComposedBatchNorm(x, ones, zeros, &mean, &var, eps);
      ExpectAllNear(layer.module->Forward(x).data(), ref.data(), 1e-5f,
                    "training output");
      for (int64_t c = 0; c < channels; ++c) {
        rm[c] = (1.0f - momentum) * rm[c] + momentum * mean.data()[c];
        rv[c] = (1.0f - momentum) * rv[c] + momentum * var.data()[c];
      }
    }
    int checked = 0;
    for (const nn::NamedTensor& state : layer.module->NamedState()) {
      if (state.name == "running_mean") {
        ExpectAllNear(state.value.data(), rm, 1e-5f, "running_mean");
        ++checked;
      } else if (state.name == "running_var") {
        ExpectAllNear(state.value.data(), rv, 1e-4f, "running_var");
        ++checked;
      }
    }
    EXPECT_EQ(checked, 2);
    layer.module->SetTraining(false);
    Tensor x = Tensor::Randn(layer.x, &rng, 2.0f, 1.5f);
    Tensor mean = Tensor::FromVector(rm, layer.affine);
    Tensor var = Tensor::FromVector(rv, layer.affine);
    ExpectAllNear(layer.module->Forward(x).data(),
                  ComposedBatchNorm(x, ones, zeros, &mean, &var, eps).data(),
                  1e-4f, "eval output");
  }
}

// ---- Convolution ----------------------------------------------------------

TEST(Gradcheck, Conv2dWithBias) {
  util::Rng rng(20);
  Tensor input = RandomTensor({2, 2, 5, 5}, &rng);
  Tensor weight = RandomTensor({3, 2, 3, 3}, &rng);
  Tensor bias = RandomTensor({3}, &rng);
  tensor::Conv2dSpec spec;
  spec.stride = 2;
  spec.padding = 1;
  ExpectGradientsMatch(
      [&] {
        return WeightedSum(tensor::Conv2d(input, weight, bias, spec), 80);
      },
      {input, weight, bias});
}

TEST(Gradcheck, Conv2dNoBias) {
  util::Rng rng(21);
  Tensor input = RandomTensor({1, 2, 4, 4}, &rng);
  Tensor weight = RandomTensor({2, 2, 2, 2}, &rng);
  tensor::Conv2dSpec spec;  // stride 1, no padding
  ExpectGradientsMatch(
      [&] {
        return WeightedSum(tensor::Conv2d(input, weight, Tensor(), spec), 81);
      },
      {input, weight});
}

TEST(Gradcheck, MaxPool2dAndGlobalAvgPool) {
  util::Rng rng(22);
  Tensor input = RandomTensor({2, 2, 4, 4}, &rng);
  ExpectGradientsMatch(
      [&] { return WeightedSum(tensor::MaxPool2d(input, 2), 82); }, {input});
  ExpectGradientsMatch(
      [&] { return WeightedSum(tensor::GlobalAvgPool2d(input), 83); },
      {input});
}

}  // namespace
}  // namespace edsr
