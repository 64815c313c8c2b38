// kernels: the raw float loops underneath the tensor engine.
//
// Every dense inner loop in the library — gemm, axpy, fused elementwise
// maps, strided row/col reductions, im2col, gather/scatter, optimizer
// updates — lives here and nowhere else. ops.cc, conv.cc, optimizer.cc,
// linalg and eval call these entry points instead of hand-rolling loops, so
// blocking / vectorization / parallelization later happens in one file.
//
// Conventions: row-major contiguous buffers, sizes in int64_t, reductions
// accumulate in double. Functions taking an `accumulate` flag add into the
// destination when true and overwrite when false.
#ifndef EDSR_SRC_TENSOR_KERNELS_H_
#define EDSR_SRC_TENSOR_KERNELS_H_

#include <cstdint>
#include <vector>

#include "src/util/check.h"

namespace edsr::tensor::kernels {

// ---- GEMM and BLAS-1 -----------------------------------------------------
// C (m x n) = [+=] op(A) (m x k) * op(B) (k x n); trans_* applies the
// transpose logically (A is stored (k x m) when trans_a, etc).
// Cache-blocked and panel-packed: both operands are repacked into
// micro-panels so every trans_a/trans_b combination streams contiguously
// (the AVX2 tier runs small products with row-contiguous op(B) on the
// operands in place, with bitwise the same result),
// and the inner loop is a branch-free register tile (no data-dependent
// skips: 0 * inf = nan propagates per IEEE). Packing scratch comes from the
// thread-local arena (arena.h); no heap allocation per call.
void Gemm(const float* a, const float* b, float* c, int64_t m, int64_t k,
          int64_t n, bool trans_a, bool trans_b, bool accumulate);

// Int8 GEMM for the quantized serve path: c[i*n+j] = dot(a_i, bt_j) with
// int32 accumulation, B stored TRANSPOSED ((n x k) row-major, i.e. one
// contiguous k-vector per output column). k must be a multiple of 32 —
// callers zero-pad both operands, which is exact under symmetric
// quantization (pad terms are 0 * 0). Dequantization (scales, bias) is the
// caller's job (src/nn/quant).
void GemmInt8(const int8_t* a, const int8_t* bt, int32_t* c, int64_t m,
              int64_t k, int64_t n);

// out (n x m): out[i*m+j] = ||a_i - b_j||^2 for row-major a (n x d) and
// b (m x d), computed as ||a||^2 + ||b||^2 - 2 A B^T with the cross terms
// via Gemm. Results are clamped at 0 to hide float cancellation; identical
// rows may yield a tiny positive value rather than an exact 0. Shared by
// kNN evaluation, k-means++ seeding, Lloyd assignment, and the EDSR
// noise-scale kNN.
void PairwiseSqDist(const float* a, int64_t n, const float* b, int64_t m,
                    int64_t d, float* out);

// y += alpha * x.
void Axpy(int64_t n, float alpha, const float* x, float* y);
// x *= alpha.
void Scale(int64_t n, float alpha, float* x);
// dst[i] += value.
void AddScalar(int64_t n, float value, float* dst);
// Elementwise lerp into the target: t = tau * t + (1 - tau) * o (EMA).
void EmaUpdate(int64_t n, float tau, const float* online, float* target);

double SumAll(int64_t n, const float* x);
double SumSquares(int64_t n, const float* x);
double Dot(int64_t n, const float* x, const float* y);
// Scales x to unit L2 norm in place (adds eps inside the sqrt).
void NormalizeL2(int64_t n, float* x, float eps = 1e-12f);

// ---- Selection -----------------------------------------------------------
// index[0..k) = the indices of the k largest of x[0..n), largest first,
// under one total order: value descending, equal values in index order, and
// a NaN ranks below every number (NaNs among themselves in index order).
// Requires 0 <= k <= n. Both tiers only compare values, never compute with
// them, so they return the same indices bit for bit (the AVX2 tier's
// two-pass bound is described in kernels_avx2.cc). Used by the kNN vote and
// the noise-scale kNN.
void TopK(const float* x, int64_t n, int64_t k, int64_t* index);

// ---- Fused elementwise (header templates so the functor inlines) ---------
// out[i] = f(x[i]).
template <typename F>
inline void Map(int64_t n, const float* x, float* out, F&& f) {
  for (int64_t i = 0; i < n; ++i) out[i] = f(x[i]);
}

// out[i] = f(a[i], b[i]).
template <typename F>
inline void Map2(int64_t n, const float* a, const float* b, float* out,
                 F&& f) {
  for (int64_t i = 0; i < n; ++i) out[i] = f(a[i], b[i]);
}

// gin[i] += gout[i] * df(in[i], out[i]) — unary-op backward.
template <typename F>
inline void AccumulateUnaryGrad(int64_t n, const float* gout, const float* in,
                                const float* out, float* gin, F&& df) {
  for (int64_t i = 0; i < n; ++i) gin[i] += gout[i] * df(in[i], out[i]);
}

// gx[i] += x[i] > 0 ? gy[i] : 0 — ReLU backward. gy is passed through where
// x > 0 and contributes an exact 0 elsewhere, even when gy is inf or NaN.
// The select (gy loaded unconditionally) is a form the vectorizer accepts;
// gy * (x > 0 ? 1 : 0) is rejected as control flow.
void ReluBackward(int64_t n, const float* x, const float* gy, float* gx);

// ---- Broadcast iteration -------------------------------------------------
// Precomputed plan for iterating two inputs over a broadcast output space.
// dims is the iteration shape: the output shape with size-1 dimensions
// dropped and adjacent dimensions merged wherever both inputs stay
// contiguous across them (a scalar or same-layout tail becomes one run).
// stride_a/b give the flat stride of each input per iteration dimension (0
// where that input is stretched); the innermost stride of each input is
// always 0 or 1. Same-shape inputs merge into a single run with both
// strides 1.
struct BroadcastPlan {
  std::vector<int64_t> dims;
  std::vector<int64_t> stride_a;
  std::vector<int64_t> stride_b;
  int64_t numel = 0;
};

// Walks the broadcast space one innermost run at a time: calls
// fn(out, ia, ib) for each run, which covers output slots
// [out, out + dims.back()) and reads input a at ia + j * stride_a.back() and
// input b at ib + j * stride_b.back(). Runs come in increasing `out` order,
// so visiting each run's slots in order visits every output slot in row-major
// order. Supports up to kMaxBroadcastDims dimensions (index scratch lives on
// the stack so iteration never heap-allocates).
inline constexpr int64_t kMaxBroadcastDims = 8;

template <typename Fn>
inline void ForEachBroadcastRun(const BroadcastPlan& bc, Fn&& fn) {
  int64_t nd = static_cast<int64_t>(bc.dims.size());
  EDSR_CHECK(nd >= 1 && nd <= kMaxBroadcastDims)
      << "broadcast rank " << nd << " outside [1, " << kMaxBroadcastDims
      << "]";
  int64_t run = bc.dims[nd - 1];
  int64_t idx[kMaxBroadcastDims] = {};
  int64_t ia = 0;
  int64_t ib = 0;
  for (int64_t i = 0; i < bc.numel; i += run) {
    fn(i, ia, ib);
    for (int64_t d = nd - 2; d >= 0; --d) {
      ++idx[d];
      ia += bc.stride_a[d];
      ib += bc.stride_b[d];
      if (idx[d] < bc.dims[d]) break;
      idx[d] = 0;
      ia -= bc.stride_a[d] * bc.dims[d];
      ib -= bc.stride_b[d] * bc.dims[d];
    }
  }
}

// ---- Strided reductions over an (outer, dim, inner) view -----------------
// dst (outer x inner) = sum over dim of src (outer x dim x inner).
void StridedSum(const float* src, int64_t outer, int64_t dim, int64_t inner,
                float* dst);
// dst (outer x dim x inner) += src (outer x inner) broadcast over dim.
void StridedBroadcastAdd(const float* src, int64_t outer, int64_t dim,
                         int64_t inner, float* dst);
// Per-slot max and flat argmax into src.
void StridedMax(const float* src, int64_t outer, int64_t dim, int64_t inner,
                float* max_out, int64_t* argmax_out);

// Column means of a row-major (n x d) matrix (double accumulation).
void ColMean(const float* rows, int64_t n, int64_t d, float* mean);
// out (n x d) = rows (n x d) - vec (d) broadcast over rows.
void SubRowVector(const float* rows, int64_t n, int64_t d, const float* vec,
                  float* out);

// ---- Batch normalization over an (outer, channels, inner) view -----------
// Per-channel mean and biased variance over the outer * inner values of each
// channel (two passes, double accumulation).
void ChannelMeanVar(const float* x, int64_t outer, int64_t channels,
                    int64_t inner, float* mean, float* var);
// y = (x - mean[c]) * inv_std[c] * gamma[c] + beta[c].
void BatchNormForward(const float* x, int64_t outer, int64_t channels,
                      int64_t inner, const float* mean, const float* inv_std,
                      const float* gamma, const float* beta, float* y);
// Backward of BatchNormForward given the output grad gy. Accumulates into
// gx, ggamma and gbeta; any of them may be null. With batch_stats, mean and
// inv_std are the batch statistics of x itself, so gx includes the paths
// through them (the closed form
// gx = gamma * inv_std * (gy - mean(gy) - xhat * mean(gy * xhat)));
// otherwise they are constants and gx = gamma * inv_std * gy.
void BatchNormBackward(const float* x, const float* gy, int64_t outer,
                       int64_t channels, int64_t inner, const float* mean,
                       const float* inv_std, const float* gamma,
                       bool batch_stats, float* gx, float* ggamma,
                       float* gbeta);

// ---- Layout --------------------------------------------------------------
// dst (cols x rows) = [+=] transpose of src (rows x cols).
void Transpose2d(const float* src, int64_t rows, int64_t cols, float* dst,
                 bool accumulate = false);
// dst[i * row_size ..] = src[rows[i] * row_size ..].
void GatherRows(const float* src, const int64_t* rows, int64_t num_rows,
                int64_t row_size, float* dst);
// dst[rows[i] * row_size ..] += src[i * row_size ..] (duplicates allowed).
void ScatterAddRows(const float* src, const int64_t* rows, int64_t num_rows,
                    int64_t row_size, float* dst);
// dst[index[i]] += src[i] (flat scatter-add; duplicates allowed).
void IndexedScatterAdd(int64_t n, const int64_t* index, const float* src,
                       float* dst);

// ---- Convolution support -------------------------------------------------
// Unfolds one (C,H,W) image into (C*K*K, OH*OW) columns.
void Im2Col(const float* image, int64_t channels, int64_t height,
            int64_t width, int64_t kernel, int64_t stride, int64_t padding,
            float* columns);
// Adjoint: scatter-adds columns back into the image buffer.
void Col2Im(const float* columns, int64_t channels, int64_t height,
            int64_t width, int64_t kernel, int64_t stride, int64_t padding,
            float* image);
// Max pooling over one NCHW batch (square window, stride = window). Writes
// pooled values and flat argmax indices into the input buffer.
void MaxPool2dForward(const float* input, int64_t n, int64_t c, int64_t h,
                      int64_t w, int64_t window, float* out, int64_t* argmax);

// ---- Fused optimizer updates --------------------------------------------
// SGD with momentum and decoupled-from-graph weight decay:
//   v = momentum * v + (g + wd * x); x -= lr * v.
void SgdMomentumStep(int64_t n, float lr, float momentum, float weight_decay,
                     const float* grad, float* velocity, float* data);
// Adam with bias-correction factors bc1/bc2 precomputed by the caller.
void AdamStep(int64_t n, float lr, float beta1, float beta2, float eps,
              float weight_decay, float bc1, float bc2, const float* grad,
              float* m, float* v, float* data);

}  // namespace edsr::tensor::kernels

#endif  // EDSR_SRC_TENSOR_KERNELS_H_
