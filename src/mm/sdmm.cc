#include "mm/sdmm.h"

#include "common/timer.h"
#include "obs/trace.h"

#if defined(__AVX2__) && defined(__FMA__)
#define DNLR_SDMM_SIMD 1
#include <immintrin.h>
#endif

namespace dnlr::mm {

#ifdef DNLR_SDMM_SIMD
namespace {

/// Epilogue::Finish on 8 lanes of one C row. max_ps / min_ps return their
/// second operand unless the first compares greater / less, so (0, v) and
/// (6, v) reproduce Relu6's comparisons, NaN and -0 included.
class VectorFinish {
 public:
  VectorFinish(const Epilogue& epilogue, uint32_t row)
      : has_bias_(epilogue.bias != nullptr),
        relu6_(epilogue.relu6),
        bias_(_mm256_set1_ps(has_bias_ ? epilogue.bias[row] : 0.0f)) {}

  __m256 operator()(__m256 sum) const {
    if (has_bias_) sum = _mm256_add_ps(sum, bias_);
    if (relu6_) {
      sum = _mm256_max_ps(_mm256_setzero_ps(), sum);
      sum = _mm256_min_ps(_mm256_set1_ps(6.0f), sum);
    }
    return sum;
  }

 private:
  bool has_bias_;
  bool relu6_;
  __m256 bias_;
};

}  // namespace
#endif  // DNLR_SDMM_SIMD

void Sdmm(const CsrMatrix& a, const Matrix& b, Matrix* c,
          const Epilogue& epilogue) {
  DNLR_CHECK_EQ(a.cols(), b.rows());
  DNLR_CHECK_EQ(c->rows(), a.rows());
  DNLR_CHECK_EQ(c->cols(), b.cols());
  DNLR_OBS_COUNT("mm.sdmm.calls", 1);
  DNLR_OBS_SPAN(sdmm_span, "mm.sdmm.total_us");

  const uint32_t n = b.cols();
  const auto& offsets = a.row_offsets();
  const auto& cols = a.col_index();
  const auto& vals = a.values();

  for (uint32_t i = 0; i < a.rows(); ++i) {
    const uint32_t begin = offsets[i];
    const uint32_t end = offsets[i + 1];
    float* c_row = c->Row(i);
    if (begin == end) {  // inactive row: the sum is zero
      for (uint32_t j = 0; j < n; ++j) c_row[j] = epilogue.Finish(i, 0.0f);
      continue;
    }

#ifdef DNLR_SDMM_SIMD
    const VectorFinish finish(epilogue, i);
    uint32_t j = 0;
    // N_b blocks of n_b = 8 floats: C_i stays in registers across the whole
    // row of A (the paper's regime: batch 16-64). Four blocks are carried
    // per pass so one scan of the A row updates 32 output columns.
    for (; j + 32 <= n; j += 32) {
      __m256 acc0 = _mm256_setzero_ps();
      __m256 acc1 = _mm256_setzero_ps();
      __m256 acc2 = _mm256_setzero_ps();
      __m256 acc3 = _mm256_setzero_ps();
      for (uint32_t t = begin; t < end; ++t) {
        const __m256 x = _mm256_broadcast_ss(&vals[t]);
        const float* b_row = b.Row(cols[t]) + j;
        acc0 = _mm256_fmadd_ps(x, _mm256_loadu_ps(b_row), acc0);
        acc1 = _mm256_fmadd_ps(x, _mm256_loadu_ps(b_row + 8), acc1);
        acc2 = _mm256_fmadd_ps(x, _mm256_loadu_ps(b_row + 16), acc2);
        acc3 = _mm256_fmadd_ps(x, _mm256_loadu_ps(b_row + 24), acc3);
      }
      _mm256_storeu_ps(c_row + j, finish(acc0));
      _mm256_storeu_ps(c_row + j + 8, finish(acc1));
      _mm256_storeu_ps(c_row + j + 16, finish(acc2));
      _mm256_storeu_ps(c_row + j + 24, finish(acc3));
    }
    for (; j + 8 <= n; j += 8) {
      __m256 acc = _mm256_setzero_ps();
      for (uint32_t t = begin; t < end; ++t) {
        const __m256 x = _mm256_broadcast_ss(&vals[t]);
        const __m256 b_vec = _mm256_loadu_ps(b.Row(cols[t]) + j);
        acc = _mm256_fmadd_ps(x, b_vec, acc);
      }
      _mm256_storeu_ps(c_row + j, finish(acc));
    }
    for (; j < n; ++j) {
      float acc = 0.0f;
      for (uint32_t t = begin; t < end; ++t) {
        acc += vals[t] * b.At(cols[t], j);
      }
      c_row[j] = epilogue.Finish(i, acc);
    }
#else
    for (uint32_t j = 0; j < n; ++j) c_row[j] = 0.0f;
    for (uint32_t t = begin; t < end; ++t) {
      const float x = vals[t];
      const float* b_row = b.Row(cols[t]);
      for (uint32_t j = 0; j < n; ++j) c_row[j] += x * b_row[j];
    }
    for (uint32_t j = 0; j < n; ++j) c_row[j] = epilogue.Finish(i, c_row[j]);
#endif
  }
  // Debug builds sweep the result for NaN/Inf introduced by poisoned inputs.
  for (size_t i = 0; i < c->size(); ++i) DNLR_DCHECK_FINITE(c->data()[i]);
}

void SdmmReference(const CsrMatrix& a, const Matrix& b, Matrix* c) {
  DNLR_CHECK_EQ(a.cols(), b.rows());
  DNLR_CHECK_EQ(c->rows(), a.rows());
  DNLR_CHECK_EQ(c->cols(), b.cols());
  c->Fill(0.0f);
  const auto& offsets = a.row_offsets();
  const auto& cols = a.col_index();
  const auto& vals = a.values();
  // Algorithm 1: for each row, for each non-zero, for each output column —
  // scalar, with an indexed B access in the inner loop.
  for (uint32_t i = 0; i < a.rows(); ++i) {
    for (uint32_t t = offsets[i]; t < offsets[i + 1]; ++t) {
      const uint32_t idx = cols[t];
      const float value = vals[t];
      for (uint32_t j = 0; j < b.cols(); ++j) {
        c->At(i, j) += value * b.At(idx, j);
      }
    }
  }
}

const char* SdmmKernelName() {
#ifdef DNLR_SDMM_SIMD
  return "avx2";
#else
  return "scalar";
#endif
}

namespace {

template <typename Kernel>
double MeasureKernel(const CsrMatrix& a, uint32_t n, int repeats,
                     uint64_t seed, Kernel&& kernel) {
  Rng rng(seed);
  Matrix b(a.cols(), n);
  Matrix c(a.rows(), n);
  b.FillUniform(rng);
  return TimeMicros([&] { kernel(a, b, &c); }, repeats);
}

}  // namespace

double MeasureSdmmMicros(const CsrMatrix& a, uint32_t n, int repeats,
                         uint64_t seed) {
  return MeasureKernel(a, n, repeats, seed,
                       [](const CsrMatrix& lhs, const Matrix& rhs,
                          Matrix* out) { Sdmm(lhs, rhs, out); });
}

double MeasureSdmmReferenceMicros(const CsrMatrix& a, uint32_t n, int repeats,
                                  uint64_t seed) {
  return MeasureKernel(a, n, repeats, seed, SdmmReference);
}

}  // namespace dnlr::mm
