#include "mm/gemm.h"

#include <algorithm>
#include <cstring>
#include <vector>

#include "common/aligned.h"
#include "common/timer.h"
#include "obs/trace.h"

#if defined(__AVX2__) && defined(__FMA__)
#define DNLR_GEMM_SIMD 1
#include <immintrin.h>
#if defined(__AVX512F__)
#define DNLR_GEMM_AVX512 1
#endif
#endif

namespace dnlr::mm {
namespace {

/// Packs the A block A[row0:row0+mb, col0:col0+kb] into `packed`, arranged
/// as ceil(mb/mr) row-panels; within a panel, entries are stored p-major
/// (mr consecutive A values per k step), exactly the order the micro-kernel
/// broadcasts them in. Rows beyond the block are zero padded.
void PackA(const Matrix& a, uint32_t row0, uint32_t mb, uint32_t col0,
           uint32_t kb, uint32_t mr, float* packed) {
  for (uint32_t ir = 0; ir < mb; ir += mr) {
    const uint32_t rows = std::min(mr, mb - ir);
    const size_t panel_floats = static_cast<size_t>(kb) * mr;
    // Only the edge panel has padding rows: zero it whole, then scatter
    // each source row, read contiguously, with stride mr.
    if (rows < mr) std::fill_n(packed, panel_floats, 0.0f);
    for (uint32_t r = 0; r < rows; ++r) {
      const float* src = a.Row(row0 + ir + r) + col0;
      float* dst = packed + r;
      for (uint32_t p = 0; p < kb; ++p) {
        dst[static_cast<size_t>(p) * mr] = src[p];
      }
    }
    packed += panel_floats;
  }
}

/// Packs the B panel B[row0:row0+kb, col0:col0+nb] into `packed`, arranged
/// as ceil(nb/nr) column-panels; within a panel, nr consecutive B values per
/// k step (row-major micro-panels). Full panels are row copies; the edge
/// panel's columns beyond nb are zero padded.
void PackB(const Matrix& b, uint32_t row0, uint32_t kb, uint32_t col0,
           uint32_t nb, uint32_t nr, float* packed) {
  for (uint32_t jr = 0; jr < nb; jr += nr) {
    const uint32_t cols = std::min(nr, nb - jr);
    for (uint32_t p = 0; p < kb; ++p) {
      const float* row = b.Row(row0 + p) + col0 + jr;
      if (cols == nr) {
        std::memcpy(packed, row, sizeof(float) * nr);
        packed += nr;
        continue;
      }
      for (uint32_t c = 0; c < nr; ++c) {
        *packed++ = c < cols ? row[c] : 0.0f;
      }
    }
  }
}

/// Generic micro-kernel: accumulates an mr x nr rank-kb update into the
/// local tile buffer `acc` (row-major mr x nr).
void MicroKernelScalar(uint32_t kb, uint32_t mr, uint32_t nr,
                       const float* a_panel, const float* b_panel,
                       float* acc) {
  for (uint32_t p = 0; p < kb; ++p) {
    const float* a_col = a_panel + static_cast<size_t>(p) * mr;
    const float* b_row = b_panel + static_cast<size_t>(p) * nr;
    for (uint32_t r = 0; r < mr; ++r) {
      const float a_val = a_col[r];
      float* acc_row = acc + static_cast<size_t>(r) * nr;
      for (uint32_t c = 0; c < nr; ++c) acc_row[c] += a_val * b_row[c];
    }
  }
}

#ifdef DNLR_GEMM_SIMD
/// AVX2+FMA micro-kernel for mr = 6, nr = 16: the 6x16 C tile lives in 12
/// ymm accumulators; each k step is one broadcast per row and two FMAs,
/// the register-blocked rank-1 update of Figure 3 in the paper.
void MicroKernel6x16Avx2(uint32_t kb, const float* a_panel,
                         const float* b_panel, float* acc) {
  __m256 c00 = _mm256_setzero_ps(), c01 = _mm256_setzero_ps();
  __m256 c10 = _mm256_setzero_ps(), c11 = _mm256_setzero_ps();
  __m256 c20 = _mm256_setzero_ps(), c21 = _mm256_setzero_ps();
  __m256 c30 = _mm256_setzero_ps(), c31 = _mm256_setzero_ps();
  __m256 c40 = _mm256_setzero_ps(), c41 = _mm256_setzero_ps();
  __m256 c50 = _mm256_setzero_ps(), c51 = _mm256_setzero_ps();
  for (uint32_t p = 0; p < kb; ++p) {
    const __m256 b0 = _mm256_loadu_ps(b_panel);
    const __m256 b1 = _mm256_loadu_ps(b_panel + 8);
    b_panel += 16;
    __m256 a;
    a = _mm256_broadcast_ss(a_panel + 0);
    c00 = _mm256_fmadd_ps(a, b0, c00);
    c01 = _mm256_fmadd_ps(a, b1, c01);
    a = _mm256_broadcast_ss(a_panel + 1);
    c10 = _mm256_fmadd_ps(a, b0, c10);
    c11 = _mm256_fmadd_ps(a, b1, c11);
    a = _mm256_broadcast_ss(a_panel + 2);
    c20 = _mm256_fmadd_ps(a, b0, c20);
    c21 = _mm256_fmadd_ps(a, b1, c21);
    a = _mm256_broadcast_ss(a_panel + 3);
    c30 = _mm256_fmadd_ps(a, b0, c30);
    c31 = _mm256_fmadd_ps(a, b1, c31);
    a = _mm256_broadcast_ss(a_panel + 4);
    c40 = _mm256_fmadd_ps(a, b0, c40);
    c41 = _mm256_fmadd_ps(a, b1, c41);
    a = _mm256_broadcast_ss(a_panel + 5);
    c50 = _mm256_fmadd_ps(a, b0, c50);
    c51 = _mm256_fmadd_ps(a, b1, c51);
    a_panel += 6;
  }
  _mm256_storeu_ps(acc + 0, c00);
  _mm256_storeu_ps(acc + 8, c01);
  _mm256_storeu_ps(acc + 16, c10);
  _mm256_storeu_ps(acc + 24, c11);
  _mm256_storeu_ps(acc + 32, c20);
  _mm256_storeu_ps(acc + 40, c21);
  _mm256_storeu_ps(acc + 48, c30);
  _mm256_storeu_ps(acc + 56, c31);
  _mm256_storeu_ps(acc + 64, c40);
  _mm256_storeu_ps(acc + 72, c41);
  _mm256_storeu_ps(acc + 80, c50);
  _mm256_storeu_ps(acc + 88, c51);
}
#endif  // DNLR_GEMM_SIMD

#ifdef DNLR_GEMM_AVX512
/// AVX-512 micro-kernel for mr = 12 and nr = 16 * kVecs (1 or 2 zmm per
/// row): the first kRows rows of the C tile live in kRows * kVecs
/// accumulators and are stored straight into C, with no tile buffer in
/// between. kRows < 12 serves an edge panel of at most kRows rows, whose
/// padding rows would only multiply zeros. Each C element is the same FMA
/// chain over k, from +0, as in the 6x16 kernel, and the store does what
/// StoreTile does: the first KC panel stores 0 + acc, later panels
/// C + acc, and the last adds the bias and clamps with max(0, .) and
/// min(6, .), in Sdmm's VectorFinish order. Column tails are masked; rows
/// at and past `rows` are not stored.
template <int kRows, int kVecs>
void MicroKernel12Avx512(uint32_t kb, const float* a_panel,
                         const float* b_panel, uint32_t rows, uint32_t cols,
                         bool first_panel, bool last_panel,
                         const Epilogue& epilogue, uint32_t row0,
                         uint32_t col0, Matrix* c) {
  constexpr int kMr = 12;
  constexpr int kNr = 16 * kVecs;
  __m512 acc[kRows][kVecs];
#pragma GCC unroll 12
  for (int r = 0; r < kRows; ++r) {
#pragma GCC unroll 2
    for (int v = 0; v < kVecs; ++v) acc[r][v] = _mm512_setzero_ps();
  }
  for (uint32_t p = 0; p < kb; ++p) {
    __m512 b[kVecs];
#pragma GCC unroll 2
    for (int v = 0; v < kVecs; ++v) b[v] = _mm512_loadu_ps(b_panel + 16 * v);
    b_panel += kNr;
#pragma GCC unroll 12
    for (int r = 0; r < kRows; ++r) {
      const __m512 a = _mm512_set1_ps(a_panel[r]);
#pragma GCC unroll 2
      for (int v = 0; v < kVecs; ++v) {
        acc[r][v] = _mm512_fmadd_ps(a, b[v], acc[r][v]);
      }
    }
    a_panel += kMr;
  }

  __mmask16 mask[kVecs];
#pragma GCC unroll 2
  for (int v = 0; v < kVecs; ++v) {
    const uint32_t skip = 16u * v;
    const uint32_t width = cols > skip ? std::min(cols - skip, 16u) : 0u;
    mask[v] = static_cast<__mmask16>((1u << width) - 1u);
  }
  const bool bias = last_panel && epilogue.bias != nullptr;
  const bool relu6 = last_panel && epilogue.relu6;
  const __m512 zero = _mm512_setzero_ps();
  const __m512 six = _mm512_set1_ps(6.0f);
#pragma GCC unroll 12
  for (int r = 0; r < kRows; ++r) {
    if (static_cast<uint32_t>(r) >= rows) break;
    float* c_row = c->Row(row0 + r) + col0;
    const __m512 bias_r =
        _mm512_set1_ps(bias ? epilogue.bias[row0 + r] : 0.0f);
#pragma GCC unroll 2
    for (int v = 0; v < kVecs; ++v) {
      if (mask[v] == 0) continue;
      float* out = c_row + 16 * v;
      __m512 sum = first_panel
                       ? _mm512_add_ps(zero, acc[r][v])
                       : _mm512_add_ps(_mm512_maskz_loadu_ps(mask[v], out),
                                       acc[r][v]);
      if (bias) sum = _mm512_add_ps(sum, bias_r);
      if (relu6) {  // the maskz forms: GCC 12 warns on the unmasked ones
        sum = _mm512_maskz_max_ps(mask[v], zero, sum);
        sum = _mm512_maskz_min_ps(mask[v], six, sum);
      }
      _mm512_mask_storeu_ps(out, mask[v], sum);
    }
  }
}

/// Runs the 12-row AVX-512 kernel on one micro-panel, computing only as
/// many rows (4, 8 or 12) as the panel holds: the student's scoring layer
/// has m = 1.
template <int kVecs>
void MicroKernelAvx512(uint32_t kb, const float* a_panel, const float* b_panel,
                       uint32_t rows, uint32_t cols, bool first_panel,
                       bool last_panel, const Epilogue& epilogue,
                       uint32_t row0, uint32_t col0, Matrix* c) {
  if (rows <= 4) {
    MicroKernel12Avx512<4, kVecs>(kb, a_panel, b_panel, rows, cols,
                                  first_panel, last_panel, epilogue, row0,
                                  col0, c);
  } else if (rows <= 8) {
    MicroKernel12Avx512<8, kVecs>(kb, a_panel, b_panel, rows, cols,
                                  first_panel, last_panel, epilogue, row0,
                                  col0, c);
  } else {
    MicroKernel12Avx512<12, kVecs>(kb, a_panel, b_panel, rows, cols,
                                   first_panel, last_panel, epilogue, row0,
                                   col0, c);
  }
}
#endif  // DNLR_GEMM_AVX512

/// Per-OS-thread packing scratch, reused across (jc, pc) iterations and
/// whole GEMM calls, so concurrent callers (serving workers, the chunks of a
/// parallel scorer) never share a buffer and steady-state calls never
/// allocate. Contents are never read before being written (PackA/PackB
/// fully write every region the kernels later read, and the AVX2 and scalar
/// kernels fully store the tile they hand to StoreTile), so reuse cannot
/// change results.
struct GemmScratch {
  AlignedBuffer packed_a;
  AlignedBuffer tile;
  AlignedBuffer packed_b;
};

GemmScratch& LocalGemmScratch() {
  thread_local GemmScratch scratch;
  return scratch;
}

}  // namespace

uint32_t RoundUp(uint32_t a, uint32_t b) {
  DNLR_CHECK_GT(b, 0u);
  return (a + b - 1) / b * b;
}

GemmParams GemmParams::TailoredTo(uint32_t m, uint32_t n, uint32_t k) const {
  GemmParams tailored = *this;
  // The oneDNN small-shape refinement quoted in the paper:
  //   m_c = rnd_up(min(max(m, m_r), m_c), m_r), and similarly for n_c / k_c.
#ifdef DNLR_GEMM_AVX512
  if (tailored.mr == 12 && tailored.nr == 32 && n <= 16) tailored.nr = 16;
#endif
  tailored.mc = RoundUp(std::min(std::max(m, mr), mc), mr);
  tailored.nc =
      RoundUp(std::min(std::max(n, tailored.nr), nc), tailored.nr);
  tailored.kc = std::min(std::max(k, 1u), kc);
  return tailored;
}

PackedMatrix::PackedMatrix(const Matrix& a, const GemmParams& params)
    : rows_(a.rows()), cols_(a.cols()), params_(params) {
  const GemmParams tailored = params_.TailoredTo(rows_, 1, cols_);
  padded_rows_ = RoundUp(rows_, tailored.mr);
  kc_ = tailored.kc;
  panels_.Resize(static_cast<size_t>(padded_rows_) * cols_);
  // KC slices in order, and within each the MC blocks in order: the block
  // at (ic, pc) starts after pc full slices of padded_rows x kc floats and
  // ic rows of its own slice, which is what Block() computes.
  float* out = panels_.data();
  for (uint32_t pc = 0; pc < cols_; pc += tailored.kc) {
    const uint32_t kb = std::min(tailored.kc, cols_ - pc);
    for (uint32_t ic = 0; ic < rows_; ic += tailored.mc) {
      const uint32_t mb = std::min(tailored.mc, rows_ - ic);
      PackA(a, ic, mb, pc, kb, tailored.mr, out);
      out += static_cast<size_t>(RoundUp(mb, tailored.mr)) * kb;
    }
  }
}

namespace {

/// Writes the valid rows x cols part of a micro-tile into C at (row0, col0).
/// The first KC panel adds the tile to zero, later panels accumulate onto
/// C, and the last applies the epilogue to the finished sum: exactly the
/// operations of zero-filling C, accumulating every panel and running a
/// separate epilogue pass afterwards, without the fill or the extra pass.
void StoreTile(const float* tile, uint32_t nr, uint32_t rows, uint32_t cols,
               bool first_panel, bool last_panel, const Epilogue& epilogue,
               uint32_t row0, uint32_t col0, Matrix* c) {
  for (uint32_t r = 0; r < rows; ++r) {
    float* c_row = c->Row(row0 + r) + col0;
    const float* tile_row = tile + static_cast<size_t>(r) * nr;
    if (first_panel) {
      for (uint32_t col = 0; col < cols; ++col) {
        c_row[col] = 0.0f + tile_row[col];
      }
    } else {
      for (uint32_t col = 0; col < cols; ++col) c_row[col] += tile_row[col];
    }
    if (last_panel) {
      for (uint32_t col = 0; col < cols; ++col) {
        c_row[col] = epilogue.Finish(row0 + r, c_row[col]);
      }
    }
  }
}

/// The micro-kernel a tailored (mr, nr) runs. Any other tile runs the
/// scalar kernel.
enum class MicroKernel { kScalar, kAvx2x6x16, kAvx512x12x16, kAvx512x12x32 };

MicroKernel ChooseMicroKernel([[maybe_unused]] uint32_t mr,
                              [[maybe_unused]] uint32_t nr) {
#ifdef DNLR_GEMM_AVX512
  if (mr == 12 && nr == 32) return MicroKernel::kAvx512x12x32;
  if (mr == 12 && nr == 16) return MicroKernel::kAvx512x12x16;
#endif
#ifdef DNLR_GEMM_SIMD
  if (mr == 6 && nr == 16) return MicroKernel::kAvx2x6x16;
#endif
  return MicroKernel::kScalar;
}

/// Runs the macro-kernel for one MC-row block of A: streams the packed A
/// block's micro-panels against the already-packed B panel and stores each
/// tile into C. `tile` is the calling thread's scratch (unused by the
/// AVX-512 kernels, which store from registers).
void RunMacroBlock(const float* packed_a, Matrix* c, const GemmParams& params,
                   MicroKernel kernel, uint32_t ic, uint32_t mb, uint32_t jc,
                   uint32_t nb, uint32_t kb, const float* packed_b,
                   bool first_panel, bool last_panel, const Epilogue& epilogue,
                   float* tile) {
  const uint32_t mr = params.mr;
  const uint32_t nr = params.nr;
  DNLR_OBS_SPAN(kernel_span, "mm.gemm.kernel_us");
  // Macro-kernel: stream micro-panels of the packed blocks.
  for (uint32_t jr = 0; jr < nb; jr += nr) {
    const uint32_t cols = std::min(nr, nb - jr);
    const float* b_panel = packed_b + static_cast<size_t>(jr / nr) * kb * nr;
    for (uint32_t ir = 0; ir < mb; ir += mr) {
      const uint32_t rows = std::min(mr, mb - ir);
      const float* a_panel = packed_a + static_cast<size_t>(ir / mr) * kb * mr;
      switch (kernel) {
#ifdef DNLR_GEMM_AVX512
        case MicroKernel::kAvx512x12x32:
          MicroKernelAvx512<2>(kb, a_panel, b_panel, rows, cols, first_panel,
                               last_panel, epilogue, ic + ir, jc + jr, c);
          continue;
        case MicroKernel::kAvx512x12x16:
          MicroKernelAvx512<1>(kb, a_panel, b_panel, rows, cols, first_panel,
                               last_panel, epilogue, ic + ir, jc + jr, c);
          continue;
#endif
#ifdef DNLR_GEMM_SIMD
        case MicroKernel::kAvx2x6x16:
          MicroKernel6x16Avx2(kb, a_panel, b_panel, tile);
          break;
#endif
        default:
          std::memset(tile, 0, sizeof(float) * mr * nr);
          MicroKernelScalar(kb, mr, nr, a_panel, b_panel, tile);
          break;
      }
      StoreTile(tile, nr, rows, cols, first_panel, last_panel, epilogue,
                ic + ir, jc + jr, c);
    }
  }
}

/// The one Goto loop nest behind every entry point. Exactly one of `a`
/// (packed per call, block by block, into thread-local scratch) and
/// `packed` (read in place) is non-null.
void GemmImpl(const Matrix* a, const PackedMatrix* packed, const Matrix& b,
              Matrix* c, const GemmParams& raw_params,
              const Epilogue& epilogue) {
  const uint32_t m = packed != nullptr ? packed->rows() : a->rows();
  const uint32_t k = packed != nullptr ? packed->cols() : a->cols();
  const uint32_t n = b.cols();
  DNLR_CHECK_EQ(b.rows(), k);
  DNLR_CHECK_EQ(c->rows(), m);
  DNLR_CHECK_EQ(c->cols(), n);

  const GemmParams params = raw_params.TailoredTo(m, n, k);
  const uint32_t mr = params.mr;
  const uint32_t nr = params.nr;

  DNLR_OBS_COUNT("mm.gemm.calls", 1);
  DNLR_OBS_SPAN(gemm_span, "mm.gemm.total_us");
  if (m == 0 || n == 0) return;
  if (k == 0) {  // empty sum: C = epilogue(0)
    for (uint32_t i = 0; i < m; ++i) {
      float* c_row = c->Row(i);
      for (uint32_t j = 0; j < n; ++j) c_row[j] = epilogue.Finish(i, 0.0f);
    }
    return;
  }

  const MicroKernel kernel = ChooseMicroKernel(mr, nr);
  GemmScratch& scratch = LocalGemmScratch();
  if (packed == nullptr) {
    scratch.packed_a.GrowTo(static_cast<size_t>(RoundUp(params.mc, mr)) *
                            params.kc);
  }
  scratch.tile.GrowTo(static_cast<size_t>(mr) * nr);
  scratch.packed_b.GrowTo(static_cast<size_t>(params.kc) *
                          RoundUp(params.nc, nr));

  for (uint32_t jc = 0; jc < n; jc += params.nc) {
    const uint32_t nb = std::min(params.nc, n - jc);
    for (uint32_t pc = 0; pc < k; pc += params.kc) {
      const uint32_t kb = std::min(params.kc, k - pc);
      const bool first_panel = pc == 0;
      const bool last_panel = pc + kb == k;
      {
        DNLR_OBS_SPAN(pack_span, "mm.gemm.pack_b_us");
        PackB(b, pc, kb, jc, nb, nr, scratch.packed_b.data());
      }
      for (uint32_t ic = 0; ic < m; ic += params.mc) {
        const uint32_t mb = std::min(params.mc, m - ic);
        const float* packed_a = nullptr;
        if (packed != nullptr) {
          packed_a = packed->Block(ic, pc);
        } else {
          DNLR_OBS_SPAN(pack_span, "mm.gemm.pack_a_us");
          PackA(*a, ic, mb, pc, kb, mr, scratch.packed_a.data());
          packed_a = scratch.packed_a.data();
        }
        RunMacroBlock(packed_a, c, params, kernel, ic, mb, jc, nb, kb,
                      scratch.packed_b.data(), first_panel, last_panel,
                      epilogue, scratch.tile.data());
      }
    }
  }
  // Debug builds sweep the result for NaN/Inf: a single poisoned input
  // element silently corrupts whole output panels otherwise.
  for (size_t i = 0; i < c->size(); ++i) DNLR_DCHECK_FINITE(c->data()[i]);
}

}  // namespace

void GemmWithParams(const Matrix& a, const Matrix& b, Matrix* c,
                    const GemmParams& params) {
  GemmImpl(&a, nullptr, b, c, params, Epilogue());
}

void Gemm(const PackedMatrix& a, const Matrix& b, Matrix* c,
          const Epilogue& epilogue) {
  GemmImpl(nullptr, &a, b, c, a.params(), epilogue);
}

void Gemm(const Matrix& a, const Matrix& b, Matrix* c) {
  GemmWithParams(a, b, c, GemmParams());
}

void GemmReference(const Matrix& a, const Matrix& b, Matrix* c) {
  const uint32_t m = a.rows();
  const uint32_t k = a.cols();
  const uint32_t n = b.cols();
  DNLR_CHECK_EQ(b.rows(), k);
  DNLR_CHECK_EQ(c->rows(), m);
  DNLR_CHECK_EQ(c->cols(), n);
  c->Fill(0.0f);
  for (uint32_t i = 0; i < m; ++i) {
    for (uint32_t p = 0; p < k; ++p) {
      const float a_val = a.At(i, p);
      const float* b_row = b.Row(p);
      float* c_row = c->Row(i);
      for (uint32_t j = 0; j < n; ++j) c_row[j] += a_val * b_row[j];
    }
  }
}

const char* GemmKernelName() {
  const GemmParams defaults;
  switch (ChooseMicroKernel(defaults.mr, defaults.nr)) {
    case MicroKernel::kAvx512x12x32:
      return "avx512-12x32";
    case MicroKernel::kAvx2x6x16:
      return "avx2-6x16";
    default:
      return "scalar";
  }
}

namespace {

/// Random operands of C(m x n) = A(m x k) * B(k x n) for the GFLOPS probes.
struct RandomGemmOperands {
  RandomGemmOperands(uint32_t m, uint32_t k, uint32_t n, uint64_t seed)
      : a(m, k), b(k, n), c(m, n) {
    Rng rng(seed);
    a.FillUniform(rng);
    b.FillUniform(rng);
  }
  Matrix a;
  Matrix b;
  Matrix c;
};

double Gflops(uint32_t m, uint32_t k, uint32_t n, double micros) {
  const double flops = 2.0 * m * n * k;
  return flops / (micros * 1e-6) / 1e9;
}

}  // namespace

double MeasureGemmGflops(uint32_t m, uint32_t k, uint32_t n, int repeats,
                         uint64_t seed) {
  RandomGemmOperands x(m, k, n, seed);
  return Gflops(m, k, n, TimeMicros([&] { Gemm(x.a, x.b, &x.c); }, repeats));
}

double MeasurePackedGemmGflops(uint32_t m, uint32_t k, uint32_t n,
                               int repeats, uint64_t seed) {
  RandomGemmOperands x(m, k, n, seed);
  const PackedMatrix packed(x.a);
  return Gflops(m, k, n,
                TimeMicros([&] { Gemm(packed, x.b, &x.c); }, repeats));
}

}  // namespace dnlr::mm
