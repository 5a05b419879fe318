#ifndef DNLR_MM_GEMM_H_
#define DNLR_MM_GEMM_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>

#include "common/aligned.h"
#include "mm/matrix.h"

namespace dnlr::mm {

/// Blocking parameters of the Goto algorithm (Section 4.1 of the paper).
/// The macro-kernel streams an MC x KC packed block of A (L2-resident)
/// against a KC x NC packed panel of B (L3-resident); the micro-kernel
/// computes an MR x NR tile of C held entirely in vector registers.
/// The default micro-tile is the widest micro-kernel compiled in (see
/// GemmKernelName): 12 x 32 with AVX-512, 6 x 16 otherwise.
struct GemmParams {
  uint32_t mc = 72;    // rows of the packed A block (multiple of mr)
  uint32_t kc = 256;   // shared dimension slice
  uint32_t nc = 4064;  // columns of the packed B panel (multiple of nr)
#if defined(__AVX512F__)
  uint32_t mr = 12;    // micro-tile rows (register blocking)
  uint32_t nr = 32;    // micro-tile cols (two zmm vectors of 16 floats)
#else
  uint32_t mr = 6;     // micro-tile rows (register blocking)
  uint32_t nr = 16;    // micro-tile cols (two AVX2 vectors of 8 floats)
#endif

  /// oneDNN-style tailoring for small shapes (the rnd_up logic quoted in
  /// Section 4.2): clamps each blocking parameter to the actual problem
  /// size, rounded up to the micro-kernel granularity, so tiny matrices do
  /// not pay full-size packing overhead. With AVX-512, the 12 x 32 tile
  /// narrows to 12 x 16 when n <= 16, so narrow batches do not pad B to 32.
  GemmParams TailoredTo(uint32_t m, uint32_t n, uint32_t k) const;
};

/// rnd_up(a, b): smallest multiple of b that is >= a (paper Section 4.2).
uint32_t RoundUp(uint32_t a, uint32_t b);

/// ReLU6(x) = min(max(x, 0), 6), the activation the paper uses after every
/// network layer except the last. NaN and -0 pass through unchanged.
inline float Relu6(float x) { return x < 0.0f ? 0.0f : (x > 6.0f ? 6.0f : x); }

/// Row-wise bias + activation a kernel fuses into its final store into C:
/// C(i, j) = act(sum(i, j) + bias[i]). The kernels apply it to the finished
/// sum with the same operations, in the same order, as a separate pass over
/// C would, so fusing it never changes a result bit. The default is a no-op.
struct Epilogue {
  const float* bias = nullptr;  // one entry per row of C; null adds nothing
  bool relu6 = false;           // clamp to [0, 6] after the bias

  /// The stored value of C(row, j) given its accumulated sum.
  float Finish(uint32_t row, float sum) const {
    if (bias != nullptr) sum += bias[row];
    return relu6 ? Relu6(sum) : sum;
  }
};

/// The left operand A (m x k) of C = A * B, packed once into the layout the
/// macro-kernel streams: for every KC slice of the columns, every MC block of
/// the rows as PackA lays it out, at the mc / kc that GemmParams::TailoredTo
/// picks for A's shape (they do not depend on n). A network layer's weights
/// are constant for a model generation, so the scorers pack them at
/// construction and no batch re-runs PackA or re-tailors the blocking.
/// Rows are zero padded to a multiple of mr, so this holds
/// RoundUp(m, mr) * k floats.
class PackedMatrix {
 public:
  PackedMatrix() = default;
  explicit PackedMatrix(const Matrix& a,
                        const GemmParams& params = GemmParams());

  uint32_t rows() const { return rows_; }
  uint32_t cols() const { return cols_; }
  /// The blocking parameters it was packed for; a multiplication with this
  /// operand runs with them (tailored to its n).
  const GemmParams& params() const { return params_; }
  size_t size() const { return panels_.size(); }

  /// The packed MC x KC block whose top-left entry is A(ic, pc); ic and pc
  /// are multiples of the tailored mc and kc. The block starts after pc
  /// full KC slices of padded_rows x kc floats and ic rows of its own
  /// slice, whose width is kb.
  const float* Block(uint32_t ic, uint32_t pc) const {
    const uint32_t kb = std::min(kc_, cols_ - pc);
    return panels_.data() + static_cast<size_t>(pc) * padded_rows_ +
           static_cast<size_t>(ic) * kb;
  }

 private:
  uint32_t rows_ = 0;
  uint32_t cols_ = 0;
  GemmParams params_;
  uint32_t padded_rows_ = 0;  // RoundUp(rows_, tailored mr)
  uint32_t kc_ = 1;           // tailored kc
  AlignedBuffer panels_;
};

/// C = A * B with the blocked Goto algorithm. A is m x k, B is k x n, C is
/// m x n, all row-major. C is overwritten.
void Gemm(const Matrix& a, const Matrix& b, Matrix* c);

/// C = A * B with explicit blocking parameters (for the parameter-tuning
/// ablation; `params` is tailored internally to the problem shape).
void GemmWithParams(const Matrix& a, const Matrix& b, Matrix* c,
                    const GemmParams& params);

/// C = epilogue(A * B) with A pre-packed: the same loop nest, blocking and
/// order of floating-point operations as GemmWithParams(A, B, C,
/// a.params()), reading A's panels from `a` instead of packing them per
/// call, so C is bitwise identical to that product followed by a separate
/// epilogue pass. C is overwritten.
void Gemm(const PackedMatrix& a, const Matrix& b, Matrix* c,
          const Epilogue& epilogue = Epilogue());

/// Reference triple-loop GEMM (ablation baseline and test oracle).
void GemmReference(const Matrix& a, const Matrix& b, Matrix* c);

/// The micro-kernel the default GemmParams run: "avx512-12x32",
/// "avx2-6x16" or "scalar", fixed at compile time by the target ISA.
const char* GemmKernelName();

/// Measured GFLOPS of C = A*B at the given shape: runs the multiplication
/// `repeats` times and reports 2*m*n*k / median_time. Used for the
/// Figures 4-6 sweeps; A is packed per call, as in the paper's sgemm.
double MeasureGemmGflops(uint32_t m, uint32_t k, uint32_t n, int repeats = 3,
                         uint64_t seed = 99);

/// MeasureGemmGflops for the pre-packed operand: A is packed once before
/// the timed repeats, as the scorers pack their weights once per model
/// generation. The dense time predictor calibrates on this.
double MeasurePackedGemmGflops(uint32_t m, uint32_t k, uint32_t n,
                               int repeats = 3, uint64_t seed = 99);

}  // namespace dnlr::mm

#endif  // DNLR_MM_GEMM_H_
