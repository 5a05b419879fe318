#ifndef DNLR_MM_SDMM_H_
#define DNLR_MM_SDMM_H_

#include "mm/csr.h"
#include "mm/gemm.h"
#include "mm/matrix.h"

namespace dnlr::mm {

/// Sparse-dense matrix multiplication C = A * B in the LIBXSMM style
/// (Section 4.3, Figures 8-9): iterate the rows of CSR A; keep the C row in
/// SIMD registers (N split into Nb blocks of nb = 8 floats); for every
/// non-zero a(i,j), broadcast it and FMA it against the whole j-th row of B.
/// Rows of A with no non-zeros are skipped (their C row is epilogue(0)).
/// A is m x k sparse, B is k x n dense, C is m x n dense and overwritten.
/// The epilogue is applied as each register block is stored, bitwise
/// identical to a separate pass over C afterwards.
void Sdmm(const CsrMatrix& a, const Matrix& b, Matrix* c,
          const Epilogue& epilogue = Epilogue());

/// Reference general-purpose CSR x dense kernel (Algorithm 1 of the paper):
/// the mundane loop nest with no register blocking or SIMD-aware layout.
/// Plays the role of the closed-source MKL routine in the Table 3
/// comparison.
void SdmmReference(const CsrMatrix& a, const Matrix& b, Matrix* c);

/// The inner loop Sdmm runs: "avx2" (8-float FMA register blocks) or
/// "scalar", fixed at compile time by the target ISA.
const char* SdmmKernelName();

/// Measured wall time in microseconds of one C = A*B with the optimized
/// kernel, for the sparse predictor's calibration and validation.
double MeasureSdmmMicros(const CsrMatrix& a, uint32_t n, int repeats = 7,
                         uint64_t seed = 123);

/// Same measurement for the reference kernel (Table 3 baseline column).
double MeasureSdmmReferenceMicros(const CsrMatrix& a, uint32_t n,
                                  int repeats = 7, uint64_t seed = 123);

}  // namespace dnlr::mm

#endif  // DNLR_MM_SDMM_H_
