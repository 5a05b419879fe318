#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <string>
#include <tuple>
#include <vector>

#include "common/rng.h"
#include "mm/csr.h"
#include "mm/gemm.h"
#include "mm/matrix.h"
#include "mm/sdmm.h"

namespace dnlr::mm {
namespace {

TEST(MatrixTest, InitializerListAndAccessors) {
  Matrix m({{1.0f, 2.0f, 3.0f}, {4.0f, 5.0f, 6.0f}});
  EXPECT_EQ(m.rows(), 2u);
  EXPECT_EQ(m.cols(), 3u);
  EXPECT_FLOAT_EQ(m.At(0, 0), 1.0f);
  EXPECT_FLOAT_EQ(m.At(1, 2), 6.0f);
  EXPECT_FLOAT_EQ(m.Row(1)[0], 4.0f);
}

TEST(MatrixTest, ZeroInitialized) {
  Matrix m(3, 5);
  for (uint32_t r = 0; r < 3; ++r) {
    for (uint32_t c = 0; c < 5; ++c) EXPECT_FLOAT_EQ(m.At(r, c), 0.0f);
  }
}

TEST(MatrixTest, TransposedRoundTrip) {
  Rng rng(1);
  Matrix m(7, 11);
  m.FillNormal(rng);
  Matrix tt = m.Transposed().Transposed();
  EXPECT_FLOAT_EQ(m.MaxAbsDiff(tt), 0.0f);
}

TEST(MatrixTest, SparsityCountsZeros) {
  Matrix m({{0.0f, 1.0f}, {0.0f, 0.0f}});
  EXPECT_DOUBLE_EQ(m.Sparsity(), 0.75);
}

TEST(GemmTest, RoundUp) {
  EXPECT_EQ(RoundUp(0, 6), 0u);
  EXPECT_EQ(RoundUp(1, 6), 6u);
  EXPECT_EQ(RoundUp(6, 6), 6u);
  EXPECT_EQ(RoundUp(7, 6), 12u);
}

TEST(GemmTest, TailoringClampsAndRounds) {
  GemmParams base;
  // Small problem: every blocking parameter shrinks to the (rounded)
  // problem size.
  GemmParams small = base.TailoredTo(10, 20, 30);
  EXPECT_EQ(small.mc, RoundUp(10, base.mr));
  EXPECT_EQ(small.nc, RoundUp(20, base.nr));
  EXPECT_EQ(small.kc, 30u);
  // Huge problem: parameters stay at their defaults.
  GemmParams big = base.TailoredTo(100000, 100000, 100000);
  EXPECT_EQ(big.mc, base.mc);
  EXPECT_EQ(big.nc, base.nc);
  EXPECT_EQ(big.kc, base.kc);
}

TEST(GemmTest, TinyExactProduct) {
  Matrix a({{1.0f, 2.0f}, {3.0f, 4.0f}});
  Matrix b({{5.0f, 6.0f}, {7.0f, 8.0f}});
  Matrix c(2, 2);
  Gemm(a, b, &c);
  EXPECT_FLOAT_EQ(c.At(0, 0), 19.0f);
  EXPECT_FLOAT_EQ(c.At(0, 1), 22.0f);
  EXPECT_FLOAT_EQ(c.At(1, 0), 43.0f);
  EXPECT_FLOAT_EQ(c.At(1, 1), 50.0f);
}

// Property sweep: the blocked GEMM agrees with the reference triple loop on
// shapes that exercise every edge case of the micro/macro blocking.
class GemmShapeTest
    : public ::testing::TestWithParam<std::tuple<int, int, int>> {};

TEST_P(GemmShapeTest, MatchesReference) {
  const auto [m, k, n] = GetParam();
  // Mix the shape into a seed in uint64 space: the products overflow int.
  Rng rng(static_cast<uint64_t>(m) * 73856093u +
          static_cast<uint64_t>(k) * 19349663u +
          static_cast<uint64_t>(n) * 83492791u);
  Matrix a(m, k);
  Matrix b(k, n);
  a.FillNormal(rng);
  b.FillNormal(rng);
  Matrix c(m, n);
  Matrix expected(m, n);
  Gemm(a, b, &c);
  GemmReference(a, b, &expected);
  // FMA reassociation changes rounding; tolerance scales with k.
  const float tol = 1e-4f * std::sqrt(static_cast<float>(k)) + 1e-5f;
  EXPECT_LE(c.MaxAbsDiff(expected), tol)
      << "shape " << m << "x" << k << "x" << n;
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, GemmShapeTest,
    ::testing::Values(
        std::make_tuple(1, 1, 1), std::make_tuple(1, 7, 1),
        std::make_tuple(6, 16, 16), std::make_tuple(5, 3, 15),
        std::make_tuple(7, 17, 19), std::make_tuple(12, 32, 32),
        std::make_tuple(13, 33, 31), std::make_tuple(64, 64, 64),
        std::make_tuple(100, 136, 64), std::make_tuple(136, 100, 1),
        std::make_tuple(73, 257, 129),   // crosses kc boundary when kc=256
        std::make_tuple(200, 50, 1000),  // wide C
        std::make_tuple(1, 300, 40),     // single-row A
        std::make_tuple(300, 1, 40)));   // rank-1 update

TEST(GemmTest, CustomMicroTileScalarPath) {
  // A non-default micro-tile disables the SIMD kernel; results must agree.
  GemmParams params;
  params.mr = 4;
  params.nr = 5;
  params.mc = 8;
  params.kc = 16;
  params.nc = 10;
  Rng rng(2);
  Matrix a(33, 47);
  Matrix b(47, 29);
  a.FillNormal(rng);
  b.FillNormal(rng);
  Matrix c(33, 29);
  Matrix expected(33, 29);
  GemmWithParams(a, b, &c, params);
  GemmReference(a, b, &expected);
  EXPECT_LE(c.MaxAbsDiff(expected), 1e-3f);
}

TEST(GemmTest, OverwritesPreviousContents) {
  Matrix a({{1.0f}});
  Matrix b({{2.0f}});
  Matrix c(1, 1);
  c.Fill(123.0f);
  Gemm(a, b, &c);
  EXPECT_FLOAT_EQ(c.At(0, 0), 2.0f);
}

TEST(GemmTest, MeasureGflopsPositive) {
  const double gflops = MeasureGemmGflops(64, 64, 64, 2);
  EXPECT_GT(gflops, 0.01);
}

TEST(CsrTest, FromDenseRoundTrip) {
  Matrix dense({{0.0f, 1.5f, 0.0f}, {0.0f, 0.0f, 0.0f}, {-2.0f, 0.0f, 3.0f}});
  CsrMatrix csr = CsrMatrix::FromDense(dense);
  EXPECT_EQ(csr.nnz(), 3u);
  EXPECT_EQ(csr.rows(), 3u);
  EXPECT_EQ(csr.cols(), 3u);
  EXPECT_EQ(csr.NumActiveRows(), 2u);
  EXPECT_EQ(csr.NumActiveCols(), 3u);
  EXPECT_FLOAT_EQ(csr.ToDense().MaxAbsDiff(dense), 0.0f);
}

TEST(CsrTest, SparsityFraction) {
  Matrix dense(10, 10);
  dense.At(0, 0) = 1.0f;
  CsrMatrix csr = CsrMatrix::FromDense(dense);
  EXPECT_DOUBLE_EQ(csr.Sparsity(), 0.99);
}

TEST(CsrTest, EpsilonThresholding) {
  Matrix dense({{0.05f, 1.0f}});
  CsrMatrix csr = CsrMatrix::FromDense(dense, 0.1f);
  EXPECT_EQ(csr.nnz(), 1u);
  EXPECT_FLOAT_EQ(csr.values()[0], 1.0f);
}

TEST(CsrTest, ExplicitConstructionValidates) {
  CsrMatrix csr(2, 3, {0, 1, 2}, {2, 0}, {5.0f, -1.0f});
  EXPECT_EQ(csr.nnz(), 2u);
  EXPECT_FLOAT_EQ(csr.ToDense().At(0, 2), 5.0f);
  EXPECT_FLOAT_EQ(csr.ToDense().At(1, 0), -1.0f);
}
// The separate bias + activation pass the scorers ran over every layer's
// output before the epilogue was fused into the kernels' stores.
void BiasActivate(const std::vector<float>& bias, bool activate, Matrix* z) {
  for (uint32_t o = 0; o < z->rows(); ++o) {
    float* row = z->Row(o);
    const float b = bias[o];
    if (activate) {
      for (uint32_t j = 0; j < z->cols(); ++j) row[j] = Relu6(row[j] + b);
    } else {
      for (uint32_t j = 0; j < z->cols(); ++j) row[j] += b;
    }
  }
}

bool BitwiseEqual(const Matrix& x, const Matrix& y) {
  return x.rows() == y.rows() && x.cols() == y.cols() &&
         std::memcmp(x.data(), y.data(), x.size() * sizeof(float)) == 0;
}

std::vector<float> RandomBias(uint32_t m, Rng& rng) {
  std::vector<float> bias(m);
  for (float& b : bias) b = static_cast<float>(rng.Normal(0.0, 2.0));
  return bias;
}

TEST(PackedGemmTest, HoldsPaddedRowsTimesK) {
  Rng rng(3);
  Matrix a(100, 300);
  a.FillNormal(rng);
  const PackedMatrix packed(a);
  EXPECT_EQ(packed.rows(), 100u);
  EXPECT_EQ(packed.cols(), 300u);
  EXPECT_EQ(packed.size(),
            static_cast<size_t>(RoundUp(100, GemmParams().mr)) * 300);
}

// The tentpole contract: a pre-packed A plus the fused epilogue gives the
// same bits as per-call packing followed by a separate bias (+ ReLU6)
// pass, across the micro-tile edges (m around mr = 6 and mc = 72, n around
// nr = 16) and the KC boundary (k = 256 / 257 / 300: two panels, the bias
// must land once, after the last). C starts out holding garbage, which the
// product must overwrite.
TEST(PackedGemmTest, FusedEpilogueBitwiseMatchesSeparatePass) {
  for (const uint32_t m : {1u, 5u, 6u, 7u, 72u, 73u, 100u}) {
    for (const uint32_t k : {1u, 50u, 256u, 257u, 300u}) {
      Rng rng(static_cast<uint64_t>(m) * 1009 + k);
      Matrix a(m, k);
      a.FillNormal(rng);
      const PackedMatrix packed(a);
      const std::vector<float> bias = RandomBias(m, rng);
      for (const uint32_t n : {1u, 10u, 15u, 16u, 17u, 64u, 65u}) {
        Matrix b(k, n);
        b.FillNormal(rng);
        for (const bool relu6 : {false, true}) {
          Matrix expected(m, n);
          Gemm(a, b, &expected);
          BiasActivate(bias, relu6, &expected);
          Matrix fused(m, n);
          fused.Fill(-123.0f);
          Gemm(packed, b, &fused, Epilogue{bias.data(), relu6});
          EXPECT_TRUE(BitwiseEqual(fused, expected))
              << m << "x" << k << "x" << n << " relu6 " << relu6;
        }
        Matrix plain(m, n);
        Gemm(a, b, &plain);
        Matrix no_epilogue(m, n);
        Gemm(packed, b, &no_epilogue);
        EXPECT_TRUE(BitwiseEqual(no_epilogue, plain))
            << m << "x" << k << "x" << n << " no epilogue";
      }
    }
  }
}

// Exact small integers make a double-applied bias visible: every C entry
// is k + bias with bias = 2.5 - k, i.e. exactly 2.5, and a bias added after
// each of the two KC panels would drive it far negative (clamped to 0).
TEST(PackedGemmTest, BiasAppliedOnceAfterLastKcPanel) {
  for (const uint32_t k : {257u, 300u, 600u}) {
    Matrix a(7, k);
    Matrix b(k, 17);
    a.Fill(1.0f);
    b.Fill(1.0f);
    const std::vector<float> bias(7, 2.5f - static_cast<float>(k));
    Matrix c(7, 17);
    Gemm(PackedMatrix(a), b, &c, Epilogue{bias.data(), /*relu6=*/true});
    for (uint32_t i = 0; i < c.rows(); ++i) {
      for (uint32_t j = 0; j < c.cols(); ++j) {
        ASSERT_EQ(c.At(i, j), 2.5f) << "k " << k << " at " << i << "," << j;
      }
    }
  }
}

TEST(PackedGemmTest, EmptySharedDimensionStoresEpilogueOfZero) {
  const Matrix a(3, 0);
  const Matrix b(0, 5);
  const std::vector<float> bias = {-1.0f, 2.0f, 7.0f};
  Matrix c(3, 5);
  c.Fill(9.0f);
  Gemm(PackedMatrix(a), b, &c, Epilogue{bias.data(), /*relu6=*/true});
  for (uint32_t j = 0; j < 5; ++j) {
    EXPECT_EQ(c.At(0, j), 0.0f);
    EXPECT_EQ(c.At(1, j), 2.0f);
    EXPECT_EQ(c.At(2, j), 6.0f);
  }
}

// Non-default blocking (scalar micro-kernel, several mc / kc / nc blocks):
// the packed operand carries its params, so the pre-packed product and the
// per-call-packed one followed by a separate epilogue pass agree bitwise.
TEST(PackedGemmTest, CustomParamsMatchPerCallPacking) {
  GemmParams params;
  params.mr = 4;
  params.nr = 5;
  params.mc = 8;
  params.kc = 16;
  params.nc = 10;
  Rng rng(4);
  Matrix a(33, 47);
  Matrix b(47, 29);
  a.FillNormal(rng);
  b.FillNormal(rng);
  const std::vector<float> bias = RandomBias(33, rng);
  Matrix expected(33, 29);
  GemmWithParams(a, b, &expected, params);
  BiasActivate(bias, /*activate=*/true, &expected);

  const PackedMatrix packed(a, params);
  Matrix got(33, 29);
  Gemm(packed, b, &got, Epilogue{bias.data(), /*relu6=*/true});
  EXPECT_TRUE(BitwiseEqual(got, expected));
}

// Plants -0 (one spot and, past two rows, all of row 1) and NaN and +-Inf
// at fixed spots of a random operand, so the kernels' stores see signed
// zeros and non-finite sums. The NaN is x86's default NaN (0xffc00000),
// the one Inf * 0 and Inf - Inf produce: for NaN + NaN the hardware
// returns the first operand and the compiler may commute a +, so a second
// payload would make the bits depend on register allocation, not on the
// kernel. Debug builds sweep every GEMM result with DNLR_DCHECK_FINITE, so
// the non-finite values are planted in release builds only.
void PlantSpecials(Matrix* x) {
  const uint32_t rows = x->rows();
  const uint32_t cols = x->cols();
  x->At(rows / 2, cols / 2) = -0.0f;
  if (rows > 2) {
    for (uint32_t j = 0; j < cols; ++j) x->At(1, j) = -0.0f;
  }
#ifdef NDEBUG
  const float inf = std::numeric_limits<float>::infinity();
  x->At(rows - 1, 0) = inf;
  x->At(0, cols - 1) = -std::numeric_limits<float>::quiet_NaN();
  x->At(rows - 1, cols - 1) = -inf;
#endif
}

// The AVX-512 12x32 (and, for n <= 16, 12x16) default against the AVX2 6x16
// kernel, bit for bit: every C element is the same FMA chain over k from +0
// per KC panel whatever the tile, so only the blocking differs. The shapes
// straddle both tiles' edges (m around 6, 12 and mc = 72; n around 16 and
// 32) and the KC boundary; pre-packed and per-call A.
TEST(PackedGemmTest, Avx512KernelBitwiseMatchesAvx2Kernel) {
  if (std::string(GemmKernelName()) != "avx512-12x32") {
    GTEST_SKIP() << "AVX-512 micro-kernel not compiled in";
  }
  const GemmParams wide;
  GemmParams avx2 = wide;
  avx2.mr = 6;
  avx2.nr = 16;
  for (const uint32_t m : {1u, 5u, 6u, 7u, 11u, 12u, 13u, 72u, 73u, 100u}) {
    for (const uint32_t k : {1u, 50u, 256u, 257u, 300u}) {
      Rng rng(static_cast<uint64_t>(m) * 7919 + k);
      Matrix a(m, k);
      a.FillNormal(rng);
      PlantSpecials(&a);
      const PackedMatrix packed_wide(a, wide);
      const PackedMatrix packed_avx2(a, avx2);
      const std::vector<float> bias = RandomBias(m, rng);
      for (const uint32_t n :
           {1u, 10u, 15u, 16u, 17u, 31u, 32u, 33u, 64u, 65u}) {
        Matrix b(k, n);
        b.FillNormal(rng);
        PlantSpecials(&b);
        const Epilogue epilogue{bias.data(), /*relu6=*/true};
        Matrix got(m, n);
        Matrix want(m, n);
        got.Fill(-123.0f);
        want.Fill(456.0f);
        Gemm(packed_wide, b, &got, epilogue);
        Gemm(packed_avx2, b, &want, epilogue);
        EXPECT_TRUE(BitwiseEqual(got, want))
            << m << "x" << k << "x" << n << " packed";
        got.Fill(std::numeric_limits<float>::quiet_NaN());
        want.Fill(-0.0f);
        GemmWithParams(a, b, &got, wide);
        GemmWithParams(a, b, &want, avx2);
        EXPECT_TRUE(BitwiseEqual(got, want))
            << m << "x" << k << "x" << n << " per call";
      }
    }
  }
}

// Property sweep for the sparse kernel across shapes, sparsities and batch
// sizes, including non-multiple-of-8 batches (scalar remainder path).
class SdmmTest : public ::testing::TestWithParam<std::tuple<int, int, int, double>> {};

TEST_P(SdmmTest, MatchesReference) {
  const auto [m, k, n, sparsity] = GetParam();
  Rng rng(static_cast<uint64_t>(m * 31 + k * 37 + n * 41) + 5);
  Matrix dense(m, k);
  for (uint32_t r = 0; r < dense.rows(); ++r) {
    for (uint32_t c = 0; c < dense.cols(); ++c) {
      if (rng.Uniform() >= sparsity) {
        dense.At(r, c) = static_cast<float>(rng.Normal());
      }
    }
  }
  CsrMatrix a = CsrMatrix::FromDense(dense);
  Matrix b(k, n);
  b.FillNormal(rng);
  Matrix c(m, n);
  Matrix expected(m, n);
  Sdmm(a, b, &c);
  SdmmReference(a, b, &expected);
  EXPECT_LE(c.MaxAbsDiff(expected), 1e-3f)
      << "shape " << m << "x" << k << "x" << n << " sparsity " << sparsity;

  // And both must agree with the dense product of the expanded matrix.
  Matrix dense_out(m, n);
  GemmReference(dense, b, &dense_out);
  EXPECT_LE(c.MaxAbsDiff(dense_out), 1e-3f);
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, SdmmTest,
    ::testing::Values(std::make_tuple(1, 1, 1, 0.0),
                      std::make_tuple(8, 8, 8, 0.5),
                      std::make_tuple(50, 136, 64, 0.97),
                      std::make_tuple(100, 136, 16, 0.99),
                      std::make_tuple(400, 136, 64, 0.996),
                      std::make_tuple(33, 47, 13, 0.9),   // scalar remainder
                      std::make_tuple(20, 30, 40, 1.0),   // fully sparse
                      std::make_tuple(20, 30, 40, 0.0),   // fully dense
                      std::make_tuple(64, 64, 33, 0.8),
                      std::make_tuple(10, 200, 7, 0.95)));

TEST(SdmmTest, InactiveRowsProduceZeroRows) {
  Matrix dense(4, 4);
  dense.At(1, 2) = 3.0f;  // only row 1 active
  CsrMatrix a = CsrMatrix::FromDense(dense);
  Rng rng(9);
  Matrix b(4, 8);
  b.FillNormal(rng);
  Matrix c(4, 8);
  Sdmm(a, b, &c);
  for (uint32_t j = 0; j < 8; ++j) {
    EXPECT_FLOAT_EQ(c.At(0, j), 0.0f);
    EXPECT_FLOAT_EQ(c.At(2, j), 0.0f);
    EXPECT_FLOAT_EQ(c.At(3, j), 0.0f);
    EXPECT_FLOAT_EQ(c.At(1, j), 3.0f * b.At(2, j));
  }
}

// The fused Sdmm store against Sdmm followed by the separate pass: every
// store path (32- and 8-wide register blocks, the scalar remainder and
// inactive rows) over garbage-filled outputs.
TEST(SdmmTest, FusedEpilogueBitwiseMatchesSeparatePass) {
  for (const uint32_t n : {1u, 7u, 8u, 10u, 33u, 64u, 65u}) {
    for (const double sparsity : {0.0, 0.9, 0.97}) {
      Rng rng(static_cast<uint64_t>(n) * 7 +
              static_cast<uint64_t>(sparsity * 100));
      Matrix dense(50, 136);
      for (uint32_t r = 0; r < dense.rows(); ++r) {
        if (r % 7 == 3) continue;  // some rows stay inactive
        for (uint32_t c = 0; c < dense.cols(); ++c) {
          if (rng.Uniform() >= sparsity) {
            dense.At(r, c) = static_cast<float>(rng.Normal());
          }
        }
      }
      const CsrMatrix a = CsrMatrix::FromDense(dense);
      Matrix b(136, n);
      b.FillNormal(rng);
      const std::vector<float> bias = RandomBias(50, rng);
      for (const bool relu6 : {false, true}) {
        Matrix expected(50, n);
        Sdmm(a, b, &expected);
        BiasActivate(bias, relu6, &expected);
        Matrix fused(50, n);
        fused.Fill(-123.0f);
        Sdmm(a, b, &fused, Epilogue{bias.data(), relu6});
        EXPECT_TRUE(BitwiseEqual(fused, expected))
            << "n " << n << " sparsity " << sparsity << " relu6 " << relu6;
      }
    }
  }
}

TEST(SdmmTest, MeasureHelpersReturnPositive) {
  Matrix dense(32, 32);
  dense.At(3, 4) = 1.0f;
  CsrMatrix a = CsrMatrix::FromDense(dense);
  EXPECT_GT(MeasureSdmmMicros(a, 16, 2), 0.0);
  EXPECT_GT(MeasureSdmmReferenceMicros(a, 16, 2), 0.0);
}

}  // namespace
}  // namespace dnlr::mm
