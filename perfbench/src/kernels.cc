#include "kernels.h"

#include <algorithm>
#include <string>
#include <vector>

#include "forest/quickscorer.h"
#include "mm/csr.h"
#include "mm/gemm.h"
#include "mm/sdmm.h"

namespace perfbench {
namespace {

// Median over 7 trials of the per-call time, each trial long enough
// (>= 1 ms) to dwarf the clock read.
template <typename Fn>
double MicrosPerCall(Fn&& fn) {
  fn();
  uint64_t reps = 1;
  for (;;) {
    const uint64_t start = NowNanos();
    for (uint64_t i = 0; i < reps; ++i) fn();
    if (NowNanos() - start >= 1'000'000 || reps >= (1u << 20)) break;
    reps *= 2;
  }
  std::vector<double> trials;
  for (int t = 0; t < 7; ++t) {
    const uint64_t start = NowNanos();
    for (uint64_t i = 0; i < reps; ++i) fn();
    trials.push_back(static_cast<double>(NowNanos() - start) * 1e-3 /
                     static_cast<double>(reps));
  }
  return Median(std::move(trials));
}

// Feature-major (features x n) block of normalized rows: the scorer's
// packed input layout.
dnlr::mm::Matrix PackColumns(const std::vector<float>& rows, uint32_t nf,
                             uint32_t n) {
  dnlr::mm::Matrix columns(nf, n);
  for (uint32_t b = 0; b < n; ++b) {
    for (uint32_t f = 0; f < nf; ++f) {
      columns.At(f, b) = rows[static_cast<size_t>(b) * nf + f];
    }
  }
  return columns;
}

}  // namespace

void ReplayKernels(const Fixture& fixture, uint32_t subset_tree_divisor,
                   MetricMap* out) {
  const uint32_t nf = fixture.num_features();
  const CandidateSet set = fixture.Set(0, Fixture::kMaxDocs);
  const std::vector<float> raw(set.docs,
                               set.docs + static_cast<size_t>(set.count) * nf);

  std::vector<float> normalized = raw;
  const double normalize_us = MicrosPerCall([&] {
    std::copy(raw.begin(), raw.end(), normalized.begin());
    for (uint32_t d = 0; d < set.count; ++d) {
      fixture.normalizer().Apply(normalized.data() +
                                 static_cast<size_t>(d) * nf);
    }
  });
  (*out)["data.normalize.ns_per_doc"] = normalize_us * 1e3 / set.count;

  const dnlr::nn::Mlp& student = fixture.student();
  const dnlr::mm::CsrMatrix first = dnlr::mm::CsrMatrix::FromDense(
      student.layer(0).weight);
  for (const uint32_t n : {64u, 10u}) {
    const std::string suffix = n == 64 ? "" : ".n" + std::to_string(n);
    // Layer inputs: the packed rows for layer 0, then each layer's output
    // (the forward pass's real activations, less bias and ReLU6, which do
    // not change the kernels' work).
    dnlr::mm::Matrix input = PackColumns(normalized, nf, n);
    dnlr::mm::Matrix output(first.rows(), n);
    const double sdmm_us =
        MicrosPerCall([&] { dnlr::mm::Sdmm(first, input, &output); });
    (*out)["mm.sdmm.l0.us_per_call" + suffix] = sdmm_us;
    if (n == 64) {
      const double flops = 2.0 * first.nnz() * n;
      const double bytes =
          8.0 * first.nnz() + 4.0 * (first.rows() + 1) +
          4.0 * static_cast<double>(nf) * n + 4.0 * first.rows() * n;
      (*out)["mm.sdmm.l0.gflops"] = flops / sdmm_us * 1e-3;
      (*out)["mm.sdmm.l0.bytes_per_call"] = bytes;
    }
    for (uint32_t l = 1; l < student.num_layers(); ++l) {
      input = std::move(output);
      const dnlr::mm::Matrix& weight = student.layer(l).weight;
      output = dnlr::mm::Matrix(weight.rows(), n);
      const double gemm_us =
          MicrosPerCall([&] { dnlr::mm::Gemm(weight, input, &output); });
      const std::string name = "mm.gemm.l" + std::to_string(l);
      (*out)[name + ".us_per_call" + suffix] = gemm_us;
      if (n == 64) {
        const double m = weight.rows();
        const double k = weight.cols();
        (*out)[name + ".gflops"] = 2.0 * m * k * n / gemm_us * 1e-3;
        (*out)[name + ".bytes_per_call"] = 4.0 * (m * k + k * n + m * n);
      }
    }
  }

  const dnlr::gbdt::Ensemble& teacher = fixture.teacher();
  dnlr::gbdt::Ensemble subset(teacher.base_score());
  const uint32_t keep =
      std::max(1u, teacher.num_trees() / subset_tree_divisor);
  for (uint32_t t = 0; t < keep; ++t) subset.AddTree(teacher.tree(t));
  const dnlr::forest::QuickScorer scorer(subset, nf);
  std::vector<float> scores(set.count);
  for (const uint32_t n : {10u, 128u, 1024u}) {
    const double us = MicrosPerCall(
        [&] { scorer.Score(raw.data(), n, nf, scores.data()); });
    (*out)["forest.subset.us_per_doc.n" + std::to_string(n)] = us / n;
  }
}

}  // namespace perfbench
