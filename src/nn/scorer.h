#ifndef DNLR_NN_SCORER_H_
#define DNLR_NN_SCORER_H_

#include <vector>

#include "data/normalize.h"
#include "forest/scorer.h"
#include "mm/csr.h"
#include "mm/gemm.h"
#include "nn/mlp.h"

namespace dnlr::obs {
class Histogram;
}  // namespace dnlr::obs

namespace dnlr::nn {

/// Batching configuration of the neural scoring engines. The paper scores
/// in batches (n is the GEMM's N dimension); 64 is its sparse sweet spot.
/// A Score call runs single-threaded; forest::ParallelScorer splits calls
/// across a pool at multiples of batch_size, which keeps scores bitwise.
struct NeuralScorerConfig {
  uint32_t batch_size = 64;
};

/// Per-thread scratch of the forward pass (defined in scorer.cc).
struct ForwardScratch;

/// Optimized dense neural inference on CPU: documents are Z-normalized and
/// transposed straight into the columns of B (features x batch); each layer
/// is one blocked GEMM C = W * B over weights packed once at construction,
/// with bias + ReLU6 fused into the store of C. This is the C++ engine the
/// paper benchmarks against QuickScorer (Section 6.1 uses oneDNN's sgemm;
/// ours is the Goto-algorithm GEMM from mm/).
class NeuralScorer : public forest::DocumentScorer {
 public:
  /// Packs every layer's weights into the GEMM's A-panel layout and copies
  /// the biases; the scorer keeps no reference to `mlp`. `normalizer` may be
  /// null when inputs are already normalized; it is captured by pointer and
  /// must outlive the scorer.
  NeuralScorer(const Mlp& mlp, const data::ZNormalizer* normalizer,
               NeuralScorerConfig config = NeuralScorerConfig());

  std::string_view name() const override { return "neural-dense"; }

  void Score(const float* docs, uint32_t count, uint32_t stride,
             float* out) const override;

 protected:
  /// With `sparse_first_layer`, layer 0 is kept as CSR and multiplied with
  /// Sdmm instead of being packed for the GEMM (the hybrid engine).
  NeuralScorer(const Mlp& mlp, const data::ZNormalizer* normalizer,
               NeuralScorerConfig config, bool sparse_first_layer);

  /// The CSR first layer; empty unless the first layer runs sparse.
  const mm::CsrMatrix& first_layer() const { return first_layer_; }

 private:
  /// Scores one batch whose normalized columns (features x batch) are in
  /// the scratch's first buffer; the layers ping-pong between its two
  /// buffers.
  void ForwardColumns(ForwardScratch* scratch, float* out) const;

  bool sparse_first_layer_;
  mm::CsrMatrix first_layer_;                  // layer 0 when it runs sparse
  std::vector<mm::PackedMatrix> weights_;      // per layer; [0] empty when
                                               // the first layer runs sparse
  std::vector<std::vector<float>> biases_;     // per layer
  const data::ZNormalizer* normalizer_;
  NeuralScorerConfig config_;
  uint32_t input_dim_;

  /// Observability: per-layer forward-time histograms plus the whole-batch
  /// forward histogram, resolved from the global registry at construction
  /// so the forward pass never touches the registry map. Layer 0's name
  /// marks the sparse / dense split. Recording is gated on the obs run-time
  /// switch and never alters scores.
  std::vector<obs::Histogram*> layer_histograms_;
  obs::Histogram* forward_histogram_ = nullptr;
};

/// The paper's hybrid engine: the (heavily pruned) first layer runs as
/// sparse-dense multiplication over its CSR weights; all remaining layers
/// run dense. This is the configuration that outperforms QuickScorer
/// (Table 8, Figures 12-13). The dense copy of the first layer is not kept.
class HybridNeuralScorer : public NeuralScorer {
 public:
  HybridNeuralScorer(const Mlp& mlp, const data::ZNormalizer* normalizer,
                     NeuralScorerConfig config = NeuralScorerConfig());

  std::string_view name() const override { return "neural-hybrid-sparse"; }

  /// Sparsity of the first layer actually exploited by the engine.
  double first_layer_sparsity() const { return first_layer().Sparsity(); }
};

}  // namespace dnlr::nn

#endif  // DNLR_NN_SCORER_H_
