#include "nn/scorer.h"

#include <algorithm>
#include <string>

#include "mm/sdmm.h"
#include "obs/trace.h"

namespace dnlr::nn {

/// Per-OS-thread forward-pass scratch: two activation buffers. The input
/// columns go into layers[0]; layer l reads layers[l % 2] and writes the
/// other one, so the input's buffer takes layer 1's output and no third
/// buffer is held. Like mm's GemmScratch it is reused across batches, Score
/// calls and scorers, so steady-state scoring neither allocates nor
/// zero-fills: Reshape keeps the storage once it reaches the widest shape,
/// and every entry a layer reads was written earlier in the same batch (the
/// input transposition writes every column, and the GEMM and Sdmm store
/// every entry of C).
struct ForwardScratch {
  mm::Matrix layers[2];
};

namespace {

ForwardScratch& LocalForwardScratch() {
  thread_local ForwardScratch scratch;
  return scratch;
}

}  // namespace

NeuralScorer::NeuralScorer(const Mlp& mlp, const data::ZNormalizer* normalizer,
                           NeuralScorerConfig config)
    : NeuralScorer(mlp, normalizer, config, /*sparse_first_layer=*/false) {}

NeuralScorer::NeuralScorer(const Mlp& mlp, const data::ZNormalizer* normalizer,
                           NeuralScorerConfig config, bool sparse_first_layer)
    : sparse_first_layer_(sparse_first_layer),
      normalizer_(normalizer),
      config_(config),
      input_dim_(mlp.arch().input_dim) {
  DNLR_CHECK_GT(config_.batch_size, 0u);
  if (normalizer_ != nullptr) {
    DNLR_CHECK_EQ(normalizer_->num_features(), input_dim_);
  }
  for (uint32_t l = 0; l < mlp.num_layers(); ++l) {
    const bool sparse = sparse_first_layer_ && l == 0;
    if (sparse) {
      first_layer_ = mm::CsrMatrix::FromDense(mlp.layer(l).weight);
      weights_.emplace_back();
    } else {
      weights_.emplace_back(mlp.layer(l).weight);
    }
    biases_.push_back(mlp.layer(l).bias);
    const std::string kind = sparse ? ".sparse_us" : ".dense_us";
    layer_histograms_.push_back(&obs::MetricsRegistry::Global().GetHistogram(
        "nn.layer" + std::to_string(l) + kind));
  }
  forward_histogram_ =
      &obs::MetricsRegistry::Global().GetHistogram("nn.forward_us");
}

void NeuralScorer::ForwardColumns(ForwardScratch* scratch, float* out) const {
  const uint32_t batch = scratch->layers[0].cols();
  const mm::Matrix* current = &scratch->layers[0];
  obs::TraceSpan forward_span(forward_histogram_);
  const size_t num_layers = biases_.size();
  for (size_t l = 0; l < num_layers; ++l) {
    obs::TraceSpan layer_span(layer_histograms_[l]);
    mm::Matrix* next = &scratch->layers[(l + 1) % 2];
    next->Reshape(static_cast<uint32_t>(biases_[l].size()), batch);
    // Bias on every layer, ReLU6 on all but the last (the scoring layer).
    const mm::Epilogue epilogue{biases_[l].data(),
                                /*relu6=*/l + 1 < num_layers};
    if (l == 0 && sparse_first_layer_) {
      mm::Sdmm(first_layer_, *current, next, epilogue);
    } else {
      mm::Gemm(weights_[l], *current, next, epilogue);
    }
    current = next;
  }
  // Final layer has a single output row: the scores.
  const float* scores = current->Row(0);
  std::copy(scores, scores + batch, out);
}

void NeuralScorer::Score(const float* docs, uint32_t count, uint32_t stride,
                         float* out) const {
  if (count == 0) return;
  DNLR_OBS_COUNT("nn.docs", count);
  ForwardScratch& scratch = LocalForwardScratch();
  const float* mean =
      normalizer_ != nullptr ? normalizer_->mean().data() : nullptr;
  const float* stddev =
      normalizer_ != nullptr ? normalizer_->stddev().data() : nullptr;
  for (uint64_t first = 0; first < count; first += config_.batch_size) {
    const auto start = static_cast<uint32_t>(first);
    const uint32_t batch = std::min(config_.batch_size, count - start);
    // Documents become the columns of B (features x batch), normalized on
    // the way in with ZNormalizer::Apply's expression.
    scratch.layers[0].Reshape(input_dim_, batch);
    float* columns = scratch.layers[0].data();
    for (uint32_t b = 0; b < batch; ++b) {
      const float* row = docs + static_cast<size_t>(start + b) * stride;
      if (normalizer_ != nullptr) {
        for (uint32_t f = 0; f < input_dim_; ++f) {
          columns[static_cast<size_t>(f) * batch + b] =
              (row[f] - mean[f]) / stddev[f];
        }
      } else {
        for (uint32_t f = 0; f < input_dim_; ++f) {
          columns[static_cast<size_t>(f) * batch + b] = row[f];
        }
      }
    }
    ForwardColumns(&scratch, out + start);
  }
}

HybridNeuralScorer::HybridNeuralScorer(const Mlp& mlp,
                                       const data::ZNormalizer* normalizer,
                                       NeuralScorerConfig config)
    : NeuralScorer(mlp, normalizer, config, /*sparse_first_layer=*/true) {}

}  // namespace dnlr::nn
