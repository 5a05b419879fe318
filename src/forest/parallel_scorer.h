#ifndef DNLR_FOREST_PARALLEL_SCORER_H_
#define DNLR_FOREST_PARALLEL_SCORER_H_

#include <string>

#include "common/thread_pool.h"
#include "forest/scorer.h"

namespace dnlr::forest {

/// The one intra-request fan-out: wraps a per-document DocumentScorer and
/// splits each Score call's document block across a thread pool. Chunks
/// start and end only at multiples of the grain (`min_docs_per_chunk`),
/// and every chunk scores its contiguous sub-range with the unchanged inner
/// scorer, writing to its disjoint slice of `out`. So each document is
/// scored once, by the same code, at the same position within its grain as
/// in the serial call: scores are bitwise identical to the inner scorer for
/// every tree-traversal variant, and for nn::NeuralScorer and
/// HybridNeuralScorer when the grain is a multiple of their batch_size
/// (both default to 64), since each batch then holds the same documents.
///
/// Per-document scorers only. A scorer whose output for one document
/// depends on the others in the call (core::CascadeScorer re-cuts its top
/// fraction and its score shift per call) must not be wrapped: wrap its
/// stages instead, and the cascade over the wrapped stages stays bitwise
/// equal to the serial cascade.
///
/// Blocks smaller than max(min_parallel_docs, 2 * min_docs_per_chunk) stay
/// on the calling thread: fan-out overhead would dominate tiny candidate
/// sets. min_docs_per_chunk is the structural floor; min_parallel_docs is
/// the machine's measured crossover, typically
/// predict::ParallelScaling::CrossoverDocs(serial_us_per_doc).
class ParallelScorer : public DocumentScorer {
 public:
  /// Neither the inner scorer nor the pool is owned; both must outlive this
  /// wrapper. A null pool (or pool of 1) degrades to a plain pass-through.
  /// min_parallel_docs = 0 leaves only the structural floor; UINT32_MAX
  /// pins the wrapper serial (a measured "parallelism never wins here").
  ParallelScorer(const DocumentScorer* inner, common::ThreadPool* pool,
                 uint32_t min_docs_per_chunk = 64,
                 uint32_t min_parallel_docs = 0);

  std::string_view name() const override { return name_; }

  void Score(const float* docs, uint32_t count, uint32_t stride,
             float* out) const override;

 private:
  const DocumentScorer* inner_;
  common::ThreadPool* pool_;
  uint32_t min_docs_per_chunk_;
  uint32_t min_parallel_docs_;
  std::string name_;
};

}  // namespace dnlr::forest

#endif  // DNLR_FOREST_PARALLEL_SCORER_H_
