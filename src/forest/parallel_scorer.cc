#include "forest/parallel_scorer.h"

#include <algorithm>

#include "common/check.h"

namespace dnlr::forest {

ParallelScorer::ParallelScorer(const DocumentScorer* inner,
                               common::ThreadPool* pool,
                               uint32_t min_docs_per_chunk,
                               uint32_t min_parallel_docs)
    : inner_(inner),
      pool_(pool),
      min_docs_per_chunk_(std::max(min_docs_per_chunk, 1u)),
      min_parallel_docs_(min_parallel_docs),
      name_("parallel-") {
  DNLR_CHECK(inner_ != nullptr);
  name_ += inner->name();
}

void ParallelScorer::Score(const float* docs, uint32_t count, uint32_t stride,
                           float* out) const {
  const uint64_t grain = min_docs_per_chunk_;
  // Serial below the crossover: the structural two-grain floor or the
  // machine's measured break-even count, whichever is larger.
  if (pool_ == nullptr || pool_->num_threads() <= 1 || count < 2 * grain ||
      count < min_parallel_docs_) {
    inner_->Score(docs, count, stride, out);
    return;
  }
  // The pool splits whole grains, so every chunk boundary is a multiple of
  // the grain and only the last chunk holds the ragged tail.
  pool_->ParallelFor((count + grain - 1) / grain,
                     [&](uint32_t /*chunk*/, uint64_t begin, uint64_t end) {
                       const uint64_t first = begin * grain;
                       const uint64_t last = std::min<uint64_t>(end * grain,
                                                                count);
                       inner_->Score(docs + first * stride,
                                     static_cast<uint32_t>(last - first),
                                     stride, out + first);
                     });
}

}  // namespace dnlr::forest
