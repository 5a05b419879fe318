#ifndef DNLR_CORE_TIMING_H_
#define DNLR_CORE_TIMING_H_

#include "data/dataset.h"
#include "forest/scorer.h"

namespace dnlr::core {

/// Measures the single-thread scoring time of `scorer` over all documents of
/// `dataset`, in microseconds per document (the paper's efficiency metric).
/// Takes the median of `repeats` full passes after one warm-up pass
/// (TimeMicros).
double MeasureScorerMicrosPerDoc(const forest::DocumentScorer& scorer,
                                 const data::Dataset& dataset,
                                 int repeats = 3);

/// Same measurement over `count` random documents with `num_features`
/// features each (for shape-only timing where no dataset exists).
double MeasureScorerMicrosPerDocSynthetic(const forest::DocumentScorer& scorer,
                                          uint32_t count,
                                          uint32_t num_features,
                                          int repeats = 3, uint64_t seed = 17);

}  // namespace dnlr::core

#endif  // DNLR_CORE_TIMING_H_
