#include "predict/network_time.h"

#include <algorithm>
#include <cstdint>
#include <vector>

#include "common/check.h"
#include "common/rng.h"
#include "common/thread_pool.h"
#include "common/timer.h"
#include "mm/gemm.h"

namespace dnlr::predict {

HybridTimeEstimate EstimateHybridTime(const Architecture& arch, uint32_t batch,
                                      double first_layer_sparsity,
                                      const DenseTimePredictor& dense,
                                      const SparseTimePredictor& sparse) {
  DNLR_CHECK_GT(batch, 0u);
  DNLR_CHECK(!arch.hidden.empty());
  HybridTimeEstimate estimate;

  const std::vector<double> layer_micros = dense.PredictLayerMicros(arch, batch);
  double total = 0.0;
  for (const double micros : layer_micros) total += micros;
  estimate.dense_us_per_doc = total / batch;
  estimate.first_layer_impact_percent =
      total > 0.0 ? 100.0 * layer_micros[0] / total : 0.0;
  estimate.pruned_us_per_doc = (total - layer_micros[0]) / batch;

  const double sparse_first_us = sparse.PredictMicrosWorstCase(
      arch.hidden[0], arch.input_dim, first_layer_sparsity, batch);
  estimate.hybrid_us_per_doc =
      estimate.pruned_us_per_doc + sparse_first_us / batch;
  return estimate;
}

double PredictSparsitySpeedup(uint32_t m, uint32_t k, double sparsity,
                              uint32_t n, const DenseTimePredictor& dense,
                              const SparseTimePredictor& sparse) {
  const double dense_us = dense.PredictGemmMicros(m, k, n);
  const double sparse_us = sparse.PredictMicrosWorstCase(m, k, sparsity, n);
  return sparse_us > 0.0 ? dense_us / sparse_us : 0.0;
}

uint32_t ParallelScaling::CrossoverDocs(double serial_us_per_doc) const {
  if (num_threads <= 1) return 0;  // a serial pool never fans out
  if (Speedup() <= 1.02 || serial_us_per_doc <= 0.0) {
    return UINT32_MAX;  // parallelism never wins here
  }
  // Smallest doc count whose parallel saving exceeds the fan-out cost:
  // docs * serial_us_per_doc * (1 - 1/speedup) > overhead_us.
  const double saved_fraction = 1.0 - 1.0 / Speedup();
  const double docs = overhead_us / (serial_us_per_doc * saved_fraction);
  if (docs >= static_cast<double>(UINT32_MAX)) return UINT32_MAX;
  return static_cast<uint32_t>(std::max(0.0, docs)) + 1;
}

namespace {

/// `count` independent batches C_i = A * B over one pre-packed A and one
/// shared read-only B, each into its own C: the work a ParallelScorer
/// hands its chunks, without a scorer (predict depends only on mm).
class BatchProbe {
 public:
  BatchProbe(uint32_t m, uint32_t k, uint32_t n, uint32_t count)
      : b_(k, n), outputs_(count, mm::Matrix(m, n)) {
    Rng rng(99);
    mm::Matrix a(m, k);
    a.FillUniform(rng);
    b_.FillUniform(rng);
    a_ = mm::PackedMatrix(a);
  }

  /// Median wall time of the batches run on the calling thread.
  double SerialMicros(int repeats) {
    return TimeMicros([&] { Run(0, outputs_.size()); }, repeats);
  }

  /// Median wall time of one ParallelFor over the batches.
  double ParallelMicros(common::ThreadPool* pool, int repeats) {
    return TimeMicros(
        [&] {
          pool->ParallelFor(outputs_.size(),
                            [&](uint32_t /*chunk*/, uint64_t begin,
                                uint64_t end) { Run(begin, end); });
        },
        repeats);
  }

 private:
  void Run(uint64_t begin, uint64_t end) {
    for (uint64_t i = begin; i < end; ++i) mm::Gemm(a_, b_, &outputs_[i]);
  }

  mm::PackedMatrix a_;
  mm::Matrix b_;
  std::vector<mm::Matrix> outputs_;
};

}  // namespace

ParallelScaling MeasureParallelScaling(common::ThreadPool* pool, uint32_t m,
                                       uint32_t k, uint32_t n, int repeats) {
  ParallelScaling scaling;
  if (pool == nullptr || pool->num_threads() <= 1) return scaling;
  scaling.num_threads = pool->num_threads();

  // Efficiency: enough batches that every thread gets several, so the
  // probe measures scaling rather than the fan-out it amortizes. Invert
  // speedup = 1 + e * (T - 1) for e, then clamp to [0, 1]: oversubscribed
  // or noisy measurements must never make predicted times optimistic.
  BatchProbe many(m, k, n, 4 * scaling.num_threads);
  const double serial_us = many.SerialMicros(repeats);
  const double parallel_us = many.ParallelMicros(pool, repeats);
  if (serial_us <= 0.0 || parallel_us <= 0.0) {
    scaling.efficiency = 0.0;
    return scaling;
  }
  const double efficiency = (serial_us / parallel_us - 1.0) /
                            static_cast<double>(scaling.num_threads - 1);
  scaling.efficiency = std::min(1.0, std::max(0.0, efficiency));

  // Overhead: two tiny batches, whose ideal split takes half the serial
  // time; what the fan-out adds on top of that is its coordination cost.
  constexpr uint32_t kTiny = 16;
  BatchProbe two(kTiny, kTiny, kTiny, 2);
  const double two_serial_us = two.SerialMicros(repeats);
  const double two_parallel_us = two.ParallelMicros(pool, repeats);
  scaling.overhead_us = std::max(0.0, two_parallel_us - two_serial_us / 2.0);

  DNLR_CHECK_LE(scaling.efficiency, 1.0);
  DNLR_CHECK_GE(scaling.efficiency, 0.0);
  return scaling;
}

double ParallelMicrosPerDoc(double serial_us_per_doc,
                            const ParallelScaling& scaling) {
  return serial_us_per_doc / scaling.Speedup();
}

}  // namespace dnlr::predict
