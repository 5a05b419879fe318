#ifndef PERFBENCH_KERNELS_H_
#define PERFBENCH_KERNELS_H_

// Kernel replay for the traced run: the served models' exact shapes pushed
// through the kernels the rungs call, one public function at a time.

#include "fixture.h"
#include "stats.h"

namespace perfbench {

// Times, on real normalized test rows:
//   - data::ZNormalizer::Apply (row copy + normalize, as the scorer packs);
//   - mm::Sdmm on the student's first layer in CSR form and mm::Gemm on
//     each dense layer, at the scorer's batch width 64 and at 10 (the
//     width a 10-document request runs at);
//   - forest::QuickScorer::Score on the teacher subset the ladder's floor
//     rung serves, at the workload sizes 10, 128 and 1024.
// Bytes per call are computed from tensor sizes (operands read plus the
// result written), not measured.
void ReplayKernels(const Fixture& fixture, uint32_t subset_tree_divisor,
                   MetricMap* out);

}  // namespace perfbench

#endif  // PERFBENCH_KERNELS_H_
