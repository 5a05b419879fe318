#ifndef PERFBENCH_STATS_H_
#define PERFBENCH_STATS_H_

// Exact statistics over raw samples, and the process-level resource reads
// the end-to-end metrics are taken from.

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "serve/latency.h"

namespace perfbench {

// Named metric values of one run, in the units BENCHMARK.json declares.
using MetricMap = std::map<std::string, double>;

// Exact nearest-rank percentile of the raw samples: the
// ceil(p / 100 * n)-th smallest value. Always an observed sample, so it can
// never exceed the maximum. Returns 0 for no samples.
using dnlr::serve::Percentile;

// Median by the same rule (nearest rank 50).
inline double Median(std::vector<double> samples) {
  return Percentile(std::move(samples), 50.0);
}

// steady_clock nanoseconds; the serving engine's clock reads the same
// steady_clock in microseconds.
uint64_t NowNanos();

// User + system CPU time of the whole process, in seconds (getrusage).
double ProcessCpuSeconds();

// Bytes the allocator has handed out and not yet taken back (heap chunks
// in use plus mmapped chunks, from mallinfo2), in MiB: memory held by live
// objects, whatever the allocator keeps cached or fragmented around them.
double HeapInUseMb();

// CPU time of the calling thread, in seconds (getrusage RUSAGE_THREAD).
double ThreadCpuSeconds();

// CPU time the hypervisor ran other guests instead of this machine, summed
// over its CPUs, in seconds (the steal column of /proc/stat; 0 on bare
// metal). Reported with each window as a noise indicator.
double StealSeconds();

// Resident set size of the process, in MiB (/proc/self/statm), read after
// malloc_trim hands freed allocator pages back to the system, so it counts
// memory held rather than what the allocator happens to cache.
double ResidentMb();

}  // namespace perfbench

#endif  // PERFBENCH_STATS_H_
