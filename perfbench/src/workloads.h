#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

// The three serving workloads and the window runner that measures them.
// Why each workload exists, and which layer metric should move which
// end-to-end metric, is written down in perfbench/WORKLOADS.md.

#include <cstdint>
#include <string>
#include <vector>

#include "fixture.h"
#include "replay/workload.h"
#include "stats.h"
#include "trace.h"

namespace perfbench {

struct WorkloadSpec {
  std::string name;
  // Open loop: one driver thread submits on a Poisson schedule (rate
  // base_qps * (1 + diurnal_amplitude * sin), `periods` full diurnal
  // periods per window) to one engine. Closed loop: `callers` tenant
  // threads each call ShardedRouter::ScoreSync back to back.
  bool open_loop = true;
  double base_qps = 0.0;
  double diurnal_amplitude = 0.0;
  uint32_t periods = 1;
  uint32_t engine_workers = 2;
  uint32_t callers = 0;
  uint32_t shards = 0;
  // Query keys (the Zipf rank table) and candidate-set sizes.
  uint32_t num_keys = 0;
  double zipf_exponent = 1.0;
  std::vector<dnlr::replay::SizeClass> mix;
  uint64_t deadline_us = 0;
  size_t cache_capacity = 4096;
  // Upper bound on requests per second, sizing the harness's pre-touched
  // sample storage (see RunWindow).
  double max_qps = 0.0;
};

// nullptr when `name` is not a workload.
const WorkloadSpec* FindWorkload(const std::string& name);
std::vector<std::string> WorkloadNames();

struct WindowResult {
  MetricMap end_to_end;
  MetricMap layer;  // filled when the window was traced
  uint64_t sent = 0;
  uint64_t ok = 0;
  uint64_t missed = 0;  // shed, failed or answered after the deadline
  uint64_t failed = 0;  // answered with an error other than a shed
  uint64_t wrong = 0;   // answered with scores that fail the output check
  uint64_t samples = 0;  // latency samples behind the percentiles
  uint64_t references = 0;
  uint64_t harness_overflow = 0;  // samples/references past pre-sized storage
  double steal_s = 0.0;  // hypervisor steal time during the window
  uint32_t slices_kept = 0;  // slices behind the timing metrics
  std::string first_error;
};

// Sets the serve path up from the bundle file, warms it for
// `warmup_seconds`, replays `seconds` of the workload from `seed` as ten
// back-to-back slices, then checks every answered response. The timing
// metrics are medians over the slices with no more hypervisor steal than
// the median slice. Set-up runs `setups` times in all,
// half before the window (the last of those is measured) and half after;
// setup_s is their median. With `spans`
// non-null the ladder's rungs are wrapped in RungProbes and the window's
// spans and per-layer metrics are recorded.
WindowResult RunWindow(const Fixture& fixture, const WorkloadSpec& spec,
                       uint64_t seed, double seconds, double warmup_seconds,
                       int setups, SpanLog* spans);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
