#ifndef DNLR_OBS_TRACE_H_
#define DNLR_OBS_TRACE_H_

#include <chrono>

#include "obs/metrics.h"

namespace dnlr::obs {

/// Scoped profiling span: measures the wall time between construction and
/// destruction and records it into a histogram. The run-time switch is
/// sampled once at construction — when observability is off the span costs
/// one relaxed atomic load and never touches a clock. Timing reads no model
/// data, so scores are bitwise identical with spans on or off.
class TraceSpan {
 public:
  /// No-op span.
  TraceSpan() = default;

  /// Records into `histogram` at scope exit if observability is enabled
  /// now. A null histogram is a no-op.
  explicit TraceSpan(Histogram* histogram)
      : histogram_(Enabled() ? histogram : nullptr) {
    if (histogram_ != nullptr) start_ = std::chrono::steady_clock::now();
  }

  TraceSpan(const TraceSpan&) = delete;
  TraceSpan& operator=(const TraceSpan&) = delete;

  ~TraceSpan() {
    if (histogram_ == nullptr) return;
    const auto elapsed = std::chrono::steady_clock::now() - start_;
    histogram_->Record(
        std::chrono::duration<double, std::micro>(elapsed).count());
  }

 private:
  Histogram* histogram_ = nullptr;
  std::chrono::steady_clock::time_point start_;
};

}  // namespace dnlr::obs

// DNLR_OBS_SPAN(var, "name"): a scoped span recording into the registry
// histogram `name`. The histogram is resolved once per call site (static
// local), so steady-state cost is the span itself. DNLR_OBS_COUNT(name, n)
// bumps a registry counter, also gated on the run-time switch and resolved
// once per call site.
#define DNLR_OBS_SPAN(var, name)                                 \
  static ::dnlr::obs::Histogram& var##_obs_histogram =           \
      ::dnlr::obs::MetricsRegistry::Global().GetHistogram(name); \
  ::dnlr::obs::TraceSpan var(&var##_obs_histogram)

#define DNLR_OBS_COUNT(name, n)                                  \
  do {                                                           \
    if (::dnlr::obs::Enabled()) {                                \
      static ::dnlr::obs::Counter& obs_counter =                 \
          ::dnlr::obs::MetricsRegistry::Global().GetCounter(name); \
      obs_counter.Add(n);                                        \
    }                                                            \
  } while (0)

#endif  // DNLR_OBS_TRACE_H_
