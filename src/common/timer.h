#ifndef DNLR_COMMON_TIMER_H_
#define DNLR_COMMON_TIMER_H_

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <utility>
#include <vector>

namespace dnlr {

/// Monotonic wall-clock stopwatch used by every scoring-time measurement.
class Timer {
 public:
  Timer() : start_(Clock::now()) {}

  /// Restarts the stopwatch.
  void Reset() { start_ = Clock::now(); }

  /// Elapsed time since construction / last Reset, in seconds.
  double ElapsedSeconds() const {
    return std::chrono::duration<double>(Clock::now() - start_).count();
  }

  /// Elapsed time in microseconds (the unit the paper reports).
  double ElapsedMicros() const { return ElapsedSeconds() * 1e6; }

 private:
  using Clock = std::chrono::steady_clock;
  Clock::time_point start_;
};

/// The p-quantile of ascending `sorted` by linear interpolation between
/// order statistics (position p * (size - 1)). Returns 0 for an empty
/// vector.
inline double QuantileSorted(const std::vector<double>& sorted, double p) {
  if (sorted.empty()) return 0.0;
  const double position = p * static_cast<double>(sorted.size() - 1);
  const auto lower = static_cast<size_t>(position);
  if (lower + 1 >= sorted.size()) return sorted.back();
  const double fraction = position - static_cast<double>(lower);
  return sorted[lower] + fraction * (sorted[lower + 1] - sorted[lower]);
}

/// Median of `samples` (destructive: sorts its argument). Odd sizes return
/// the middle order statistic; even sizes the mean of the two central ones.
/// Returns 0 for an empty vector. Exposed separately from TimeMicros so the
/// selection logic is unit-testable on exact inputs.
inline double MedianInPlace(std::vector<double>* samples) {
  std::sort(samples->begin(), samples->end());
  return QuantileSorted(*samples, 0.5);
}

/// Runs `fn` repeatedly and returns the median-of-repeats wall time of one
/// invocation, in microseconds. The first (warm-up) run is discarded so
/// measurements reflect warm-cache behaviour, matching how the paper times
/// document scoring. The median (not the minimum) is what the predict::
/// calibration tables assume: it tracks the typical warm-cache cost and is
/// robust to the occasional preemption spike in either direction.
template <typename Fn>
double TimeMicros(Fn&& fn, int repeats = 5) {
  if (repeats < 1) repeats = 1;
  fn();  // Warm-up: page in code and data.
  std::vector<double> samples(static_cast<size_t>(repeats));
  for (int r = 0; r < repeats; ++r) {
    Timer timer;
    fn();
    samples[static_cast<size_t>(r)] = timer.ElapsedMicros();
  }
  return MedianInPlace(&samples);
}

/// Order statistics of an interleaved A-vs-B timing (TimePairedMicros):
/// the per-pair ratio a/b at its median and quartiles, and each side's
/// median time. A ratio gate reads `ratio` and prints the quartiles as its
/// noise.
struct PairedTiming {
  int pairs = 0;
  double ratio = 0.0;
  double ratio_q1 = 0.0;
  double ratio_q3 = 0.0;
  double a_micros = 0.0;
  double b_micros = 0.0;
};

/// Summarizes `a_micros[i]` against `b_micros[i]`, pair by pair (the pure
/// half of TimePairedMicros, unit-testable on exact inputs); the two
/// vectors have one entry per pair. A pair whose B time is not positive
/// has ratio 0.
inline PairedTiming SummarizePairs(std::vector<double> a_micros,
                                   std::vector<double> b_micros) {
  const size_t pairs = a_micros.size();
  std::vector<double> ratios(pairs);
  for (size_t i = 0; i < pairs; ++i) {
    ratios[i] = b_micros[i] > 0.0 ? a_micros[i] / b_micros[i] : 0.0;
  }
  std::sort(ratios.begin(), ratios.end());
  PairedTiming timing;
  timing.pairs = static_cast<int>(pairs);
  timing.ratio = QuantileSorted(ratios, 0.5);
  timing.ratio_q1 = QuantileSorted(ratios, 0.25);
  timing.ratio_q3 = QuantileSorted(ratios, 0.75);
  timing.a_micros = MedianInPlace(&a_micros);
  timing.b_micros = MedianInPlace(&b_micros);
  return timing;
}

/// The one estimator for a ratio of two timings (serial vs pooled, spans on
/// vs off, text vs binary load): `pairs` pairs, each timing one call of `a`
/// and one of `b` with TimeMicros (so each timed call follows a warm-up call
/// of the same side), A first on even pairs and B first on odd ones. Each
/// ratio is taken within one pair, a few calls apart, so a slow phase of
/// the machine lands on both sides of the same pair instead of on whichever
/// side happened to be measured then, and neither side always runs in the
/// other's wake. Many short pairs beat a few long ones: the median ratio
/// then ignores the pairs a burst of noise hit.
template <typename FnA, typename FnB>
PairedTiming TimePairedMicros(FnA&& a, FnB&& b, int pairs) {
  if (pairs < 1) pairs = 1;
  std::vector<double> a_micros(static_cast<size_t>(pairs));
  std::vector<double> b_micros(static_cast<size_t>(pairs));
  for (size_t i = 0; i < a_micros.size(); ++i) {
    if (i % 2 == 1) b_micros[i] = TimeMicros(b, 1);
    a_micros[i] = TimeMicros(a, 1);
    if (i % 2 == 0) b_micros[i] = TimeMicros(b, 1);
  }
  return SummarizePairs(std::move(a_micros), std::move(b_micros));
}

}  // namespace dnlr

#endif  // DNLR_COMMON_TIMER_H_
