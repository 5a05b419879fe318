#ifndef PERFBENCH_TRACE_H_
#define PERFBENCH_TRACE_H_

// Tracing from outside the program: a decorator around each ladder rung
// that times every scoring attempt, and an in-memory span log written out
// when the run ends. Spans inside the serving code are a later change; here
// every span is taken around a call into a layer's public functions.

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/mutex.h"
#include "common/thread_annotations.h"
#include "serve/ladder.h"
#include "serve/scorer.h"

namespace perfbench {

// One timed TryScore call. `out` is the engine's response buffer, which
// moves unchanged into the ServeResponse, so it (with the time interval)
// ties an attempt to the request it served.
struct Attempt {
  uint32_t rung = 0;
  uint32_t count = 0;
  uint64_t start_ns = 0;
  uint64_t end_ns = 0;
  const float* out = nullptr;
};

class AttemptLog {
 public:
  void Add(const Attempt& attempt) DNLR_EXCLUDES(mu_);
  std::vector<Attempt> Take() DNLR_EXCLUDES(mu_);

 private:
  dnlr::common::Mutex mu_;
  std::vector<Attempt> attempts_ DNLR_GUARDED_BY(mu_);
};

// FallibleScorer decorator: forwards to the wrapped rung and logs the
// attempt's wall time. Scores pass through untouched.
class RungProbe : public dnlr::serve::FallibleScorer {
 public:
  RungProbe(const dnlr::serve::FallibleScorer* inner, uint32_t rung,
            AttemptLog* log)
      : inner_(inner), rung_(rung), log_(log) {}

  std::string_view name() const override { return inner_->name(); }
  dnlr::Status TryScore(const float* docs, uint32_t count, uint32_t stride,
                        float* out) const override;

 private:
  const dnlr::serve::FallibleScorer* inner_;
  uint32_t rung_;
  AttemptLog* log_;
};

// A ladder whose rungs are RungProbes over `base`'s rungs, with the same
// names and budgeted costs (built with DegradationLadder::AddRung). Owns
// the probes; `base` must outlive it.
class ProbedLadder {
 public:
  ProbedLadder(const dnlr::serve::DegradationLadder& base, AttemptLog* log);
  ProbedLadder(const ProbedLadder&) = delete;
  ProbedLadder& operator=(const ProbedLadder&) = delete;

  const dnlr::serve::DegradationLadder& ladder() const { return ladder_; }

 private:
  std::vector<std::unique_ptr<RungProbe>> probes_;
  dnlr::serve::DegradationLadder ladder_;
};

// One span: a named interval with its parent span and request. Ids start
// at 1; parent 0 is a root.
struct Span {
  uint64_t id = 0;
  uint64_t parent = 0;
  uint64_t request = 0;
  std::string name;
  uint64_t start_ns = 0;
  uint64_t end_ns = 0;
};

class SpanLog {
 public:
  uint64_t Add(uint64_t parent, uint64_t request, std::string name,
               uint64_t start_ns, uint64_t end_ns);

  // Per span name: total duration and self time (duration minus the part
  // of the interval covered by child spans), in seconds.
  struct LayerTime {
    std::string name;
    uint64_t count = 0;
    double total_s = 0.0;
    double self_s = 0.0;
  };
  std::vector<LayerTime> SelfTimes() const;

  // Writes one CSV line per span: id,parent,request,name,start_ns,end_ns.
  bool WriteCsv(const std::string& path) const;

 private:
  std::vector<Span> spans_;
};

}  // namespace perfbench

#endif  // PERFBENCH_TRACE_H_
