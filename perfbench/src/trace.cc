#include "trace.h"

#include <algorithm>
#include <fstream>
#include <map>
#include <unordered_map>
#include <utility>

#include "common/check.h"
#include "stats.h"

namespace perfbench {

void AttemptLog::Add(const Attempt& attempt) {
  dnlr::common::MutexLock lock(mu_);
  attempts_.push_back(attempt);
}

std::vector<Attempt> AttemptLog::Take() {
  dnlr::common::MutexLock lock(mu_);
  return std::exchange(attempts_, {});
}

dnlr::Status RungProbe::TryScore(const float* docs, uint32_t count,
                                 uint32_t stride, float* out) const {
  const uint64_t start = NowNanos();
  dnlr::Status status = inner_->TryScore(docs, count, stride, out);
  log_->Add({rung_, count, start, NowNanos(), out});
  return status;
}

ProbedLadder::ProbedLadder(const dnlr::serve::DegradationLadder& base,
                           AttemptLog* log) {
  for (size_t r = 0; r < base.num_rungs(); ++r) {
    const dnlr::serve::Rung& rung = base.rung(r);
    probes_.push_back(std::make_unique<RungProbe>(
        rung.scorer, static_cast<uint32_t>(r), log));
    const dnlr::Status added = ladder_.AddRung(rung.name, probes_.back().get(),
                                               rung.predicted_us_per_doc);
    DNLR_CHECK(added.ok()) << added.ToString();
  }
}

uint64_t SpanLog::Add(uint64_t parent, uint64_t request, std::string name,
                      uint64_t start_ns, uint64_t end_ns) {
  const uint64_t id = spans_.size() + 1;
  spans_.push_back(
      {id, parent, request, std::move(name), start_ns, std::max(start_ns, end_ns)});
  return id;
}

std::vector<SpanLog::LayerTime> SpanLog::SelfTimes() const {
  // Child intervals per parent, merged so overlapping children are not
  // subtracted twice and clipped to the parent's own interval.
  std::unordered_map<uint64_t, std::vector<std::pair<uint64_t, uint64_t>>>
      children;
  for (const Span& span : spans_) {
    if (span.parent != 0) {
      children[span.parent].emplace_back(span.start_ns, span.end_ns);
    }
  }
  std::map<std::string, LayerTime> layers;
  for (const Span& span : spans_) {
    uint64_t covered = 0;
    auto it = children.find(span.id);
    if (it != children.end()) {
      std::vector<std::pair<uint64_t, uint64_t>>& kids = it->second;
      std::sort(kids.begin(), kids.end());
      uint64_t cursor = span.start_ns;
      for (const auto& [begin, end] : kids) {
        const uint64_t lo = std::max(begin, cursor);
        const uint64_t hi = std::min(end, span.end_ns);
        if (hi > lo) {
          covered += hi - lo;
          cursor = hi;
        }
      }
    }
    LayerTime& layer = layers[span.name];
    layer.name = span.name;
    ++layer.count;
    const uint64_t duration = span.end_ns - span.start_ns;
    layer.total_s += static_cast<double>(duration) * 1e-9;
    layer.self_s += static_cast<double>(duration - std::min(duration, covered)) *
                    1e-9;
  }
  std::vector<LayerTime> out;
  for (auto& [name, layer] : layers) out.push_back(std::move(layer));
  return out;
}

bool SpanLog::WriteCsv(const std::string& path) const {
  std::ofstream csv(path);
  csv << "id,parent,request,name,start_ns,end_ns\n";
  for (const Span& span : spans_) {
    csv << span.id << ',' << span.parent << ',' << span.request << ','
        << span.name << ',' << span.start_ns << ',' << span.end_ns << '\n';
  }
  return static_cast<bool>(csv);
}

}  // namespace perfbench
