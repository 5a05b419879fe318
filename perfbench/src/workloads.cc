#include "workloads.h"

#include <algorithm>
#include <chrono>
#include <deque>
#include <future>
#include <map>
#include <memory>
#include <thread>
#include <unordered_map>
#include <utility>

#include "common/check.h"
#include "common/mutex.h"
#include "serve/engine.h"
#include "serve/router.h"
#include "serve/score_cache.h"
#include "serve/servable.h"
#include "verify.h"

namespace perfbench {
namespace {

namespace serve = dnlr::serve;
namespace replay = dnlr::replay;

const std::vector<WorkloadSpec>& Specs() {
  static const std::vector<WorkloadSpec> specs = [] {
    WorkloadSpec web;
    web.name = "web-mix";
    web.open_loop = true;
    web.base_qps = 1250.0;
    web.engine_workers = 2;
    web.num_keys = 16384;
    web.zipf_exponent = 0.6;
    web.mix = {{10, 0.3}, {128, 0.55}, {1024, 0.15}};
    web.deadline_us = 10'000;
    web.max_qps = web.base_qps;

    WorkloadSpec peak = web;
    peak.name = "peak-overload";
    peak.base_qps = 2500.0;
    peak.diurnal_amplitude = 0.5;
    peak.periods = 4;
    peak.max_qps = peak.base_qps * (1.0 + peak.diurnal_amplitude);

    WorkloadSpec hot;
    hot.name = "hot-repeat";
    hot.open_loop = false;
    hot.callers = 2;
    hot.shards = 2;
    hot.num_keys = 256;
    hot.zipf_exponent = 1.1;
    // The default mix without its full-rank class. Its median request is
    // a 128-document one, well clear of the boundary between the 10- and
    // 128-document latency modes.
    hot.mix = {{10, 0.3}, {128, 0.55}};
    hot.deadline_us = 5'000;
    hot.max_qps = 60'000.0;
    return std::vector<WorkloadSpec>{web, peak, hot};
  }();
  return specs;
}

enum class Outcome : uint8_t { kOk, kShed, kFailed };

// One request of the window, as the harness saw it.
struct Record {
  uint64_t start_ns = 0;   // due time (open loop) or call start (closed)
  uint64_t submit_ns = 0;  // Submit (open loop) or call start (closed)
  uint64_t end_ns = 0;     // completion
  const float* out = nullptr;  // response buffer, ties rung attempts to it
  uint32_t queue_us = 0;
  uint32_t total_us = 0;
  int16_t rung = -1;
  Outcome outcome = Outcome::kShed;
  uint8_t slice = 0;  // which timed slice of the window
  bool cache_hit = false;
  bool reached_engine = false;
  bool met = false;
};

// Request records in storage sized and touched before the memory baseline,
// so recording does not show up as serving memory.
class RecordLog {
 public:
  explicit RecordLog(size_t capacity) : records_(capacity) {}
  Record& Next() {
    if (size_ == records_.size()) {
      records_.emplace_back();
      ++overflow_;
    }
    return records_[size_++];
  }
  size_t size() const { return size_; }
  const Record& operator[](size_t i) const { return records_[i]; }
  uint64_t overflow() const { return overflow_; }

 private:
  std::vector<Record> records_;
  size_t size_ = 0;
  uint64_t overflow_ = 0;
};

// Where a window's completed requests go: the record log and the output
// checker, or nowhere during warm-up.
struct Sink {
  RecordLog* records = nullptr;
  ResponseChecker* checker = nullptr;
  uint8_t slice = 0;
};

// Classifies a response and files it. `start_ns` is when the latency clock
// started; `end_ns` when the answer was in.
void File(const Sink& sink, const CandidateSet& set,
          const serve::ServeResponse& resp, uint64_t start_ns,
          uint64_t submit_ns, uint64_t end_ns, bool reached_engine,
          uint64_t deadline_us) {
  if (sink.records == nullptr) return;
  Record& record = sink.records->Next();
  record.slice = sink.slice;
  record.start_ns = start_ns;
  record.submit_ns = submit_ns;
  record.end_ns = end_ns;
  record.out = resp.scores.data();
  record.queue_us = static_cast<uint32_t>(resp.queue_micros);
  record.total_us = static_cast<uint32_t>(resp.total_micros);
  record.rung = static_cast<int16_t>(resp.rung);
  record.cache_hit = resp.cache_hit;
  record.reached_engine = reached_engine;
  const dnlr::StatusCode code = resp.status.code();
  if (resp.status.ok()) {
    record.outcome = Outcome::kOk;
    record.met = end_ns - start_ns <= deadline_us * 1000;
    sink.checker->Record(set, resp.rung, resp.model_version,
                         resp.scores.data(),
                         static_cast<uint32_t>(resp.scores.size()));
  } else if (code == dnlr::StatusCode::kResourceExhausted ||
             code == dnlr::StatusCode::kDeadlineExceeded) {
    record.outcome = Outcome::kShed;
  } else {
    record.outcome = Outcome::kFailed;
  }
}

// The serve path as one set-up builds it. Members are destroyed bottom-up:
// the engine or router stops its workers before the ladder, probes and
// cache they use go away.
struct Stack {
  std::shared_ptr<const serve::Servable> servable;
  std::unique_ptr<ProbedLadder> probed;
  std::unique_ptr<serve::ScoreCache> cache;
  std::unique_ptr<serve::ServingEngine> engine;
  std::unique_ptr<serve::ShardedRouter> router;
  std::vector<uint64_t> tenants;

  std::vector<const serve::ServingEngine*> engines() const {
    std::vector<const serve::ServingEngine*> out;
    if (engine) out.push_back(engine.get());
    if (router) {
      for (size_t s = 0; s < router->num_shards(); ++s) {
        out.push_back(&router->shard_engine(s));
      }
    }
    return out;
  }
};

struct SetupTimes {
  double setup_s = 0.0;
  double load_ms = 0.0;
  double golden_ms = 0.0;
};

constexpr uint32_t kGoldenDocs = 64;

// Bundle file -> serve path that answers: Servable::LoadFromFile, the
// golden probe (captured on the first set-up, replayed bitwise after), and
// the engine or router construction.
dnlr::Status BuildStack(const Fixture& fixture, const WorkloadSpec& spec,
                        AttemptLog* log,
                        std::vector<std::vector<float>>* golden, Stack* stack,
                        SetupTimes* times) {
  const uint32_t nf = fixture.num_features();
  const uint64_t t0 = NowNanos();
  serve::ServableOptions options;
  options.num_features = nf;
  auto loaded = serve::Servable::LoadFromFile(fixture.bundle_path(), options);
  if (!loaded.ok()) return loaded.status();
  stack->servable = std::move(loaded).value();
  const uint64_t t1 = NowNanos();

  const CandidateSet probe = fixture.Set(0, kGoldenDocs);
  const serve::DegradationLadder& base = stack->servable->ladder();
  if (golden->empty()) {
    auto captured =
        serve::CaptureGoldenScores(base, probe.docs, probe.count, nf);
    if (!captured.ok()) return captured.status();
    *golden = std::move(captured).value();
  } else {
    DNLR_RETURN_IF_ERROR(
        serve::RunGoldenSmoke(base, probe.docs, probe.count, nf, golden));
  }
  const uint64_t t2 = NowNanos();

  std::shared_ptr<const serve::DegradationLadder> ladder;
  if (log != nullptr) {
    stack->probed = std::make_unique<ProbedLadder>(base, log);
    // Non-owning: the stack keeps the probed ladder alive past the engine.
    ladder = std::shared_ptr<const serve::DegradationLadder>(
        std::shared_ptr<const void>(), &stack->probed->ladder());
  } else {
    ladder = serve::Servable::LadderHandle(stack->servable);
  }
  serve::ScoreCacheConfig cache_config;
  cache_config.capacity = spec.cache_capacity;
  stack->cache = std::make_unique<serve::ScoreCache>(cache_config);
  serve::ServingConfig config;
  config.score_cache = stack->cache.get();
  if (spec.open_loop) {
    config.num_workers = spec.engine_workers;
    stack->engine = std::make_unique<serve::ServingEngine>(ladder, config);
  } else {
    config.num_workers = 1;
    stack->router = std::make_unique<serve::ShardedRouter>(
        std::vector<std::shared_ptr<const serve::DegradationLadder>>(
            spec.shards, ladder),
        config, serve::RouterConfig{});
    // One tenant per shard: the lowest tenant ids whose primaries differ.
    stack->tenants.clear();
    std::vector<bool> taken(spec.shards, false);
    for (uint64_t t = 1; stack->tenants.size() < spec.callers; ++t) {
      const uint32_t primary = stack->router->PrimaryShardFor(t);
      if (!taken[primary] || stack->tenants.size() >= spec.shards) {
        taken[primary] = true;
        stack->tenants.push_back(t);
      }
    }
  }
  const uint64_t t3 = NowNanos();
  times->setup_s = static_cast<double>(t3 - t0) * 1e-9;
  times->load_ms = static_cast<double>(t1 - t0) * 1e-6;
  times->golden_ms = static_cast<double>(t2 - t1) * 1e-6;
  return dnlr::Status::Ok();
}

replay::WorkloadConfig GeneratorConfig(const WorkloadSpec& spec,
                                       uint64_t seed, double seconds) {
  replay::WorkloadConfig config;
  config.num_queries = spec.num_keys;
  config.zipf_exponent = spec.zipf_exponent;
  config.mix = spec.mix;
  config.base_qps = spec.open_loop ? spec.base_qps : 1.0;
  config.diurnal_amplitude = spec.diurnal_amplitude;
  config.diurnal_period_micros = std::max<uint64_t>(
      1, static_cast<uint64_t>(seconds * 1e6) / spec.periods);
  config.burst_probability = 0.0;
  config.seed = seed;
  return config;
}

// Sleeps until shortly before `due_ns`, then spins. A bare sleep overshoots
// by tens of microseconds at the median, and on a virtual machine by
// milliseconds now and then, which would show up as driver lag; so the
// driver only sleeps through gaps longer than the spin margin.
void PaceUntil(uint64_t due_ns) {
  constexpr uint64_t kSpinNs = 5'000'000;
  for (;;) {
    const uint64_t now = NowNanos();
    if (now >= due_ns) return;
    if (due_ns - now > kSpinNs) {
      std::this_thread::sleep_for(
          std::chrono::nanoseconds(due_ns - now - kSpinNs));
    }
  }
}

// Open loop: the calling thread paces arrivals and submits; one collector
// thread waits for the answers in submission order. Latency runs from the
// due time to the engine's completion (submit + queue + service, as the
// engine's own clock stamps them), so a slow collector cannot inflate it.
// Adds the driver's and the collector's own CPU time to `harness_cpu_s`,
// so the CPU metric can leave the harness's spinning out.
void RunOpenLoop(const Fixture& fixture, const WorkloadSpec& spec,
                 serve::ServingEngine& engine, uint64_t seed, double seconds,
                 const Sink& sink, double* harness_cpu_s) {
  const double driver_cpu_start = ThreadCpuSeconds();
  double collector_cpu = 0.0;
  struct Pending {
    std::future<serve::ServeResponse> future;
    CandidateSet set;
    uint64_t due_ns = 0;
    uint64_t submit_ns = 0;
  };
  dnlr::common::Mutex mu;
  dnlr::common::CondVar cv;
  std::deque<Pending> queue;
  bool closed = false;

  std::jthread collector([&] {
    const double cpu_start = ThreadCpuSeconds();
    for (;;) {
      Pending pending;
      {
        dnlr::common::MutexLock lock(mu);
        while (!closed && queue.empty()) cv.Wait(mu);
        if (queue.empty()) break;
        pending = std::move(queue.front());
        queue.pop_front();
      }
      const serve::ServeResponse resp = pending.future.get();
      const bool reached = resp.model_version != 0;
      const uint64_t end_ns =
          pending.submit_ns +
          (reached ? (resp.queue_micros + resp.total_micros) * 1000 : 0);
      File(sink, pending.set, resp, pending.due_ns, pending.submit_ns,
           end_ns, reached, spec.deadline_us);
    }
    collector_cpu = ThreadCpuSeconds() - cpu_start;
  });

  replay::WorkloadGenerator generator(GeneratorConfig(spec, seed, seconds));
  const uint64_t window_us = static_cast<uint64_t>(seconds * 1e6);
  const uint64_t start_ns = NowNanos() + 1'000'000;
  for (;;) {
    const replay::Arrival arrival = generator.Next();
    if (arrival.due_micros >= window_us) break;
    const uint64_t due_ns = start_ns + arrival.due_micros * 1000;
    PaceUntil(due_ns);
    Pending pending;
    pending.set = fixture.Set(arrival.query, arrival.candidate_docs);
    pending.due_ns = due_ns;
    serve::ServeRequest request;
    request.docs = pending.set.docs;
    request.count = pending.set.count;
    request.stride = fixture.num_features();
    // The budget runs from the due time: a late driver leaves the engine
    // less time, never more.
    request.deadline =
        serve::Deadline::AtMicros(due_ns / 1000 + spec.deadline_us);
    pending.submit_ns = NowNanos();
    pending.future = engine.Submit(request);
    {
      dnlr::common::MutexLock lock(mu);
      queue.push_back(std::move(pending));
    }
    cv.NotifyOne();
  }
  {
    dnlr::common::MutexLock lock(mu);
    closed = true;
  }
  cv.NotifyOne();
  collector.join();
  *harness_cpu_s += ThreadCpuSeconds() - driver_cpu_start + collector_cpu;
}

// Closed loop: each caller thread is one tenant calling ScoreSync back to
// back; latency is the wall time of the call.
void RunClosedLoop(const Fixture& fixture, const WorkloadSpec& spec,
                   const Stack& stack, uint64_t seed, double seconds,
                   const std::vector<Sink>& sinks) {
  const uint64_t end_ns =
      NowNanos() + static_cast<uint64_t>(seconds * 1e9);
  std::vector<std::jthread> callers;
  for (uint32_t c = 0; c < spec.callers; ++c) {
    callers.emplace_back([&, c] {
      replay::WorkloadGenerator generator(
          GeneratorConfig(spec, seed * 1000003 + c, seconds));
      const uint64_t tenant = stack.tenants[c];
      while (NowNanos() < end_ns) {
        const replay::Arrival arrival = generator.Next();
        const CandidateSet set =
            fixture.Set(arrival.query, arrival.candidate_docs);
        const uint64_t t0 = NowNanos();
        const serve::ShardedRouter::Response resp = stack.router->ScoreSync(
            tenant, set.docs, set.count, fixture.num_features(),
            spec.deadline_us);
        const uint64_t t1 = NowNanos();
        File(sinks[c], set, resp.serve, t0, t0, t1,
             resp.admitted && resp.serve.model_version != 0,
             spec.deadline_us);
      }
    });
  }
}

serve::ServeCountersSnapshot SumCounters(const Stack& stack) {
  serve::ServeCountersSnapshot sum;
  for (const serve::ServingEngine* engine : stack.engines()) {
    const serve::ServeCountersSnapshot s = engine->counters().Snapshot();
    sum.submitted += s.submitted;
    sum.ok += s.ok;
    sum.shed_queue_full += s.shed_queue_full;
    sum.shed_deadline += s.shed_deadline;
    sum.deadline_exceeded += s.deadline_exceeded;
    sum.retries += s.retries;
    if (sum.served_by_rung.size() < s.served_by_rung.size()) {
      sum.served_by_rung.resize(s.served_by_rung.size());
    }
    for (size_t r = 0; r < s.served_by_rung.size(); ++r) {
      sum.served_by_rung[r] += s.served_by_rung[r];
    }
  }
  return sum;
}

double Ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

// Timed slices per window (see RunWindow).
constexpr uint32_t kSlices = 10;

// Time of ScoreCache::Fingerprint per document over the workload's own
// candidate sets (64 arrivals from its generator), median of 7 passes.
double FingerprintUsPerDoc(const Fixture& fixture, const WorkloadSpec& spec,
                           uint64_t seed) {
  replay::WorkloadGenerator generator(GeneratorConfig(spec, seed, 1.0));
  std::vector<CandidateSet> sets;
  uint64_t docs = 0;
  for (int i = 0; i < 64; ++i) {
    const replay::Arrival a = generator.Next();
    sets.push_back(fixture.Set(a.query, a.candidate_docs));
    docs += sets.back().count;
  }
  std::vector<double> passes;
  uint64_t sink = 0;
  for (int pass = 0; pass < 8; ++pass) {
    const uint64_t start = NowNanos();
    for (const CandidateSet& set : sets) {
      sink ^= serve::ScoreCache::Fingerprint(set.docs, set.count,
                                             fixture.num_features());
    }
    if (pass > 0) {
      passes.push_back(static_cast<double>(NowNanos() - start) * 1e-3 /
                       static_cast<double>(docs));
    }
  }
  DNLR_CHECK(sink != 1);  // keeps the hashing observable
  return Median(std::move(passes));
}

// Derives the rung metrics from every attempt of the window, then ties each
// attempt to the request whose response buffer it wrote within that
// request's engine interval, for the spans and the residual check.
void TraceWindow(const std::vector<RecordLog>& logs,
                 const std::vector<Attempt>& attempts,
                 const serve::DegradationLadder& ladder, bool open_loop,
                 SpanLog* spans, MetricMap* layer) {
  const size_t num_rungs = ladder.num_rungs();
  std::vector<uint64_t> rung_attempts(num_rungs, 0);
  std::vector<double> rung_busy_ns(num_rungs, 0.0);
  std::vector<double> rung_budget_us(num_rungs, 0.0);
  std::map<std::pair<size_t, uint32_t>, std::pair<double, uint64_t>> per_size;
  std::unordered_map<const float*, std::vector<const Attempt*>> by_buffer;
  for (const Attempt& a : attempts) {
    const double ns = static_cast<double>(a.end_ns - a.start_ns);
    ++rung_attempts[a.rung];
    rung_busy_ns[a.rung] += ns;
    rung_budget_us[a.rung] += ladder.rung(a.rung).predicted_us_per_doc * a.count;
    auto& cell = per_size[{a.rung, a.count}];
    cell.first += ns;
    cell.second += a.count;
    by_buffer[a.out].push_back(&a);
  }
  for (auto& [buffer, list] : by_buffer) {
    std::sort(list.begin(), list.end(), [](const Attempt* x, const Attempt* y) {
      return x->start_ns < y->start_ns;
    });
  }
  for (size_t r = 0; r < num_rungs; ++r) {
    const std::string name = ladder.rung(r).name;
    (*layer)["rung." + name + ".attempts"] =
        static_cast<double>(rung_attempts[r]);
    (*layer)["rung." + name + ".busy_s"] = rung_busy_ns[r] * 1e-9;
    (*layer)["engine.drift." + name] =
        Ratio(rung_busy_ns[r] * 1e-3, rung_budget_us[r]);
    for (const uint32_t n : {10u, 128u, 1024u}) {
      const auto cell = per_size.find({r, n});
      (*layer)["rung." + name + ".us_per_doc.n" + std::to_string(n)] =
          cell == per_size.end()
              ? 0.0
              : Ratio(cell->second.first * 1e-3,
                      static_cast<double>(cell->second.second));
    }
  }

  // Slack for the engine's whole-microsecond clock against nanosecond
  // attempt times.
  constexpr uint64_t kClockSlackNs = 2'000;
  std::vector<double> residual_us;
  uint64_t violations = 0;
  uint64_t request = 0;
  for (const RecordLog& records : logs) {
    for (size_t i = 0; i < records.size(); ++i) {
      const Record& r = records[i];
      ++request;
      const uint64_t root =
          spans->Add(0, request, "request", r.start_ns, r.end_ns);
      if (open_loop) {
        spans->Add(root, request, "replay.lag", r.start_ns, r.submit_ns);
      }
      if (!r.reached_engine) continue;

      // This request's attempts: same buffer, started after it left the
      // queue and before it completed. (While it waited, an earlier request
      // may have used and freed the same buffer address.)
      const uint64_t queue_ns = uint64_t{r.queue_us} * 1000;
      const uint64_t total_ns = uint64_t{r.total_us} * 1000;
      const uint64_t dequeued = r.submit_ns + queue_ns;
      const uint64_t done =
          open_loop ? dequeued + total_ns + kClockSlackNs
                    : r.end_ns + kClockSlackNs;
      std::vector<const Attempt*> mine;
      const auto it = by_buffer.find(r.out);
      if (it != by_buffer.end()) {
        const std::vector<const Attempt*>& list = it->second;
        auto a = std::lower_bound(
            list.begin(), list.end(),
            dequeued - std::min(dequeued, kClockSlackNs),
            [](const Attempt* x, uint64_t t) { return x->start_ns < t; });
        for (; a != list.end() && (*a)->start_ns <= done; ++a) {
          mine.push_back(*a);
        }
      }
      uint64_t attempt_ns = 0;
      for (const Attempt* a : mine) attempt_ns += a->end_ns - a->start_ns;

      // Engine spans: open loop from submit + the stamped durations; closed
      // loop ending with the last attempt (or the call), since the handoff
      // back to the caller is not stamped.
      uint64_t service_end = dequeued + total_ns;
      if (!open_loop) {
        service_end = mine.empty() ? r.end_ns : mine.back()->end_ns;
      }
      const uint64_t service_start =
          service_end - std::min(service_end, total_ns);
      spans->Add(root, request, "engine.queue",
                 service_start - std::min(service_start, queue_ns),
                 service_start);
      const uint64_t service = spans->Add(
          root, request, r.cache_hit ? "cache.hit" : "engine.service",
          service_start, service_end);
      for (const Attempt* a : mine) {
        spans->Add(service, request, "rung." + ladder.rung(a->rung).name,
                   a->start_ns, a->end_ns);
      }
      if (!r.cache_hit) {
        if (attempt_ns > total_ns + kClockSlackNs) ++violations;
        residual_us.push_back(static_cast<double>(r.total_us) -
                              static_cast<double>(attempt_ns) * 1e-3);
      }
    }
  }
  (*layer)["engine.residual_us.p50"] = Median(residual_us);
  (*layer)["trace.residual_violations"] = static_cast<double>(violations);
}

}  // namespace

const WorkloadSpec* FindWorkload(const std::string& name) {
  for (const WorkloadSpec& spec : Specs()) {
    if (spec.name == name) return &spec;
  }
  return nullptr;
}

std::vector<std::string> WorkloadNames() {
  std::vector<std::string> names;
  for (const WorkloadSpec& spec : Specs()) names.push_back(spec.name);
  return names;
}

WindowResult RunWindow(const Fixture& fixture, const WorkloadSpec& spec,
                       uint64_t seed, double seconds, double warmup_seconds,
                       int setups, SpanLog* spans) {
  WindowResult result;
  const uint32_t nf = fixture.num_features();

  // Harness storage first, sized from the workload's rate bound and
  // touched, so the memory baseline below already holds it.
  double mean_docs = 0.0;
  double weight = 0.0;
  for (const replay::SizeClass& c : spec.mix) {
    mean_docs += c.docs * c.weight;
    weight += c.weight;
  }
  mean_docs /= weight;
  const uint32_t collectors = spec.open_loop ? 1 : spec.callers;
  const size_t per_collector = static_cast<size_t>(
      spec.max_qps * seconds * 1.2 / collectors + 1000);
  // Distinct (set, rung) references: on the open loops about 55-70% of the
  // expected requests (hits and repeats make up the rest), so room for 80%;
  // the closed loop's keys fit the cache, so two rungs per key and size.
  const double open_references = 0.8 * spec.base_qps * seconds;
  const size_t max_references = static_cast<size_t>(
      spec.open_loop ? open_references : spec.num_keys * 4.0);
  const size_t arena_floats =
      static_cast<size_t>(static_cast<double>(max_references) * mean_docs);
  std::vector<RecordLog> logs;
  std::deque<ResponseChecker> checkers;  // pinned: sinks point into it
  std::vector<Sink> sinks;
  logs.reserve(collectors);
  for (uint32_t c = 0; c < collectors; ++c) {
    logs.emplace_back(per_collector);
    checkers.emplace_back(arena_floats, max_references);
  }
  for (uint32_t c = 0; c < collectors; ++c) {
    sinks.push_back({&logs[c], &checkers[c]});
  }

  const double rss_before = ResidentMb();
  const double heap_before = HeapInUseMb();
  AttemptLog attempts;
  std::vector<std::vector<float>> golden;
  std::vector<double> setup_s;
  std::vector<double> load_ms;
  std::vector<double> golden_ms;
  AttemptLog* const log = spans != nullptr ? &attempts : nullptr;
  const auto set_up = [&](Stack* stack) {
    SetupTimes times;
    const dnlr::Status built =
        BuildStack(fixture, spec, log, &golden, stack, &times);
    DNLR_CHECK(built.ok()) << "set-up failed: " << built.ToString();
    setup_s.push_back(times.setup_s);
    load_ms.push_back(times.load_ms);
    golden_ms.push_back(times.golden_ms);
  };
  // Half the set-ups run now (the last one is kept and measured), half
  // after the window, so the median spans the whole run rather than one
  // moment of it.
  const int setups_before = (setups + 1) / 2;
  std::unique_ptr<Stack> owned;
  for (int i = 0; i < setups_before; ++i) {
    owned.reset();
    owned = std::make_unique<Stack>();
    set_up(owned.get());
  }
  Stack& stack = *owned;

  // Warm-up on a different arrival stream: fills the cache and finishes
  // lazy set-up before anything is timed.
  const uint64_t warm_seed = seed ^ 0x9E3779B97F4A7C15ull;
  if (spec.open_loop) {
    double unused_cpu = 0.0;
    RunOpenLoop(fixture, spec, *stack.engine, warm_seed, warmup_seconds,
                Sink{}, &unused_cpu);
  } else {
    RunClosedLoop(fixture, spec, stack, warm_seed, warmup_seconds,
                  std::vector<Sink>(spec.callers));
  }
  (void)attempts.Take();  // warm-up attempts are not part of the window

  const serve::ServeCountersSnapshot engine_before = SumCounters(stack);
  const serve::ScoreCacheStats cache_before = stack.cache->Stats();
  serve::RouterCountersSnapshot router_before;
  if (stack.router) router_before = stack.router->counters().Snapshot();
  // The window runs as kSlices back-to-back slices, each with its own
  // arrival stream. The hypervisor's steal time is read around each slice:
  // on a shared virtual machine it comes in bursts of a few seconds, and a
  // slice's tail latency tracks it closely.
  std::vector<double> slice_cpu_s(kSlices);
  std::vector<double> slice_s(kSlices);
  std::vector<double> slice_steal_s(kSlices);
  const double slice_seconds = seconds / kSlices;
  const double steal_before = StealSeconds();
  for (uint32_t k = 0; k < kSlices; ++k) {
    const double slice_steal_before = StealSeconds();
    for (Sink& sink : sinks) sink.slice = static_cast<uint8_t>(k);
    const uint64_t slice_seed = seed * kSlices + k;
    const double cpu_before = ProcessCpuSeconds();
    double harness_cpu_s = 0.0;
    const uint64_t slice_start = NowNanos();
    if (spec.open_loop) {
      RunOpenLoop(fixture, spec, *stack.engine, slice_seed, slice_seconds,
                  sinks[0], &harness_cpu_s);
    } else {
      RunClosedLoop(fixture, spec, stack, slice_seed, slice_seconds, sinks);
    }
    slice_s[k] = spec.open_loop
                     ? slice_seconds
                     : static_cast<double>(NowNanos() - slice_start) * 1e-9;
    slice_cpu_s[k] = ProcessCpuSeconds() - cpu_before - harness_cpu_s;
    slice_steal_s[k] = StealSeconds() - slice_steal_before;
  }
  result.steal_s = StealSeconds() - steal_before;
  const double rss_growth = ResidentMb() - rss_before;
  const double heap_growth = HeapInUseMb() - heap_before;
  const serve::ServeCountersSnapshot engine_after = SumCounters(stack);
  const serve::ScoreCacheStats cache_after = stack.cache->Stats();
  serve::RouterCountersSnapshot router_after;
  if (stack.router) router_after = stack.router->counters().Snapshot();

  // Output check: every answered response against a direct rescoring on
  // the generation that served it.
  for (ResponseChecker& checker : checkers) {
    checker.Verify(stack.servable->ladder(), nf, 4);
  }
  for (int i = setups_before; i < setups; ++i) {
    Stack extra;
    set_up(&extra);
  }

  std::vector<std::vector<double>> latency_ms(kSlices);
  std::vector<uint64_t> slice_sent(kSlices, 0);
  std::vector<uint64_t> slice_met(kSlices, 0);
  std::vector<double> queue_us;
  std::vector<double> service_us;
  std::vector<double> hit_us;
  std::vector<double> router_us;
  std::vector<double> lag_us;
  std::vector<uint64_t> rung_answers(stack.servable->ladder().num_rungs(), 0);
  for (const RecordLog& log : logs) {
    result.harness_overflow += log.overflow();
    for (size_t i = 0; i < log.size(); ++i) {
      const Record& r = log[i];
      ++result.sent;
      ++slice_sent[r.slice];
      if (spec.open_loop) {
        lag_us.push_back(static_cast<double>(r.submit_ns - r.start_ns) * 1e-3);
      }
      if (r.met) ++slice_met[r.slice];
      if (r.outcome == Outcome::kFailed) ++result.failed;
      if (r.reached_engine) {
        queue_us.push_back(r.queue_us);
        if (!r.cache_hit) service_us.push_back(r.total_us);
        if (!spec.open_loop) {
          const double wall_us =
              static_cast<double>(r.end_ns - r.start_ns) * 1e-3;
          router_us.push_back(wall_us - r.queue_us - r.total_us);
        }
      }
      if (r.outcome != Outcome::kOk) continue;
      ++result.ok;
      latency_ms[r.slice].push_back(
          static_cast<double>(r.end_ns - r.start_ns) * 1e-6);
      if (r.cache_hit) hit_us.push_back(r.total_us);
      if (r.rung >= 0 && static_cast<size_t>(r.rung) < rung_answers.size()) {
        ++rung_answers[static_cast<size_t>(r.rung)];
      }
    }
  }
  double ndcg_sum = 0.0;
  uint64_t ndcg_count = 0;
  for (const ResponseChecker& checker : checkers) {
    result.wrong += checker.wrong();
    result.references += checker.references();
    result.harness_overflow += checker.overflow_floats() > 0 ? 1 : 0;
    ndcg_sum += checker.ndcg_sum();
    ndcg_count += checker.ndcg_count();
    if (result.first_error.empty()) result.first_error = checker.first_error();
  }

  // Per-slice values of the timing metrics, reported as their medians over
  // the slices the hypervisor stole least from: those with no more steal
  // than the median slice (every slice on an unshared machine).
  const double steal_cut = Median(slice_steal_s);
  std::vector<double> p50_ms, p99_ms, met_rate, goodput, cpu_ms;
  uint64_t met = 0;
  for (uint32_t k = 0; k < kSlices; ++k) {
    met += slice_met[k];
    if (slice_steal_s[k] > steal_cut) continue;
    ++result.slices_kept;
    result.samples += latency_ms[k].size();
    p50_ms.push_back(Percentile(latency_ms[k], 50.0));
    p99_ms.push_back(Percentile(latency_ms[k], 99.0));
    const auto sent = static_cast<double>(slice_sent[k]);
    const auto met_k = static_cast<double>(slice_met[k]);
    met_rate.push_back(Ratio(met_k, sent));
    goodput.push_back(met_k / slice_s[k]);
    cpu_ms.push_back(Ratio(slice_cpu_s[k] * 1e3, sent));
  }
  result.missed = result.sent - met;

  MetricMap& e2e = result.end_to_end;
  e2e["setup_s"] = Median(setup_s);
  e2e["latency_p50_ms"] = Median(p50_ms);
  e2e["latency_p99_ms"] = Median(p99_ms);
  e2e["slo_met_rate"] = Median(met_rate);
  e2e["goodput_qps"] = Median(goodput);
  e2e["ndcg10"] = Ratio(ndcg_sum, static_cast<double>(ndcg_count));
  e2e["cpu_ms_per_req"] = Median(cpu_ms);
  e2e["serve_heap_mb"] = heap_growth;

  MetricMap& layer = result.layer;
  const double submitted =
      static_cast<double>(engine_after.submitted - engine_before.submitted);
  layer["engine.queue_wait_us.p50"] = Percentile(queue_us, 50.0);
  layer["engine.queue_wait_us.p99"] = Percentile(queue_us, 99.0);
  layer["engine.service_us.p50"] = Percentile(service_us, 50.0);
  layer["engine.shed_rate"] = Ratio(
      static_cast<double>(
          (engine_after.shed_queue_full - engine_before.shed_queue_full) +
          (engine_after.shed_deadline - engine_before.shed_deadline)),
      submitted);
  for (size_t r = 0; r < rung_answers.size(); ++r) {
    layer["engine.rung" + std::to_string(r) + "_share"] =
        Ratio(static_cast<double>(rung_answers[r]),
              static_cast<double>(result.ok));
  }
  layer["engine.retries"] =
      static_cast<double>(engine_after.retries - engine_before.retries);
  layer["engine.deadline_exceeded"] = static_cast<double>(
      engine_after.deadline_exceeded - engine_before.deadline_exceeded);
  const double hits =
      static_cast<double>(cache_after.hits - cache_before.hits);
  const double misses =
      static_cast<double>(cache_after.misses - cache_before.misses);
  layer["cache.hit_rate"] = Ratio(hits, hits + misses);
  layer["cache.evictions_per_req"] =
      Ratio(static_cast<double>(cache_after.evictions - cache_before.evictions),
            static_cast<double>(result.sent));
  layer["cache.hit_us.p50"] = Percentile(hit_us, 50.0);
  layer["cache.fingerprint_us_per_doc"] =
      FingerprintUsPerDoc(fixture, spec, seed);
  layer["router.overhead_us.p50"] = Percentile(router_us, 50.0);
  layer["router.quota_rejected"] = static_cast<double>(
      router_after.quota_rejected - router_before.quota_rejected);
  layer["router.failover_picks"] = static_cast<double>(
      router_after.failover_picks - router_before.failover_picks);
  layer["mem.rss_growth_mb"] = rss_growth;
  layer["bundle.load_ms"] = Median(load_ms);
  layer["servable.golden_ms"] = Median(golden_ms);
  layer["replay.lag_us.p50"] = Percentile(lag_us, 50.0);
  layer["replay.lag_us.p99"] = Percentile(lag_us, 99.0);

  if (spans != nullptr) {
    TraceWindow(logs, attempts.Take(), stack.servable->ladder(),
                spec.open_loop, spans, &layer);
  }
  return result;
}

}  // namespace perfbench
