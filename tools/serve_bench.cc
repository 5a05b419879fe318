// The serving benchmarks: four scenarios (latency, reload, shards, soak)
// over one setup (Corpus, BundleFamily, MakeLadder), one traffic layer
// (RunClient over an ArrivalSource, RunTenantTraffic, Reloader) and one
// report writer (Report). DESIGN.md § "Serving benchmark driver".

#include "serve_bench.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <deque>
#include <functional>
#include <future>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "bundle/bundle.h"
#include "common/rng.h"
#include "common/thread_pool.h"
#include "core/cascade.h"
#include "core/timing.h"
#include "data/letor_io.h"
#include "data/letor_stream.h"
#include "forest/parallel_scorer.h"
#include "forest/quickscorer.h"
#include "nn/scorer.h"
#include "predict/dense_predictor.h"
#include "predict/drift.h"
#include "predict/network_time.h"
#include "predict/sparse_predictor.h"
#include "prune/magnitude.h"
#include "replay/workload.h"
#include "replay/zipf.h"
#include "serve/engine.h"
#include "serve/fault_injection.h"
#include "serve/latency.h"
#include "serve/router.h"
#include "serve/score_cache.h"
#include "serve/scorer.h"
#include "serve/servable.h"

namespace dnlr::cli {
namespace {

// Settings without a flag; each keeps the default its former flag had.
constexpr uint64_t kSeed = 42;
// Engine workers of the latency, reload and soak scenarios. The client keeps
// four requests per worker in flight: sustained queue pressure without
// unbounded shedding.
constexpr uint32_t kWorkers = 4;
constexpr size_t kClientWindow = 4 * kWorkers;
constexpr uint32_t kQueue = 128;  // latency and reload engines
// Corpus of the reload and shards scenarios.
constexpr uint32_t kQueries = 60;
constexpr uint32_t kFeatures = 64;

// serve-bench (latency).
constexpr uint32_t kLatencyFeatures = 136;
constexpr uint64_t kSpikeUs = 2000;
constexpr double kNanRate = 0.05;

// Bundle family (reload and soak).
constexpr uint32_t kTeacherTrees = 20;
constexpr uint32_t kProbeDocs = 64;
constexpr uint64_t kBundleDeadlineUs = 20'000;

// serve-bench --shards.
constexpr uint32_t kShardWorkers = 2;
constexpr uint32_t kShardQueue = 64;
constexpr uint64_t kShardDeadlineUs = 50'000;
constexpr uint64_t kPaceUs = 1000;
constexpr double kShardFaultRate = 0.2;
// The outage dominates the faulted window: at trigger 0.05 and length 300
// about 94% of the shard's batches during the faulty generation land inside
// a burst, which is what forces quarantine; the rollback swap then lets the
// half-open probes readmit the shard.
constexpr double kBurstTrigger = 0.05;
constexpr uint32_t kBurstLen = 300;
constexpr double kP99FloorUs = 5000.0;
constexpr double kMaxErrorRate = 0.01;
constexpr double kAdmitSlack = 2.0;
constexpr double kZipfExponent = 1.1;  // shards and soak

// soak-bench.
constexpr uint32_t kSoakQueue = 256;
constexpr size_t kCacheCapacity = 4096;
constexpr size_t kCacheShards = 8;
constexpr uint64_t kPoisonEvery = 2;
constexpr double kMaxShedRate = 0.05;
constexpr double kMaxP99Us = static_cast<double>(kBundleDeadlineUs);
constexpr double kSoakFaultRate = 0.3;
constexpr double kDiurnalAmplitude = 0.5;
constexpr double kBurstProbability = 0.003;

// ---- Report --------------------------------------------------------------

/// The one report writer: top-level members in order and, when any gate was
/// declared, a "gates" block of named booleans closed by "pass".
class Report {
 public:
  explicit Report(std::string benchmark) : benchmark_(std::move(benchmark)) {}

  void Add(std::string key, std::string rendered) {
    members_.emplace_back(std::move(key), std::move(rendered));
  }
  void Gate(std::string_view name, bool ok) {
    AppendMembers(&gates_, name, ok);
    if (!ok) failed_.append(" ").append(name);
  }
  /// A non-boolean member of the gates block (a bound a gate checked).
  void GateDetail(std::string_view name, const Json& value) {
    AppendMembers(&gates_, name, value);
  }

  /// Prints and writes the report; 0 when every gate passed, else 1.
  int Finish(const std::string& path) {
    if (!gates_.empty()) {
      AppendMembers(&gates_, "pass", failed_.empty());
      Add("gates", "{" + gates_ + "}");
    }
    std::string json =
        "{\n  \"benchmark\": " + obs::JsonString(benchmark_);
    for (const auto& [key, value] : members_) {
      json += ",\n  " + obs::JsonString(key) + ": " + value;
    }
    json += "\n}\n";
    std::printf("%s", json.c_str());
    if (!WriteJson(path, json)) return 1;
    if (failed_.empty()) return 0;
    std::fprintf(stderr, "%s gates FAILED:%s\n", benchmark_.c_str(),
                 failed_.c_str());
    return 1;
  }

 private:
  const std::string benchmark_;
  std::vector<std::pair<std::string, std::string>> members_;
  std::string gates_;   // rendered members of the gates block
  std::string failed_;  // names of the failed gates, space-prefixed
};

// ---- Setup ---------------------------------------------------------------

/// The first 1/`divisor` of `forest`'s trees (at least one).
gbdt::Ensemble FirstTrees(const gbdt::Ensemble& forest, uint32_t divisor) {
  gbdt::Ensemble subset(forest.base_score());
  const uint32_t trees = std::max(1u, forest.num_trees() / divisor);
  for (uint32_t t = 0; t < trees; ++t) subset.AddTree(forest.tree(t));
  return subset;
}

/// One rung of a hand-wired ladder.
struct RungSpec {
  const char* name;
  const serve::FallibleScorer* scorer;
  double serial_us_per_doc;
};

/// A ladder over `rungs`, strongest first, costs scaled by `scaling`.
/// Exits 1 (error printed) on an invalid rung.
std::shared_ptr<serve::DegradationLadder> MakeLadder(
    std::initializer_list<RungSpec> rungs,
    const predict::ParallelScaling& scaling = {}) {
  auto ladder = std::make_shared<serve::DegradationLadder>();
  for (const RungSpec& rung : rungs) {
    if (Failed(ladder->AddRung(rung.name, rung.scorer, rung.serial_us_per_doc,
                               scaling))) {
      std::exit(1);
    }
  }
  return ladder;
}

/// The model family the reload and soak scenarios serve from bundles: a
/// teacher trained on the corpus, its first-stage subset and a random
/// student, with measured rung costs clamped non-increasing (as the ladder
/// and the bundle's rung grammar require). Publish packs a text bundle, a
/// binary twin and a poisoned twin (student from another seed), loads the
/// first generation from the text bundle and captures the golden probe
/// every later candidate must reproduce bitwise.
struct BundleFamily {
  BundleFamily(const Corpus& corpus_in, const std::string& path_in)
      : corpus(corpus_in),
        path(path_in),
        binary_path(path_in + ".bin"),
        poison_path(path_in + ".poison"),
        options{.num_features = corpus_in.features()},
        teacher(TrainForest(corpus_in.dataset, kTeacherTrees, 16)),
        subset(FirstTrees(teacher, serve::kSubsetTreeDivisor)),
        arch(corpus_in.features(), {64, 32}),
        student(arch, kSeed + 1),
        student_scorer(student, &corpus_in.normalizer),
        subset_scorer(subset, corpus_in.features()),
        probe_docs(corpus_in.dataset.Row(corpus_in.dataset.QueryBegin(0))),
        probe_count(std::min(corpus_in.dataset.QuerySize(0), kProbeDocs)) {
    const double student_cost = core::MeasureScorerMicrosPerDocSynthetic(
        student_scorer, 2048, corpus.features());
    const double subset_cost = core::MeasureScorerMicrosPerDocSynthetic(
        subset_scorer, 2048, corpus.features());
    costs[0] = student_cost;
    costs[1] = std::min(student_cost, serve::PredictCascadeMicrosPerDoc(
                                          subset_cost, student_cost,
                                          serve::kCascadeRescoreFraction));
    costs[2] = std::min(costs[1], subset_cost);
  }
  // The scorers and the swap gate point into this object.
  BundleFamily(const BundleFamily&) = delete;
  BundleFamily& operator=(const BundleFamily&) = delete;

  Status Publish() {
    bundle::RungConfig rungs;
    rungs.rungs = {{"student", "student", costs[0]},
                   {"cascade", "cascade", costs[1]},
                   {"forest-subset", "teacher-subset", costs[2]}};
    if (!EnsureParentDir(path)) return Status::IoError("cannot create " + path);
    bundle::ModelBundle pack;
    Status status = pack.SetTeacher(teacher);
    if (status.ok()) status = pack.SetStudent(student);
    if (status.ok()) status = pack.SetNormalizer(corpus.normalizer);
    if (status.ok()) status = pack.SetRungs(rungs);
    if (status.ok()) status = pack.SaveToFile(path);
    if (status.ok()) {
      status = pack.SaveToFile(binary_path, bundle::BundleFormat::kBinary);
    }
    if (status.ok()) status = pack.SetStudent(nn::Mlp(arch, kSeed + 999));
    if (status.ok()) status = pack.SaveToFile(poison_path);
    if (!status.ok()) return status;

    auto servable = serve::Servable::LoadFromFile(path, options);
    if (!servable.ok()) return servable.status();
    ladder = serve::Servable::LadderHandle(
        std::shared_ptr<const serve::Servable>(std::move(servable).value()));
    for (size_t i = 0; i < ladder->num_rungs(); ++i) {
      std::fprintf(stderr, "rung %zu %-14s %8.3f us/doc\n", i,
                   ladder->rung(i).name.c_str(),
                   ladder->rung(i).predicted_us_per_doc);
    }
    auto captured = serve::CaptureGoldenScores(*ladder, probe_docs,
                                               probe_count, corpus.features());
    if (!captured.ok()) return captured.status();
    golden = std::move(captured).value();
    return Status::Ok();
  }

  /// The swap gate: a candidate may serve only if it reproduces the golden
  /// probe bitwise.
  serve::ServingEngine::SwapValidator Gate() const {
    return [this](const serve::DegradationLadder& candidate) {
      return serve::RunGoldenSmoke(candidate, probe_docs, probe_count,
                                   corpus.features(), &golden);
    };
  }

  const Corpus& corpus;
  const std::string path;
  const std::string binary_path;
  const std::string poison_path;
  const serve::ServableOptions options;
  const gbdt::Ensemble teacher;
  const gbdt::Ensemble subset;
  const predict::Architecture arch;
  const nn::Mlp student;
  const nn::NeuralScorer student_scorer;
  const forest::QuickScorer subset_scorer;
  const float* const probe_docs;
  const uint32_t probe_count;
  double costs[3] = {};
  // Set by Publish: the first generation and its golden probe scores.
  std::shared_ptr<const serve::DegradationLadder> ladder;
  std::vector<std::vector<float>> golden;
};

// ---- Traffic -------------------------------------------------------------

/// What the reports read from a ServeResponse, without the score vector:
/// a few bytes per request, so a long soak's memory stays flat.
struct ResponseSummary {
  StatusCode code = StatusCode::kOk;
  int rung = -1;
  bool cache_hit = false;
  uint64_t micros = 0;
  uint64_t model_version = 0;

  bool ok() const { return code == StatusCode::kOk; }
};

/// Fills the next request's rows; false once the source is exhausted.
using ArrivalSource = std::function<bool(serve::ServeRequest*)>;

/// The one client loop: submits requests from `next`, each with a
/// `deadline_us` budget, keeping at most kClientWindow in flight, and calls
/// `after_submit(n)` after the n-th submission. Returns one summary per
/// request, in submission order.
std::vector<ResponseSummary> RunClient(
    serve::ServingEngine& engine, uint64_t deadline_us,
    const ArrivalSource& next,
    const std::function<void(uint64_t)>& after_submit = nullptr) {
  std::vector<ResponseSummary> summaries;
  std::deque<std::future<serve::ServeResponse>> inflight;
  const auto collect_oldest = [&] {
    const serve::ServeResponse resp = inflight.front().get();
    inflight.pop_front();
    summaries.push_back({resp.status.code(), resp.rung, resp.cache_hit,
                         resp.total_micros, resp.model_version});
  };
  serve::ServeRequest request;
  uint64_t submitted = 0;
  while (next(&request)) {
    request.deadline =
        serve::Deadline::AfterMicros(engine.clock(), deadline_us);
    inflight.push_back(engine.Submit(request));
    if (inflight.size() >= kClientWindow) collect_oldest();
    if (after_submit) after_submit(++submitted);
  }
  while (!inflight.empty()) collect_oldest();
  return summaries;
}

/// `requests` arrivals cycling through the corpus queries in order.
ArrivalSource RoundRobin(const data::Dataset& dataset, int requests) {
  return [&dataset, requests, r = 0](serve::ServeRequest* request) mutable {
    if (r >= requests) return false;
    const uint32_t q = static_cast<uint32_t>(r++) % dataset.num_queries();
    request->docs = dataset.Row(dataset.QueryBegin(q));
    request->count = dataset.QuerySize(q);
    request->stride = dataset.num_features();
    return true;
  };
}

/// Paced replay: arrivals from `workload`, each slept to its due time on
/// `clock`, until `end_micros`; `in_burst` counts arrivals inside a burst.
/// A candidate set is the query's rows tiled to the arrival's size class,
/// memoized per (query, size) so a repeated key is byte-identical — which
/// is exactly what the score cache fingerprints.
ArrivalSource PacedReplay(replay::WorkloadGenerator* workload,
                          const data::Dataset& dataset, Clock& clock,
                          uint64_t start_micros, uint64_t end_micros,
                          uint64_t* in_burst) {
  using Buffers = std::map<std::pair<uint32_t, uint32_t>, std::vector<float>>;
  return [=, &dataset, &clock, buffers = std::make_shared<Buffers>()](
             serve::ServeRequest* request) {
    if (clock.NowMicros() >= end_micros) return false;
    const replay::Arrival arrival = workload->Next();
    replay::SleepUntilDue(clock, start_micros, arrival);
    if (clock.NowMicros() >= end_micros) return false;
    *in_burst += arrival.in_burst ? 1 : 0;
    const uint32_t q = arrival.query;
    std::vector<float>& buf = (*buffers)[{q, arrival.candidate_docs}];
    if (buf.empty()) {
      for (uint32_t i = 0; i < arrival.candidate_docs; ++i) {
        const float* row =
            dataset.Row(dataset.QueryBegin(q) + i % dataset.QuerySize(q));
        buf.insert(buf.end(), row, row + dataset.num_features());
      }
    }
    request->docs = buf.data();
    request->count = arrival.candidate_docs;
    request->stride = dataset.num_features();
    return true;
  };
}

/// The one reload trigger: loads the bundle at `path` and swaps it into the
/// engine through the family's golden gate, counting the outcome.
struct Reloader {
  void Fire() {
    ++attempts;
    auto candidate = serve::Servable::LoadFromFile(path, family.options);
    if (!candidate.ok()) {
      std::fprintf(stderr, "reload %s: %s\n", path.c_str(),
                   candidate.status().ToString().c_str());
      ++load_failures;
      return;
    }
    const Status swapped = engine->SwapModel(
        serve::Servable::LadderHandle(std::move(candidate).value()),
        family.Gate());
    if (swapped.ok()) {
      ++swapped_in;
    } else {
      std::fprintf(stderr, "swap %s: %s\n", path.c_str(),
                   swapped.ToString().c_str());
      ++rejected;
    }
  }
  uint64_t failures() const { return rejected + load_failures; }

  serve::ServingEngine* const engine;
  const BundleFamily& family;
  const std::string path;
  uint64_t attempts = 0, swapped_in = 0, rejected = 0, load_failures = 0;
};

/// One tenant-traffic phase against `router`: every tenant replays
/// Zipf-skewed queries from its own thread for `duration_ms`. Paced tenants
/// sleep kPaceUs between requests; the abusive tenant (if any) hammers as
/// fast as the router answers, subject only to a tiny bounded backoff when
/// it is shed — "abusive" means saturating its quota, not busy-burning a
/// core generating rejections.
void RunTenantTraffic(serve::ShardedRouter& router, const data::Dataset& data,
                      const replay::ZipfSampler& zipf, uint64_t tenants,
                      int64_t abusive_tenant, uint64_t duration_ms,
                      uint64_t seed) {
  std::atomic<bool> stop{false};
  std::vector<std::thread> threads;
  for (uint64_t tenant = 0; tenant < tenants; ++tenant) {
    threads.emplace_back([&, tenant] {
      dnlr::Rng rng(seed ^ (tenant * 0x9E3779B97F4A7C15ull));
      const bool paced = static_cast<int64_t>(tenant) != abusive_tenant;
      // Exponential 25 -> 200 us backoff on shed responses, reset by any
      // non-shed answer. The cap stays far under 1/quota-rate (2 ms at the
      // default 500/s), so a quota-limited tenant still attempts thousands
      // of requests per second and the quota-rejection gates keep firing.
      constexpr uint64_t kShedBackoffStartUs = 25;
      constexpr uint64_t kShedBackoffCapUs = 200;
      uint64_t backoff_us = 0;
      // Relaxed stop flag: plain shutdown signal; the join below orders
      // everything the threads wrote.
      while (!stop.load(std::memory_order_relaxed)) {
        const uint32_t q = zipf.Sample(rng);
        const serve::ShardedRouter::Response resp = router.ScoreSync(
            tenant, data.Row(data.QueryBegin(q)), data.QuerySize(q),
            data.num_features(), kShardDeadlineUs);
        if (resp.serve.status.code() != StatusCode::kResourceExhausted) {
          backoff_us = 0;
        } else {
          backoff_us = backoff_us == 0
                           ? kShedBackoffStartUs
                           : std::min(backoff_us * 2, kShedBackoffCapUs);
        }
        std::this_thread::sleep_for(std::chrono::microseconds(
            backoff_us + (paced ? kPaceUs : 0)));
      }
    });
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(duration_ms));
  stop.store(true, std::memory_order_relaxed);
  for (std::thread& thread : threads) thread.join();
}

// ---- Scenarios -----------------------------------------------------------

/// Latency bench (`serve-bench`): a four-rung degradation ladder (hybrid
/// sparse NN > dense NN > cascade > tree subset) with faults injected into
/// the top rung, under round-robin traffic; reports latency percentiles and
/// the rung distribution, and exports the metrics registry (with the
/// per-stage scoring spans under --obs 1).
int LatencyScenario(const Args& args) {
  args.Accept(kLatencyUsage);
  const int requests = args.GetInt("requests", 300);
  const auto deadline_us =
      static_cast<uint64_t>(args.GetInt("deadline-us", 6000));
  const auto threads = static_cast<uint32_t>(args.GetInt("threads", 1));
  const double fault_rate = args.GetDouble("fault-rate", 0.2);
  const double spike_rate = args.GetDouble("spike-rate", 0.1);
  const bool obs_spans = args.GetInt("obs", 0) != 0;
  const std::string obs_out = args.Get("obs-out", "out/obs_stats.json");
  constexpr uint32_t features = kLatencyFeatures;
  const Corpus corpus(static_cast<uint32_t>(args.GetInt("queries", 80)),
                      features, kSeed);
  const data::Dataset& dataset = corpus.dataset;

  // Forest rungs: a small LambdaMART ensemble plus a first-stage-only
  // subset of its trees (the cheapest thing that still ranks). Neural rungs
  // keep random weights: serving cost, not ranking quality, is measured.
  const gbdt::Ensemble subset = FirstTrees(
      TrainForest(dataset, static_cast<uint32_t>(args.GetInt("trees", 40)), 32),
      4);
  const forest::QuickScorer subset_qs(subset, features);
  const predict::Architecture big_arch(features, {400, 200, 100});
  nn::Mlp big(big_arch, kSeed);
  nn::WeightMasks masks = prune::MakeDenseMasks(big);
  prune::LevelPruneLayer(&big, 0, 0.98, &masks);
  const predict::Architecture small_arch(features, {64, 32});
  const nn::Mlp small(small_arch, kSeed + 1);

  // Intra-request parallelism: every rung shares one pool through a
  // forest::ParallelScorer, which splits at the neural batch size (64) so
  // every rung stays bitwise. The cascade runs over the wrapped stages: a
  // wrapped cascade would re-cut its top fraction per chunk. Rung budgets
  // scale by the MEASURED parallel efficiency, and a machine where
  // threading never pays pins every rung to its serial path.
  common::ThreadPool pool(std::max(1u, threads));
  common::ThreadPool* pool_ptr = threads > 1 ? &pool : nullptr;
  predict::ParallelScaling scaling;
  if (threads > 1) {
    scaling = predict::MeasureParallelScaling(pool_ptr);
    std::fprintf(stderr, "parallel scaling: T=%u efficiency %.2f -> %.2fx\n",
                 scaling.num_threads, scaling.efficiency, scaling.Speedup());
  }
  // 0 keeps the wrappers' structural two-batch floor; CrossoverDocs'
  // "never wins" sentinel does not depend on the per-document cost.
  const uint32_t crossover =
      scaling.CrossoverDocs(1.0) == UINT32_MAX ? UINT32_MAX : 0;
  const nn::HybridNeuralScorer hybrid(big, &corpus.normalizer);
  const nn::NeuralScorer dense_small(small, &corpus.normalizer);
  const forest::ParallelScorer par_hybrid(&hybrid, pool_ptr, 64, crossover);
  const forest::ParallelScorer par_dense(&dense_small, pool_ptr, 64,
                                         crossover);
  const forest::ParallelScorer par_subset(&subset_qs, pool_ptr, 64, crossover);
  const core::CascadeScorer cascade(&par_subset, &par_dense,
                                    serve::kCascadeRescoreFraction);

  // Rung costs via the paper's analytic predictors (neural rungs) and
  // direct measurement (tree rungs), clamped non-increasing as the ladder
  // requires (the JSON reports the raw predictions too).
  std::fprintf(stderr, "calibrating scoring-time predictors (seconds)...\n");
  predict::DenseCalibrationConfig dcal;
  dcal.m_values = {32, 64, 128, 256, 400};
  dcal.k_values = {32, 64, features, 256, 400};
  dcal.n_values = {16, 64};
  dcal.repeats = 2;
  const auto dense_pred = predict::DenseTimePredictor::Calibrate(dcal);
  const auto sparse_pred = predict::SparseTimePredictor::Calibrate();
  const double subset_cost =
      core::MeasureScorerMicrosPerDocSynthetic(subset_qs, 2048, features);
  const double small_cost = serve::PredictNeuralRungMicrosPerDoc(
      small_arch, 64, 0.0, dense_pred, sparse_pred);
  const double raw_costs[4] = {
      serve::PredictNeuralRungMicrosPerDoc(big_arch, 64,
                                           hybrid.first_layer_sparsity(),
                                           dense_pred, sparse_pred),
      small_cost,
      serve::PredictCascadeMicrosPerDoc(subset_cost, small_cost,
                                        serve::kCascadeRescoreFraction),
      subset_cost};
  double costs[4];
  for (int i = 0; i < 4; ++i) {
    costs[i] = i == 0 ? raw_costs[0] : std::min(raw_costs[i], costs[i - 1]);
  }

  serve::FaultInjectionConfig fic;
  fic.transient_fault_probability = fault_rate;
  fic.latency_spike_probability = spike_rate;
  fic.spike_micros = kSpikeUs;
  fic.non_finite_probability = kNanRate;
  fic.seed = kSeed;
  const serve::FaultInjectingScorer faulty_hybrid(&par_hybrid, fic);
  const serve::InfallibleScorerAdapter dense_adapter(&par_dense);
  const serve::InfallibleScorerAdapter cascade_adapter(&cascade);
  const serve::InfallibleScorerAdapter subset_adapter(&par_subset);
  const auto ladder = MakeLadder({{"hybrid-nn", &faulty_hybrid, costs[0]},
                                  {"dense-nn", &dense_adapter, costs[1]},
                                  {"cascade", &cascade_adapter, costs[2]},
                                  {"forest-subset", &subset_adapter, costs[3]}},
                                 scaling);
  for (size_t i = 0; i < ladder->num_rungs(); ++i) {
    std::fprintf(stderr,
                 "rung %zu %-14s %8.3f us/doc (serial %.3f, raw %.3f)\n", i,
                 ladder->rung(i).name.c_str(),
                 ladder->rung(i).predicted_us_per_doc, costs[i], raw_costs[i]);
  }

  serve::ServingConfig sc;
  sc.num_workers = kWorkers;
  sc.queue_capacity = kQueue;
  serve::ServingEngine engine(ladder, sc);
  // With --obs 1 the scoring hot-path spans (mm / nn / forest) record too,
  // so the exported registry breaks request latency down by stage. The
  // engine-level histograms (rung totals, queue wait, backoff) always
  // record.
  obs::MetricsRegistry::Global().SetEnabled(obs_spans);
  std::fprintf(stderr, "serving %d requests (deadline %llu us)...\n", requests,
               static_cast<unsigned long long>(deadline_us));
  const std::vector<ResponseSummary> responses =
      RunClient(engine, deadline_us, RoundRobin(dataset, requests));
  engine.Stop();
  obs::MetricsRegistry::Global().SetEnabled(false);

  const serve::ServeCountersSnapshot c = engine.counters().Snapshot();
  std::vector<double> ok_micros;
  uint64_t within_deadline = 0;
  for (const ResponseSummary& resp : responses) {
    if (!resp.ok()) continue;
    ok_micros.push_back(static_cast<double>(resp.micros));
    if (resp.micros <= deadline_us) ++within_deadline;
  }
  // Mean batch size of the round-robined corpus: the request count the
  // predictor drift comparison is evaluated at.
  const uint32_t mean_docs = std::max(
      1u, dataset.num_docs() / std::max(1u, dataset.num_queries()));
  std::vector<std::string> rungs;
  for (size_t i = 0; i < ladder->num_rungs(); ++i) {
    // Per-rung latency comes from the engine's bounded log2 histograms
    // (constant memory under load); estimates are within 2x of exact.
    const std::string& name = ladder->rung(i).name;
    const obs::Histogram& hist = engine.rung_latency(i);
    const predict::DriftSample drift = predict::RecordPredictorDrift(
        name, ladder->PredictedBatchMicros(i, mean_docs, 1.0), hist);
    rungs.push_back(JsonObject(
        "index", i, "name", name,
        "predicted_us_per_doc", Fixed(ladder->rung(i).predicted_us_per_doc, 3),
        "serial_us_per_doc", Fixed(costs[i], 3),
        "raw_predicted_us_per_doc", Fixed(raw_costs[i], 3),
        "served", c.served_by_rung[i],
        "p50_us", Fixed(hist.ApproxPercentileMicros(50), 1),
        "p95_us", Fixed(hist.ApproxPercentileMicros(95), 1),
        "p99_us", Fixed(hist.ApproxPercentileMicros(99), 1),
        "mean_us", Fixed(hist.MeanMicros(), 1),
        "predicted_batch_us", Fixed(drift.predicted_us, 1),
        "drift_ratio", Fixed(drift.ratio, 3)));
  }

  Report report("serve-bench");
  report.Add("config",
             JsonObject("requests", requests, "deadline_us", deadline_us,
                        "workers", kWorkers, "threads", threads,
                        "parallel_efficiency", Fixed(scaling.efficiency, 3),
                        "queue_capacity", kQueue, "fault_rate", fault_rate,
                        "spike_rate", spike_rate, "spike_us", kSpikeUs,
                        "nan_rate", kNanRate, "seed", kSeed));
  report.Add("rungs", JsonArray(rungs));
  const obs::Histogram& wait = engine.queue_wait();
  const obs::Histogram& backoff = engine.retry_backoff();
  report.Add("queue",
             JsonObject(
                 "wait_p50_us", Fixed(wait.ApproxPercentileMicros(50), 1),
                 "wait_p95_us", Fixed(wait.ApproxPercentileMicros(95), 1),
                 "wait_max_us", Fixed(wait.MaxMicros(), 1),
                 "backoff_sleeps", backoff.Count(),
                 "backoff_total_us", Fixed(backoff.SumMicros(), 1)));
  report.Add("obs",
             JsonObject("spans_enabled", obs_spans, "stats_file", obs_out));
  report.Add("overall",
             JsonObject("ok", c.ok, "within_deadline", within_deadline,
                        "shed_queue_full", c.shed_queue_full,
                        "shed_deadline", c.shed_deadline,
                        "deadline_exceeded", c.deadline_exceeded,
                        "failed", c.failed, "degraded", c.degraded,
                        "retries", c.retries,
                        "transient_faults", c.transient_faults,
                        "timeouts", c.timeouts,
                        "non_finite_batches", c.non_finite_batches,
                        "circuit_opens", c.circuit_opens,
                        "circuit_closes", c.circuit_closes,
                        "p50_us", Fixed(serve::Percentile(ok_micros, 50), 1),
                        "p95_us", Fixed(serve::Percentile(ok_micros, 95), 1),
                        "p99_us", Fixed(serve::Percentile(ok_micros, 99), 1)));
  if (report.Finish(args.Get("out", "out/serve_latency.json")) != 0) return 1;
  return WriteJson(obs_out, obs::MetricsRegistry::Global().ToJson()) ? 0 : 1;
}

/// Hot-reload bench (`serve-bench --reload-every N`): serves the bundle
/// family's first generation and every N requests reloads the bundle from
/// disk and swaps it in while traffic keeps flowing. Every reload is the
/// same model, so the golden gate must accept each one, and no request may
/// fail across a swap. With --binary 1 the reloads come from the binary
/// twin (mmap load path) while the golden scores come from the text-loaded
/// first generation, so the gate proves text -> binary conversion is
/// bitwise score-lossless under live traffic.
int ReloadScenario(const Args& args) {
  args.Accept(kReloadUsage);
  const int reload_every = args.GetInt("reload-every", 25);
  const int requests = args.GetInt("requests", 200);
  const bool binary = args.GetInt("binary", 0) != 0;
  const std::string bundle_path =
      args.Get("bundle", "out/serve_reload.bundle");
  if (reload_every < 1) {
    std::fprintf(stderr, "--reload-every must be >= 1\n");
    return 2;
  }

  const Corpus corpus(kQueries, kFeatures, kSeed);
  BundleFamily family(corpus, bundle_path);
  if (Failed(family.Publish())) return 1;
  serve::ServingConfig sc;
  sc.num_workers = kWorkers;
  sc.queue_capacity = kQueue;
  serve::ServingEngine engine(family.ladder, sc);
  Reloader reloader{&engine, family,
                    binary ? family.binary_path : family.path};
  std::fprintf(stderr, "serving %d requests, reloading every %d...\n",
               requests, reload_every);
  const std::vector<ResponseSummary> responses = RunClient(
      engine, kBundleDeadlineUs, RoundRobin(corpus.dataset, requests),
      [&](uint64_t submitted) {
        if (submitted % static_cast<uint64_t>(reload_every) == 0) {
          reloader.Fire();
        }
      });
  engine.Stop();

  const serve::ServeCountersSnapshot c = engine.counters().Snapshot();
  uint64_t failed_requests = 0;
  uint64_t min_version = ~0ull;
  uint64_t max_version = 0;
  std::vector<double> ok_micros;
  for (const ResponseSummary& resp : responses) {
    if (!resp.ok()) {
      ++failed_requests;
      continue;
    }
    ok_micros.push_back(static_cast<double>(resp.micros));
    min_version = std::min(min_version, resp.model_version);
    max_version = std::max(max_version, resp.model_version);
  }

  Report report("serve-bench-reload");
  report.Add("config",
             JsonObject("requests", requests, "reload_every", reload_every,
                        "deadline_us", kBundleDeadlineUs, "workers", kWorkers,
                        "seed", kSeed, "bundle", bundle_path,
                        "binary", binary ? 1 : 0));
  report.Add("swaps",
             JsonObject("attempted", c.swaps_attempted,
                        "completed", c.swaps_completed,
                        "rejected", c.swaps_rejected,
                        "reload_failures", reloader.failures(),
                        "final_model_version", engine.model_version(),
                        "min_response_version",
                        max_version == 0 ? 0 : min_version,
                        "max_response_version", max_version));
  report.Add("overall",
             JsonObject("ok", c.ok, "failed_requests", failed_requests,
                        "shed_queue_full", c.shed_queue_full,
                        "shed_deadline", c.shed_deadline,
                        "deadline_exceeded", c.deadline_exceeded,
                        "degraded", c.degraded,
                        "p50_us", Fixed(serve::Percentile(ok_micros, 50), 1),
                        "p99_us", Fixed(serve::Percentile(ok_micros, 99), 1)));
  // Swaps must actually happen, none may be rejected (it is the same model
  // every time), and no request may fail across them.
  report.Gate("swaps_completed", c.swaps_completed > 0);
  report.Gate("zero_rejected_swaps", c.swaps_rejected == 0);
  report.Gate("zero_reload_failures", reloader.failures() == 0);
  report.Gate("zero_failed_requests", failed_requests == 0);
  return report.Finish(args.Get("out", "out/serve_reload.json"));
}

/// Multi-tenant isolation soak (`serve-bench --shards N`): a ShardedRouter
/// over N fault-injected shards, M tenant threads replaying Zipfian traffic,
/// one abusive tenant hammering its quota, and a correlated-burst outage on
/// one shard mid-soak (shipped and later rolled back via SwapModelOnShard).
/// Fails unless the abusive tenant is quota-rejected and admitted no faster
/// than kAdmitSlack x (rate x duration + burst); every other tenant keeps
/// its p99 within --p99-ratio of its no-abuse baseline (or under
/// kP99FloorUs) and its error rate under kMaxErrorRate; the faulted shard
/// quarantines and is probe-readmitted; and no model swap fails.
int ShardsScenario(const Args& args) {
  args.Accept(kShardsUsage);
  const int shards_flag = args.GetInt("shards", 4);
  const int tenants_flag = args.GetInt("tenants", 8);
  const int64_t abusive_tenant = args.GetInt("abusive-tenant", 0);
  const auto soak_ms = static_cast<uint64_t>(args.GetInt("soak-ms", 2000));
  const double quota_rate = args.GetDouble("quota-rate", 500.0);
  const double quota_burst = args.GetDouble("quota-burst", 50.0);
  const double p99_ratio = args.GetDouble("p99-ratio", 1.5);
  if (shards_flag < 2 || tenants_flag < 2) {
    std::fprintf(stderr, "--shards and --tenants must both be >= 2\n");
    return 2;
  }
  if (abusive_tenant < 0 || abusive_tenant >= tenants_flag) {
    std::fprintf(stderr, "--abusive-tenant must be in [0, --tenants)\n");
    return 2;
  }
  const auto shards = static_cast<size_t>(shards_flag);
  const auto tenants = static_cast<uint64_t>(tenants_flag);
  const uint64_t baseline_ms = std::max<uint64_t>(500, soak_ms / 4);

  // Each shard serves its own small MLP (a distinct generation); all share
  // the corpus normalizer and a tiny floor rung. Nominal rung costs: with
  // 50 ms budgets rung choice is never the bottleneck here.
  const Corpus corpus(kQueries, kFeatures, kSeed);
  const replay::ZipfSampler zipf(corpus.dataset.num_queries(), kZipfExponent);
  const predict::Architecture strong_arch(kFeatures, {64, 32});
  std::deque<nn::Mlp> strong_mlps;  // deques: stable element addresses
  std::deque<nn::NeuralScorer> strong_scorers;
  for (size_t s = 0; s < shards; ++s) {
    strong_mlps.emplace_back(strong_arch, kSeed + s);
    strong_scorers.emplace_back(strong_mlps.back(), &corpus.normalizer);
  }
  const nn::Mlp floor_mlp(predict::Architecture(kFeatures, {16}),
                          kSeed + 1000);
  const nn::NeuralScorer floor_scorer(floor_mlp, &corpus.normalizer);

  // Every rung of every shard goes through a FaultInjectingScorer. A clean
  // injector is a pass-through; the faulted generation adds i.i.d.
  // transient faults on the strong rung plus a correlated burst schedule
  // SHARED by both rungs — one outage domain, so a triggered burst takes
  // the whole shard down (what the quarantine lifecycle exists for).
  std::vector<std::unique_ptr<serve::FaultInjectingScorer>> injectors;
  const auto make_ladder =
      [&](size_t shard, const serve::FaultInjectionConfig& strong_faults,
          const serve::FaultInjectionConfig& floor_faults,
          const std::shared_ptr<serve::FaultBurstState>& burst) {
        injectors.push_back(std::make_unique<serve::FaultInjectingScorer>(
            &strong_scorers[shard], strong_faults, burst));
        injectors.push_back(std::make_unique<serve::FaultInjectingScorer>(
            &floor_scorer, floor_faults, burst));
        return MakeLadder(
            {{"dense-nn", injectors[injectors.size() - 2].get(), 4.0},
             {"tiny-nn", injectors.back().get(), 0.5}});
      };
  std::vector<std::shared_ptr<const serve::DegradationLadder>> clean_ladders;
  for (size_t s = 0; s < shards; ++s) {
    const serve::FaultInjectionConfig quiet{.seed = kSeed + s};
    clean_ladders.push_back(make_ladder(s, quiet, quiet, nullptr));
  }

  serve::RouterConfig rc;
  rc.health_window_micros = 100'000;
  rc.min_window_requests = 8;
  rc.drain_micros = 5'000;
  rc.quarantine_micros = 10'000;
  rc.probe_successes_to_readmit = 3;
  serve::ServingConfig sc;
  sc.num_workers = kShardWorkers;
  sc.queue_capacity = kShardQueue;

  // ---- Phase 1: no-abuse baseline. A separate router instance with clean
  // shards and fully paced traffic gives each tenant the p99 its soak
  // numbers are judged against.
  std::fprintf(stderr,
               "baseline: %zu shards / %llu tenants, %llu ms paced...\n",
               shards, static_cast<unsigned long long>(tenants),
               static_cast<unsigned long long>(baseline_ms));
  std::vector<double> baseline_p99(tenants, 0.0);
  {
    serve::ShardedRouter baseline(clean_ladders, sc, rc);
    RunTenantTraffic(baseline, corpus.dataset, zipf, tenants,
                     /*abusive_tenant=*/-1, baseline_ms, kSeed);
    baseline.Stop();
    for (uint64_t t = 0; t < tenants; ++t) {
      baseline_p99[t] = baseline.TenantSloSnapshot(t).p99_us;
    }
  }

  // ---- Phase 2: the soak. The abusive tenant gets a tight quota and
  // ignores pacing; the primary shard of a well-behaved tenant (so failover
  // is exercised) is swapped to a burst-faulty generation at 20% of the
  // soak and rolled back at 70%.
  serve::ShardedRouter router(clean_ladders, sc, rc);
  router.SetTenantQuota(static_cast<uint64_t>(abusive_tenant),
                        serve::TenantQuota{quota_rate, quota_burst});
  const uint32_t faulted = router.PrimaryShardFor(abusive_tenant == 0 ? 1 : 0);
  const auto faulty_ladder = make_ladder(
      faulted,
      {.transient_fault_probability = kShardFaultRate, .seed = kSeed + 7777},
      {.seed = kSeed + 7778},
      std::make_shared<serve::FaultBurstState>(kBurstTrigger, kBurstLen,
                                               kSeed + 8888));
  std::fprintf(stderr,
               "soak: %llu ms, abusive tenant %lld (quota %.0f/s burst %.0f),"
               " faulting shard %u at 20%%, rolling back at 70%%...\n",
               static_cast<unsigned long long>(soak_ms),
               static_cast<long long>(abusive_tenant), quota_rate, quota_burst,
               faulted);
  uint64_t failed_swaps = 0;
  std::thread orchestrator([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(soak_ms / 5));
    if (!router.SwapModelOnShard(faulted, faulty_ladder).ok()) ++failed_swaps;
    std::this_thread::sleep_for(
        std::chrono::milliseconds(soak_ms / 2));  // 20% + 50% = 70%
    if (!router.SwapModelOnShard(faulted, clean_ladders[faulted]).ok()) {
      ++failed_swaps;
    }
  });
  RunTenantTraffic(router, corpus.dataset, zipf, tenants, abusive_tenant,
                   soak_ms, kSeed + 1);
  orchestrator.join();
  router.Stop();

  // ---- Gates and report.
  bool p99_within_budget = true;
  bool errors_within_budget = true;
  std::vector<std::string> tenant_items;
  for (uint64_t t = 0; t < tenants; ++t) {
    const serve::TenantSlo slo = router.TenantSloSnapshot(t);
    const bool is_abusive = static_cast<int64_t>(t) == abusive_tenant;
    const double budget = std::max(p99_ratio * baseline_p99[t], kP99FloorUs);
    const bool p99_ok = is_abusive || slo.p99_us <= budget;
    const bool errors_ok = is_abusive || slo.error_rate < kMaxErrorRate;
    p99_within_budget &= p99_ok;
    errors_within_budget &= errors_ok;
    tenant_items.push_back(JsonObject(
        "tenant", t, "abusive", is_abusive, "requests", slo.requests,
        "ok", slo.ok, "errors", slo.errors,
        "quota_rejected", slo.quota_rejected,
        "error_rate", Fixed(slo.error_rate, 4),
        "quota_reject_rate", Fixed(slo.quota_reject_rate, 4),
        "p99_us", Fixed(slo.p99_us, 1),
        "baseline_p99_us", Fixed(baseline_p99[t], 1),
        "p99_budget_us", Fixed(budget, 1),
        "p99_ok", p99_ok, "errors_ok", errors_ok));
  }
  std::vector<std::string> shard_items;
  for (size_t s = 0; s < shards; ++s) {
    const serve::ServingEngine& engine = router.shard_engine(s);
    const serve::ServeCountersSnapshot c = engine.counters().Snapshot();
    shard_items.push_back(JsonObject(
        "shard", s, "state", serve::ShardStateName(router.shard_state(s)),
        "model_version", engine.model_version(), "ok", c.ok,
        "failed", c.failed, "shed_queue_full", c.shed_queue_full,
        "shed_stopped", c.shed_stopped,
        "swaps_attempted", c.swaps_attempted,
        "swaps_completed", c.swaps_completed,
        "swaps_rejected", c.swaps_rejected));
  }
  const serve::RouterCountersSnapshot rc_now = router.counters().Snapshot();
  const serve::TenantSlo abusive =
      router.TenantSloSnapshot(static_cast<uint64_t>(abusive_tenant));
  const double admit_budget =
      kAdmitSlack *
      (quota_rate * static_cast<double>(soak_ms) * 1e-3 + quota_burst);

  Report report("serve-bench-sharded");
  report.Add("config",
             JsonObject("shards", shards, "tenants", tenants,
                        "abusive_tenant", abusive_tenant, "soak_ms", soak_ms,
                        "baseline_ms", baseline_ms,
                        "deadline_us", kShardDeadlineUs,
                        "quota_rate", Fixed(quota_rate, 1),
                        "quota_burst", Fixed(quota_burst, 1),
                        "fault_rate", Fixed(kShardFaultRate, 3),
                        "burst_trigger", Fixed(kBurstTrigger, 4),
                        "burst_len", kBurstLen, "faulted_shard", faulted,
                        "workers", kShardWorkers, "seed", kSeed));
  report.Add("shards", JsonArray(shard_items));
  report.Add("router",
             JsonObject("requests", rc_now.requests,
                        "admitted", rc_now.admitted,
                        "quota_rejected", rc_now.quota_rejected,
                        "failover_picks", rc_now.failover_picks,
                        "failover_retries", rc_now.failover_retries,
                        "forced_primary", rc_now.forced_primary,
                        "no_shard_available", rc_now.no_shard_available,
                        "drains", rc_now.drains,
                        "quarantines", rc_now.quarantines,
                        "probes", rc_now.probes,
                        "readmissions", rc_now.readmissions));
  report.Add("tenants", JsonArray(tenant_items));
  report.Gate("abusive_quota_rejected", abusive.quota_rejected > 0);
  report.Gate("abusive_admission_bounded",
              static_cast<double>(abusive.ok + abusive.errors) <= admit_budget);
  report.GateDetail("admit_budget", Fixed(admit_budget, 1));
  report.Gate("tenant_p99_within_budget", p99_within_budget);
  report.Gate("tenant_errors_within_budget", errors_within_budget);
  report.Gate("shard_quarantined", rc_now.quarantines >= 1);
  report.Gate("shard_readmitted", rc_now.readmissions >= 1);
  report.Gate("zero_failed_swaps", failed_swaps == 0);
  return report.Finish(args.Get("out", "out/serve_shard_ci.json"));
}

}  // namespace

int CmdServeBench(const Args& args) {
  if (args.Has("shards")) return ShardsScenario(args);
  if (args.Has("reload-every")) return ReloadScenario(args);
  return LatencyScenario(args);
}

/// Traffic-replay soak (`soak-bench`) against one bundle-served engine with
/// a hot score cache, in three phases:
///   A. replay: PacedReplay traffic while an orchestrator reloads the bundle
///      through the golden gate every --reload-every-ms, tries the poisoned
///      twin every kPoisonEvery-th time (it must be rejected), and runs a
///      fault episode from 45% to 60% of the soak (ungated swap to a
///      fault-injecting ladder, gated rollback);
///   B. LETOR streaming: the corpus (or --letor) streamed query by query
///      through data::LetorQueryStream into the serve path;
///   C. cache parity: every query served twice on the cleared cached engine
///      and once on a cache-off twin loaded from the same bundle; the second
///      serve must hit and all three score vectors must be bitwise equal.
/// Fails unless every gate in the report's "gates" block holds.
int CmdSoakBench(const Args& args) {
  const int duration_flag = args.GetInt("duration-ms", 10'000);
  const auto features = static_cast<uint32_t>(args.GetInt("features", 32));
  const auto queries = static_cast<uint32_t>(args.GetInt("queries", 48));
  const auto reload_every_ms =
      static_cast<uint64_t>(args.GetInt("reload-every-ms", 700));
  if (duration_flag < 1000) {
    std::fprintf(stderr, "--duration-ms must be >= 1000\n");
    return 2;
  }
  const auto duration_ms = static_cast<uint64_t>(duration_flag);

  const Corpus corpus(queries, features, kSeed);
  const data::Dataset& dataset = corpus.dataset;
  BundleFamily family(corpus, args.Get("bundle", "out/soak.bundle"));
  if (Failed(family.Publish())) return 1;
  const size_t num_rungs = family.ladder->num_rungs();
  serve::ScoreCache cache(serve::ScoreCacheConfig{
      .capacity = kCacheCapacity, .num_shards = kCacheShards});
  serve::ServingConfig sc;
  sc.num_workers = kWorkers;
  sc.queue_capacity = kSoakQueue;
  sc.score_cache = &cache;
  serve::ServingEngine engine(family.ladder, sc);
  Reloader good{&engine, family, family.path};
  Reloader poison{&engine, family, family.poison_path};

  // The fault episode's ladder: the Servable's rung count, top rung wrapped
  // in an injector throwing transient faults, latency spikes and NaNs.
  const serve::FaultInjectingScorer faulty_top(
      &family.student_scorer, {.transient_fault_probability = kSoakFaultRate,
                               .latency_spike_probability = 0.2,
                               .spike_micros = 1000,
                               .non_finite_probability = 0.05,
                               .seed = kSeed + 777});
  const serve::InfallibleScorerAdapter clean_mid(&family.student_scorer);
  const serve::InfallibleScorerAdapter clean_floor(&family.subset_scorer);
  const auto faulty_ladder =
      MakeLadder({{"student-faulty", &faulty_top, family.costs[0]},
                  {"student-clean", &clean_mid, family.costs[1]},
                  {"forest-subset", &clean_floor, family.costs[2]}});

  // ---- Phase A. The soak covers 1.5 compressed "days", so both the peak
  // and the trough of the diurnal curve are exercised.
  replay::WorkloadConfig wc;
  wc.num_queries = dataset.num_queries();
  wc.zipf_exponent = kZipfExponent;
  wc.base_qps = args.GetDouble("qps", 600.0);
  wc.diurnal_amplitude = kDiurnalAmplitude;
  wc.diurnal_period_micros = duration_ms * 2 / 3 * 1000;
  wc.burst_probability = kBurstProbability;
  wc.burst_multiplier = 3.0;
  wc.burst_duration_micros = 150'000;
  wc.seed = kSeed;
  replay::WorkloadGenerator workload(wc);
  uint64_t arrivals_in_burst = 0;
  const uint64_t start = engine.clock().NowMicros();
  std::atomic<bool> soak_done{false};
  uint64_t fault_swap_failures = 0;
  std::thread orchestrator([&] {
    const uint64_t fault_start = start + duration_ms * 1000 * 45 / 100;
    const uint64_t fault_end = start + duration_ms * 1000 * 60 / 100;
    bool fault_active = false;
    bool fault_done = false;
    uint64_t reload_count = 0;
    uint64_t last_reload = start;
    // Relaxed: a plain stop signal; the join orders everything it guards.
    while (!soak_done.load(std::memory_order_relaxed)) {
      const uint64_t now = engine.clock().NowMicros();
      if (!fault_done && !fault_active && now >= fault_start &&
          now < fault_end) {
        std::fprintf(stderr, "fault episode: injecting faulty ladder\n");
        fault_active = engine.SwapModel(faulty_ladder, nullptr).ok();
        fault_done = !fault_active;
        fault_swap_failures += fault_active ? 0 : 1;
      } else if (fault_active && now >= fault_end) {
        std::fprintf(stderr, "fault episode: rolling back (golden-gated)\n");
        good.Fire();
        fault_active = false;
        fault_done = true;
        last_reload = now;
      } else if (!fault_active &&
                 now - last_reload >= reload_every_ms * 1000) {
        (++reload_count % kPoisonEvery == 0 ? poison : good).Fire();
        last_reload = now;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
  });
  std::fprintf(stderr,
               "soak: %llu ms @ ~%.0f qps, reload every %llu ms, fault "
               "episode at 45%%-60%%...\n",
               static_cast<unsigned long long>(duration_ms), wc.base_qps,
               static_cast<unsigned long long>(reload_every_ms));
  const std::vector<ResponseSummary> responses = RunClient(
      engine, kBundleDeadlineUs,
      PacedReplay(&workload, dataset, engine.clock(), start,
                  start + duration_ms * 1000, &arrivals_in_burst));
  soak_done.store(true, std::memory_order_relaxed);
  orchestrator.join();
  // One final golden-gated reload so phases B and C run on a generation
  // proven equivalent to the first even if the soak ended mid-fault.
  good.Fire();

  // Snapshots for the gates, taken before the later phases add traffic.
  const serve::ScoreCacheStats soak_cache = cache.Stats();
  const serve::ServeCountersSnapshot c = engine.counters().Snapshot();
  uint64_t soak_cache_hits = 0;
  std::vector<std::vector<double>> rung_latencies(num_rungs);
  for (const ResponseSummary& resp : responses) {
    if (!resp.ok()) continue;
    if (resp.cache_hit) {
      ++soak_cache_hits;  // cache hits are not rung latencies
    } else if (resp.rung >= 0 && static_cast<size_t>(resp.rung) < num_rungs) {
      rung_latencies[static_cast<size_t>(resp.rung)].push_back(
          static_cast<double>(resp.micros));
    }
  }
  const uint64_t lookups = soak_cache.hits + soak_cache.misses;
  const double hit_rate =
      lookups > 0 ? static_cast<double>(soak_cache.hits) /
                        static_cast<double>(lookups)
                  : 0.0;
  const double shed_rate =
      responses.empty()
          ? 0.0
          : static_cast<double>(c.shed_queue_full + c.shed_deadline) /
                static_cast<double>(responses.size());

  // ---- Phase B: stream a LETOR file through the serve path.
  std::string letor_path = args.Get("letor", "");
  if (letor_path.empty()) {
    letor_path = "out/soak_corpus.letor";
    if (!EnsureParentDir(letor_path) ||
        Failed(data::WriteLetorFile(dataset, letor_path))) {
      return 1;
    }
  }
  uint64_t letor_queries = 0;
  uint64_t letor_docs = 0;
  uint64_t letor_failures = 0;
  auto stream = data::LetorQueryStream::Open(letor_path, features);
  if (Failed(stream.status())) return 1;
  data::QueryBatch batch;
  while (true) {
    auto more = stream->Next(&batch);
    if (Failed(more.status())) {
      ++letor_failures;
      break;
    }
    if (!more.value()) break;
    if (batch.num_docs == 0) continue;
    const serve::ServeResponse resp = engine.ScoreSync(
        batch.features.data(), batch.num_docs, features, 100'000);
    letor_failures += resp.status.ok() ? 0 : 1;
    ++letor_queries;
    letor_docs += batch.num_docs;
  }
  std::fprintf(stderr, "letor stream: %llu queries / %llu docs from %s\n",
               static_cast<unsigned long long>(letor_queries),
               static_cast<unsigned long long>(letor_docs),
               letor_path.c_str());

  // ---- Phase C: bitwise cache parity. Clear first — soak-era entries may
  // legitimately carry degraded-rung scores; parity is defined against
  // what the current generation computes at full strength.
  cache.Clear();
  uint64_t parity_queries = 0;
  uint64_t parity_mismatches = 0;
  uint64_t parity_missed_hits = 0;
  auto twin_model = serve::Servable::LoadFromFile(family.path, family.options);
  if (Failed(twin_model.status())) return 1;
  serve::ServingConfig twin_config = sc;
  twin_config.score_cache = nullptr;
  serve::ServingEngine twin(
      serve::Servable::LadderHandle(std::move(twin_model).value()),
      twin_config);
  constexpr uint64_t kParityBudgetUs = 200'000;
  for (uint32_t q = 0; q < dataset.num_queries(); ++q) {
    const float* docs = dataset.Row(dataset.QueryBegin(q));
    const uint32_t count = dataset.QuerySize(q);
    const serve::ServeResponse first =
        engine.ScoreSync(docs, count, features, kParityBudgetUs);
    const serve::ServeResponse second =
        engine.ScoreSync(docs, count, features, kParityBudgetUs);
    const serve::ServeResponse uncached =
        twin.ScoreSync(docs, count, features, kParityBudgetUs);
    ++parity_queries;
    if (!first.status.ok() || !second.status.ok() || !uncached.status.ok()) {
      ++parity_mismatches;
      continue;
    }
    if (!second.cache_hit) ++parity_missed_hits;
    if (first.scores != second.scores || first.scores != uncached.scores) {
      ++parity_mismatches;
    }
  }
  twin.Stop();
  engine.Stop();

  // ---- Gates and report. Rungs that served under 20 requests are
  // reported but not gated: a p99 over so few samples is noise.
  bool rung_p99_ok = true;
  std::vector<std::string> rung_items;
  for (size_t r = 0; r < num_rungs; ++r) {
    const double p99 = serve::Percentile(rung_latencies[r], 99);
    const bool gated = rung_latencies[r].size() >= 20;
    if (gated && p99 > kMaxP99Us) rung_p99_ok = false;
    rung_items.push_back(JsonObject(
        "rung", r, "name", engine.ladder().rung(r).name,
        "served", rung_latencies[r].size(),
        "p50_us", Fixed(serve::Percentile(rung_latencies[r], 50), 1),
        "p99_us", Fixed(p99, 1), "gated", gated));
  }

  Report report("soak-bench");
  report.Add("config",
             JsonObject("duration_ms", duration_ms,
                        "qps", Fixed(wc.base_qps, 1), "queries", queries,
                        "features", features, "workers", kWorkers,
                        "deadline_us", kBundleDeadlineUs,
                        "reload_every_ms", reload_every_ms,
                        "poison_every", kPoisonEvery,
                        "zipf_exponent", Fixed(wc.zipf_exponent, 2),
                        "diurnal_amplitude", Fixed(wc.diurnal_amplitude, 2),
                        "burst_probability", Fixed(wc.burst_probability, 4),
                        "cache_capacity", kCacheCapacity, "seed", kSeed));
  report.Add("soak",
             JsonObject("submitted", responses.size(), "ok", c.ok,
                        "failed", c.failed,
                        "shed_queue_full", c.shed_queue_full,
                        "shed_deadline", c.shed_deadline,
                        "deadline_exceeded", c.deadline_exceeded,
                        "degraded", c.degraded,
                        "shed_rate", Fixed(shed_rate, 4),
                        "cache_hit_responses", soak_cache_hits,
                        "bursts_started", workload.bursts_started(),
                        "arrivals_in_burst", arrivals_in_burst));
  report.Add("cache",
             JsonObject("hits", soak_cache.hits, "misses", soak_cache.misses,
                        "evictions", soak_cache.evictions,
                        "stale_rejects", soak_cache.stale_rejects,
                        "entries", soak_cache.entries,
                        "hit_rate", Fixed(hit_rate, 4)));
  report.Add("rungs", JsonArray(rung_items));
  report.Add("swaps",
             JsonObject("attempted", c.swaps_attempted,
                        "completed", c.swaps_completed,
                        "rejected", c.swaps_rejected,
                        "good_reloads", good.swapped_in,
                        "good_reload_failures", good.failures(),
                        "poison_attempts", poison.attempts,
                        "poison_rejected", poison.rejected,
                        "fault_swap_failures", fault_swap_failures,
                        "final_model_version", engine.model_version()));
  report.Add("letor",
             JsonObject("path", letor_path, "queries", letor_queries,
                        "docs", letor_docs, "failures", letor_failures));
  report.Add("parity",
             JsonObject("queries", parity_queries,
                        "mismatches", parity_mismatches,
                        "missed_hits", parity_missed_hits));
  report.Gate("cache_hit_rate",
              hit_rate >= args.GetDouble("min-hit-rate", 0.5));
  report.Gate("shed_rate", shed_rate <= kMaxShedRate);
  report.Gate("zero_failures", c.failed == 0);
  report.Gate("rung_p99", rung_p99_ok);
  report.Gate("reloads_lossless",
              good.failures() == 0 && c.swaps_completed >= 2);
  report.Gate("poison_rejected",
              poison.attempts >= 1 && poison.rejected == poison.attempts);
  report.Gate("fault_swaps", fault_swap_failures == 0);
  report.Gate("stale_rejected", soak_cache.stale_rejects >= 1);
  report.Gate("cache_parity", parity_mismatches == 0 &&
                                  parity_missed_hits == 0 &&
                                  parity_queries >= 1);
  report.Gate("letor_stream", letor_failures == 0 && letor_queries >= 1);
  return report.Finish(args.Get("out", "out/soak.json"));
}

}  // namespace dnlr::cli
