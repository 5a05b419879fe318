#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "common/thread_pool.h"
#include "common/timer.h"
#include "forest/parallel_scorer.h"
#include "mm/gemm.h"
#include "nn/mlp.h"
#include "nn/scorer.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "serve/latency.h"

namespace dnlr::obs {
namespace {

// The registry is process-global, so every test uses its own metric names
// and restores the enabled flag it toggles.

TEST(CounterTest, AddsAndResets) {
  Counter counter;
  EXPECT_EQ(counter.Value(), 0u);
  counter.Add();
  counter.Add(41);
  EXPECT_EQ(counter.Value(), 42u);
  counter.Reset();
  EXPECT_EQ(counter.Value(), 0u);
}

TEST(GaugeTest, StoresLastValue) {
  Gauge gauge;
  EXPECT_EQ(gauge.Value(), 0.0);
  gauge.Set(3.25);
  gauge.Set(-1.5);
  EXPECT_EQ(gauge.Value(), -1.5);
  gauge.Reset();
  EXPECT_EQ(gauge.Value(), 0.0);
}

TEST(HistogramTest, CountSumMinMaxMean) {
  Histogram h;
  EXPECT_EQ(h.Count(), 0u);
  EXPECT_EQ(h.MinMicros(), 0.0);
  EXPECT_EQ(h.MaxMicros(), 0.0);
  h.Record(0.0);
  h.Record(1.0);
  h.Record(2.5);
  h.Record(1000.0);
  EXPECT_EQ(h.Count(), 4u);
  EXPECT_EQ(h.MinMicros(), 0.0);
  EXPECT_EQ(h.MaxMicros(), 1000.0);
  EXPECT_NEAR(h.SumMicros(), 1003.5, 1e-9);
  EXPECT_NEAR(h.MeanMicros(), 1003.5 / 4.0, 1e-9);
}

TEST(HistogramTest, ZeroLandsInBucketZero) {
  Histogram h;
  h.Record(0.0);
  EXPECT_EQ(h.BucketCount(0), 1u);
  EXPECT_EQ(Histogram::BucketUpperMicros(0), 0.0);
  EXPECT_EQ(h.ApproxPercentileMicros(50), 0.0);
}

TEST(HistogramTest, NegativeAndNanClampToZero) {
  Histogram h;
  h.Record(-5.0);
  h.Record(std::nan(""));
  EXPECT_EQ(h.Count(), 2u);
  EXPECT_EQ(h.BucketCount(0), 2u);
  EXPECT_EQ(h.MaxMicros(), 0.0);
}

TEST(HistogramTest, BucketBoundariesArePowersOfTwoNanos) {
  // 1 us = 1000 ns: bit_width(1000) = 10, upper bound (2^10 - 1) ns.
  Histogram h;
  h.Record(1.0);
  EXPECT_EQ(h.BucketCount(10), 1u);
  EXPECT_NEAR(Histogram::BucketUpperMicros(10), 1.023, 1e-9);
}

// The histogram's contract versus the exact-percentile oracle the serving
// layer used to keep unbounded samples for: nearest-rank estimates are
// never below the exact percentile and always within a factor of two.
TEST(HistogramTest, PercentileWithinFactorTwoOfExact) {
  Histogram h;
  std::vector<double> samples;
  Rng rng(11);
  for (int i = 0; i < 500; ++i) {
    // Integer microseconds spanning five orders of magnitude, so several
    // log2 buckets participate and the nanos conversion is exact.
    const double s = static_cast<double>(1 + rng.Below(100000));
    samples.push_back(s);
    h.Record(s);
  }
  for (const double p : {1.0, 25.0, 50.0, 90.0, 95.0, 99.0, 100.0}) {
    const double exact = serve::Percentile(samples, p);
    const double estimate = h.ApproxPercentileMicros(p);
    EXPECT_GE(estimate, exact) << "p=" << p;
    EXPECT_LT(estimate, 2.0 * exact) << "p=" << p;
  }
}

TEST(HistogramTest, ResetZeroesEverything) {
  Histogram h;
  h.Record(3.0);
  h.Record(7.0);
  h.Reset();
  EXPECT_EQ(h.Count(), 0u);
  EXPECT_EQ(h.SumMicros(), 0.0);
  EXPECT_EQ(h.MinMicros(), 0.0);
  EXPECT_EQ(h.MaxMicros(), 0.0);
  EXPECT_EQ(h.ApproxPercentileMicros(99), 0.0);
}

TEST(RegistryTest, SameNameSameInstance) {
  MetricsRegistry& registry = MetricsRegistry::Global();
  Counter& a = registry.GetCounter("obs_test.same_name");
  Counter& b = registry.GetCounter("obs_test.same_name");
  EXPECT_EQ(&a, &b);
  Histogram& ha = registry.GetHistogram("obs_test.same_hist");
  Histogram& hb = registry.GetHistogram("obs_test.same_hist");
  EXPECT_EQ(&ha, &hb);
}

TEST(RegistryTest, FindHistogramOnlySeesRegistered) {
  MetricsRegistry& registry = MetricsRegistry::Global();
  EXPECT_EQ(registry.FindHistogram("obs_test.never_registered"), nullptr);
  Histogram& h = registry.GetHistogram("obs_test.findable");
  EXPECT_EQ(registry.FindHistogram("obs_test.findable"), &h);
}

TEST(RegistryTest, ResetValuesKeepsRegistrationsValid) {
  MetricsRegistry& registry = MetricsRegistry::Global();
  Counter& counter = registry.GetCounter("obs_test.reset_counter");
  Histogram& histogram = registry.GetHistogram("obs_test.reset_hist");
  counter.Add(5);
  histogram.Record(9.0);
  registry.ResetValues();
  // The same pointers read zero: registrations persist, values do not.
  EXPECT_EQ(counter.Value(), 0u);
  EXPECT_EQ(histogram.Count(), 0u);
}

TEST(TraceSpanTest, RecordsOnlyWhenEnabled) {
  MetricsRegistry& registry = MetricsRegistry::Global();
  Histogram& h = registry.GetHistogram("obs_test.span_hist");
  const uint64_t before = h.Count();

  registry.SetEnabled(false);
  { TraceSpan span(&h); }
  EXPECT_EQ(h.Count(), before);

  registry.SetEnabled(true);
  { TraceSpan span(&h); }
  registry.SetEnabled(false);
#ifdef DNLR_OBS_DISABLED
  // Compiled out: spans never record, even with the runtime switch on.
  EXPECT_EQ(h.Count(), before);
#else
  EXPECT_EQ(h.Count(), before + 1);
#endif
}

TEST(TraceSpanTest, NullHistogramAndDefaultConstructionAreNoOps) {
  MetricsRegistry& registry = MetricsRegistry::Global();
  registry.SetEnabled(true);
  {
    TraceSpan null_span(nullptr);
    TraceSpan default_span;
  }
  registry.SetEnabled(false);
}

TEST(TraceSpanTest, MacrosRecordSpanAndCount) {
  MetricsRegistry& registry = MetricsRegistry::Global();
  registry.SetEnabled(true);
  for (int i = 0; i < 3; ++i) {
    DNLR_OBS_SPAN(span, "obs_test.macro_span");
    DNLR_OBS_COUNT("obs_test.macro_count", 2);
  }
  registry.SetEnabled(false);
#ifdef DNLR_OBS_DISABLED
  EXPECT_EQ(registry.FindHistogram("obs_test.macro_span"), nullptr);
#else
  ASSERT_NE(registry.FindHistogram("obs_test.macro_span"), nullptr);
  EXPECT_EQ(registry.FindHistogram("obs_test.macro_span")->Count(), 3u);
  EXPECT_EQ(registry.GetCounter("obs_test.macro_count").Value(), 6u);
#endif
}

// The tentpole guarantee: instrumentation must never change a result. The
// GEMM is the deepest instrumented hot path (pack + kernel spans inside the
// macro-block loop), so identical C matrices here mean the spans only
// observe.
TEST(InstrumentationTest, GemmBitwiseIdenticalWithSpansEnabled) {
  MetricsRegistry& registry = MetricsRegistry::Global();
  Rng rng(21);
  mm::Matrix a(97, 53);
  mm::Matrix b(53, 41);
  a.FillUniform(rng);
  b.FillUniform(rng);

  mm::Matrix c_off(97, 41);
  registry.SetEnabled(false);
  mm::Gemm(a, b, &c_off);

  mm::Matrix c_on(97, 41);
  registry.SetEnabled(true);
  mm::Gemm(a, b, &c_on);
  registry.SetEnabled(false);

  ASSERT_EQ(c_off.size(), c_on.size());
  EXPECT_EQ(std::memcmp(c_off.data(), c_on.data(),
                        c_off.size() * sizeof(float)),
            0);
}

// Regression guard for the pre-packed weights: with spans on, scoring with
// both neural engines (serially and across a pool) multiplies through the
// GEMM, yet never packs A, because the weights were packed when the
// scorers were built. A plain GEMM still records A-packing, so the guard
// can fail.
TEST(InstrumentationTest, NeuralScorersNeverPackWeightsPerBatch) {
  MetricsRegistry& registry = MetricsRegistry::Global();
  const uint32_t features = 30;
  nn::Mlp mlp(predict::Architecture(features, {40, 20}), 5);
  mm::Matrix& w0 = mlp.layer(0).weight;
  for (size_t i = 0; i < w0.size(); ++i) {
    if (i % 3 != 0) w0.data()[i] = 0.0f;
  }
  common::ThreadPool pool(2);
  nn::NeuralScorerConfig config;
  config.batch_size = 16;
  const nn::NeuralScorer serial_dense(mlp, nullptr, config);
  const nn::HybridNeuralScorer serial_hybrid(mlp, nullptr, config);
  const forest::ParallelScorer pooled_dense(&serial_dense, &pool, 16);
  const forest::ParallelScorer pooled_hybrid(&serial_hybrid, &pool, 16);

  Rng rng(8);
  const uint32_t docs = 100;
  std::vector<float> features_in(static_cast<size_t>(docs) * features);
  for (float& x : features_in) x = static_cast<float>(rng.Normal());
  std::vector<float> scores(docs);

  Histogram& pack_a = registry.GetHistogram("mm.gemm.pack_a_us");
  Histogram& kernel = registry.GetHistogram("mm.gemm.kernel_us");
  const uint64_t pack_a_before = pack_a.Count();
  const uint64_t kernel_before = kernel.Count();
  registry.SetEnabled(true);
  const forest::DocumentScorer* const scorers[] = {
      &serial_dense, &serial_hybrid, &pooled_dense, &pooled_hybrid};
  for (const forest::DocumentScorer* scorer : scorers) {
    scorer->Score(features_in.data(), docs, features, scores.data());
  }
  registry.SetEnabled(false);
  EXPECT_EQ(pack_a.Count(), pack_a_before);

#ifndef DNLR_OBS_DISABLED
  EXPECT_GT(kernel.Count(), kernel_before);  // the spans were recording
  mm::Matrix a(12, 9);
  mm::Matrix b(9, 4);
  mm::Matrix c(12, 4);
  registry.SetEnabled(true);
  mm::Gemm(a, b, &c);
  registry.SetEnabled(false);
  EXPECT_GT(pack_a.Count(), pack_a_before);
#else
  (void)kernel_before;
#endif
}

// Wait-free recording must be lossless under contention: every Record from
// every thread lands in exactly one bucket and the aggregates agree.
TEST(ConcurrencyTest, ConcurrentRecordingIsLossless) {
  MetricsRegistry& registry = MetricsRegistry::Global();
  Histogram& h = registry.GetHistogram("obs_test.concurrent_hist");
  Counter& counter = registry.GetCounter("obs_test.concurrent_counter");
  constexpr int kThreads = 8;
  constexpr int kPerThread = 10000;

  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&h, &counter, t] {
      for (int i = 0; i < kPerThread; ++i) {
        h.Record(static_cast<double>(1 + (t + i) % 7));
        counter.Add();
      }
    });
  }
  for (std::thread& thread : threads) thread.join();

  const uint64_t expected = static_cast<uint64_t>(kThreads) * kPerThread;
  EXPECT_EQ(h.Count(), expected);
  EXPECT_EQ(counter.Value(), expected);
  uint64_t bucket_total = 0;
  for (size_t b = 0; b < Histogram::kNumBuckets; ++b) {
    bucket_total += h.BucketCount(b);
  }
  EXPECT_EQ(bucket_total, expected);
  EXPECT_EQ(h.MinMicros(), 1.0);
  EXPECT_EQ(h.MaxMicros(), 7.0);
}

// The measured per-span cost, the number the CI overhead gate rests on.
// The bound is deliberately loose (sanitizer builds run this too); the
// interesting output is the printed figure.
TEST(InstrumentationTest, SpanCostIsBounded) {
  MetricsRegistry& registry = MetricsRegistry::Global();
  Histogram& h = registry.GetHistogram("obs_test.overhead_hist");
  registry.SetEnabled(true);
  constexpr int kSpans = 100000;
  Timer timer;
  for (int i = 0; i < kSpans; ++i) {
    TraceSpan span(&h);
  }
  const double ns_per_span = timer.ElapsedMicros() * 1000.0 / kSpans;
  registry.SetEnabled(false);
  std::printf("span cost: %.1f ns\n", ns_per_span);
#ifndef DNLR_OBS_DISABLED
  EXPECT_EQ(h.Count(), static_cast<uint64_t>(kSpans));
#endif
  EXPECT_LT(ns_per_span, 20000.0);
}

TEST(JsonTest, RegistryExportIsSyntacticallyValid) {
  MetricsRegistry& registry = MetricsRegistry::Global();
  registry.GetCounter("obs_test.json_counter").Add(3);
  registry.GetGauge("obs_test.json_gauge").Set(-2.75);
  Histogram& h = registry.GetHistogram("obs_test.json_hist");
  h.Record(0.0);
  h.Record(12.0);
  h.Record(3500.0);

  const std::string json = registry.ToJson();
  EXPECT_EQ(CheckJsonSyntax(json), "") << json.substr(0, 200);
  EXPECT_NE(json.find("\"obs_test.json_counter\""), std::string::npos);
  EXPECT_NE(json.find("\"obs_test.json_gauge\""), std::string::npos);
  EXPECT_NE(json.find("\"obs_test.json_hist\""), std::string::npos);
}

TEST(JsonTest, CheckerAcceptsWellFormedValues) {
  EXPECT_EQ(CheckJsonSyntax("{}"), "");
  EXPECT_EQ(CheckJsonSyntax("[]"), "");
  EXPECT_EQ(CheckJsonSyntax("  {\"a\": [1, -2.5, 3e4], \"b\": null}  "), "");
  EXPECT_EQ(CheckJsonSyntax("\"esc \\\" \\\\ \\n \\u0041\""), "");
  EXPECT_EQ(CheckJsonSyntax("true"), "");
  EXPECT_EQ(CheckJsonSyntax("-0.125"), "");
  EXPECT_EQ(CheckJsonSyntax("{\"nested\": {\"deep\": [[{}]]}}"), "");
}

TEST(JsonTest, CheckerRejectsMalformedValues) {
  EXPECT_NE(CheckJsonSyntax(""), "");
  EXPECT_NE(CheckJsonSyntax("{"), "");
  EXPECT_NE(CheckJsonSyntax("[1,"), "");
  EXPECT_NE(CheckJsonSyntax("[1,]"), "");
  EXPECT_NE(CheckJsonSyntax("{\"a\"}"), "");
  EXPECT_NE(CheckJsonSyntax("{\"a\":}"), "");
  EXPECT_NE(CheckJsonSyntax("{\"a\": 1,}"), "");
  EXPECT_NE(CheckJsonSyntax("\"unterminated"), "");
  EXPECT_NE(CheckJsonSyntax("tru"), "");
  EXPECT_NE(CheckJsonSyntax("1 2"), "");  // trailing junk
  EXPECT_NE(CheckJsonSyntax("1."), "");
  EXPECT_NE(CheckJsonSyntax("1e"), "");
  // Depth cap: a pathological report must error, not smash the stack.
  std::string deep;
  for (int i = 0; i < 100; ++i) deep += '[';
  EXPECT_NE(CheckJsonSyntax(deep), "");
}

}  // namespace
}  // namespace dnlr::obs
