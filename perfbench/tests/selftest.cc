// The benchmark's own tests: exact percentiles, span self time, and the
// output check rejecting a response with one flipped bit. Run with
// `python3 perfbench/run.py --self-test` (or the built perfbench_selftest).

#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <vector>

#include "serve/ladder.h"
#include "stats.h"
#include "trace.h"
#include "verify.h"

namespace perfbench {
namespace {

int failures = 0;

#define EXPECT(cond)                                                   \
  do {                                                                 \
    if (!(cond)) {                                                     \
      std::fprintf(stderr, "%s:%d: expected %s\n", __FILE__, __LINE__, \
                   #cond);                                             \
      ++failures;                                                      \
    }                                                                  \
  } while (0)

// Deterministic stand-in rung: the score of a document is the sum of its
// features.
class SumScorer : public dnlr::serve::FallibleScorer {
 public:
  std::string_view name() const override { return "sum"; }
  dnlr::Status TryScore(const float* docs, uint32_t count, uint32_t stride,
                        float* out) const override {
    for (uint32_t d = 0; d < count; ++d) {
      float sum = 0.0f;
      for (uint32_t f = 0; f < stride; ++f) sum += docs[d * stride + f];
      out[d] = sum;
    }
    return dnlr::Status::Ok();
  }
};

constexpr uint32_t kStride = 4;
constexpr uint32_t kDocs = 8;

struct Case {
  std::vector<float> docs;
  std::vector<float> labels;
  CandidateSet set;
  std::vector<float> scores;
};

Case MakeCase(uint64_t id) {
  Case c;
  for (uint32_t i = 0; i < kDocs * kStride; ++i) {
    c.docs.push_back(0.25f * static_cast<float>(i % 7) + 0.1f * id);
  }
  for (uint32_t d = 0; d < kDocs; ++d) c.labels.push_back(d % 3 == 0 ? 2 : 0);
  c.set = {id, c.docs.data(), c.labels.data(), kDocs};
  c.scores.resize(kDocs);
  (void)SumScorer().TryScore(c.docs.data(), kDocs, kStride, c.scores.data());
  return c;
}

std::vector<float> FlipOneBit(std::vector<float> scores, size_t doc,
                              int bit) {
  uint32_t bits = std::bit_cast<uint32_t>(scores[doc]);
  bits ^= 1u << bit;
  scores[doc] = std::bit_cast<float>(bits);
  return scores;
}

void TestPercentileIsExact() {
  std::vector<double> samples;
  for (int i = 100; i >= 1; --i) samples.push_back(i);
  EXPECT(Percentile(samples, 50.0) == 50.0);
  EXPECT(Percentile(samples, 99.0) == 99.0);
  EXPECT(Percentile(samples, 100.0) == 100.0);
  EXPECT(Percentile(samples, 0.0) == 1.0);
  EXPECT(Percentile({7.5}, 99.0) == 7.5);
  EXPECT(Percentile({}, 50.0) == 0.0);
  // Never above the observed maximum, whatever the spread.
  EXPECT(Percentile({1.0, 2.0, 6121.0}, 95.0) == 6121.0);
}

void TestSelfTime() {
  SpanLog log;
  const uint64_t root = log.Add(0, 1, "request", 0, 100);
  log.Add(root, 1, "child", 10, 30);
  log.Add(root, 1, "child", 20, 50);  // overlaps the first child
  for (const SpanLog::LayerTime& t : log.SelfTimes()) {
    if (t.name == "request") {
      EXPECT(std::abs(t.total_s - 100e-9) < 1e-15);
      EXPECT(std::abs(t.self_s - 60e-9) < 1e-15);
    } else {
      EXPECT(t.count == 2);
    }
  }
}

dnlr::serve::DegradationLadder OneRungLadder(const SumScorer* scorer) {
  dnlr::serve::DegradationLadder ladder;
  EXPECT(ladder.AddRung("sum", scorer, 1.0).ok());
  return ladder;
}

void TestCorrectResponsesPass() {
  const SumScorer scorer;
  const auto ladder = OneRungLadder(&scorer);
  const Case a = MakeCase(1);
  const Case b = MakeCase(2);
  ResponseChecker checker(64, 1);
  checker.Record(a.set, 0, 1, a.scores.data(), kDocs);
  checker.Record(a.set, 0, 1, a.scores.data(), kDocs);  // e.g. a cache hit
  checker.Record(b.set, 0, 1, b.scores.data(), kDocs);  // past the arena
  checker.Verify(ladder, kStride, 2);
  EXPECT(checker.answered() == 3);
  EXPECT(checker.wrong() == 0);
  EXPECT(checker.references() == 2);
  EXPECT(checker.ndcg_count() == 3);
}

void TestFlippedBitInRepeatIsRejected() {
  const SumScorer scorer;
  const auto ladder = OneRungLadder(&scorer);
  const Case a = MakeCase(1);
  const std::vector<float> bad = FlipOneBit(a.scores, 3, 0);
  ResponseChecker checker(1024, 4);
  checker.Record(a.set, 0, 1, a.scores.data(), kDocs);
  checker.Record(a.set, 0, 1, bad.data(), kDocs);
  checker.Verify(ladder, kStride, 1);
  EXPECT(checker.wrong() == 1);
  EXPECT(!checker.first_error().empty());
}

void TestFlippedBitInFirstResponseIsRejected() {
  const SumScorer scorer;
  const auto ladder = OneRungLadder(&scorer);
  for (const int bit : {0, 22, 31}) {
    const Case a = MakeCase(5);
    const std::vector<float> bad = FlipOneBit(a.scores, 0, bit);
    ResponseChecker checker(1024, 4);
    checker.Record(a.set, 0, 1, bad.data(), kDocs);
    checker.Verify(ladder, kStride, 1);
    EXPECT(checker.wrong() == 1);
  }
}

void TestBadStampIsRejected() {
  const SumScorer scorer;
  const auto ladder = OneRungLadder(&scorer);
  const Case a = MakeCase(1);
  ResponseChecker checker(1024, 4);
  checker.Record(a.set, 3, 1, a.scores.data(), kDocs);  // no rung 3
  checker.Record(a.set, 0, 1, a.scores.data(), kDocs - 1);  // short answer
  checker.Verify(ladder, kStride, 1);
  EXPECT(checker.wrong() == 2);
}

}  // namespace
}  // namespace perfbench

int main() {
  perfbench::TestPercentileIsExact();
  perfbench::TestSelfTime();
  perfbench::TestCorrectResponsesPass();
  perfbench::TestFlippedBitInRepeatIsRejected();
  perfbench::TestFlippedBitInFirstResponseIsRejected();
  perfbench::TestBadStampIsRejected();
  if (perfbench::failures != 0) {
    std::fprintf(stderr, "perfbench_selftest: %d failure(s)\n",
                 perfbench::failures);
    return 1;
  }
  std::fprintf(stderr, "perfbench_selftest: all checks passed\n");
  return 0;
}
