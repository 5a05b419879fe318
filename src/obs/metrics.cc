#include "obs/metrics.h"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <sstream>
#include <vector>

namespace dnlr::obs {
namespace {

/// Relaxed-CAS update of a running minimum: atomicity keeps the extremum
/// exact under contention, and no other data is published through it.
void UpdateMin(std::atomic<uint64_t>& slot, uint64_t value) {
  uint64_t current = slot.load(std::memory_order_relaxed);
  while (value < current &&
         !slot.compare_exchange_weak(current, value,
                                     std::memory_order_relaxed)) {
  }
}

// Relaxed CAS as above: the extremum is a standalone statistic; the loop
// re-reads on failure so no ordering stronger than atomicity is needed.
void UpdateMax(std::atomic<uint64_t>& slot, uint64_t value) {
  uint64_t current = slot.load(std::memory_order_relaxed);
  while (value > current &&
         !slot.compare_exchange_weak(current, value,
                                     std::memory_order_relaxed)) {
  }
}

/// Fixed-precision double for JSON (never scientific notation, no locale).
std::string JsonNumber(double value, int precision = 3) {
  if (!std::isfinite(value)) return "0";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*f", precision, value);
  return buf;
}

}  // namespace

std::string JsonString(std::string_view s) {
  std::string out = "\"";
  for (const char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  out += '"';
  return out;
}

void Histogram::Record(double micros) {
  // Clamp instead of checking: a coarse clock can measure 0, and feeding a
  // histogram must never abort a serving thread.
  if (!(micros > 0.0)) micros = 0.0;
  const double nanos_d = micros * 1000.0;
  const uint64_t nanos =
      nanos_d >= 1.8e19 ? UINT64_MAX : static_cast<uint64_t>(nanos_d);
  // Relaxed ordering throughout: each aggregate is an independent
  // statistic; readers accept per-field (not cross-field) consistency.
  buckets_[BucketOf(nanos)].fetch_add(1, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
  sum_nanos_.fetch_add(nanos, std::memory_order_relaxed);
  UpdateMin(min_nanos_, nanos);
  UpdateMax(max_nanos_, nanos);
}

// Relaxed loads: extrema are standalone statistics and may lag concurrent
// Record calls by design.
double Histogram::MinMicros() const {
  const uint64_t nanos = min_nanos_.load(std::memory_order_relaxed);
  return nanos == UINT64_MAX ? 0.0 : static_cast<double>(nanos) * 1e-3;
}

double Histogram::MaxMicros() const {
  return static_cast<double>(max_nanos_.load(std::memory_order_relaxed)) *
         1e-3;
}

double Histogram::BucketUpperMicros(size_t b) {
  if (b == 0) return 0.0;
  const uint64_t upper =
      b >= 64 ? UINT64_MAX : (uint64_t{1} << b) - 1;
  return static_cast<double>(upper) * 1e-3;
}

double Histogram::ApproxPercentileMicros(double p) const {
  if (p < 0.0) p = 0.0;
  if (p > 100.0) p = 100.0;
  const uint64_t total = Count();
  if (total == 0) return 0.0;
  // Nearest-rank: the rank-th smallest sample, rank in [1, total].
  const auto rank = std::max<uint64_t>(
      1, static_cast<uint64_t>(
             std::ceil(p / 100.0 * static_cast<double>(total))));
  uint64_t seen = 0;
  for (size_t b = 0; b < kNumBuckets; ++b) {
    seen += BucketCount(b);
    if (seen >= rank) return BucketUpperMicros(b);
  }
  return MaxMicros();  // racing recorders moved the total; fall back
}

void Histogram::Reset() {
  for (auto& bucket : buckets_) bucket.store(0, std::memory_order_relaxed);
  count_.store(0, std::memory_order_relaxed);
  sum_nanos_.store(0, std::memory_order_relaxed);
  min_nanos_.store(UINT64_MAX, std::memory_order_relaxed);
  max_nanos_.store(0, std::memory_order_relaxed);
}

MetricsRegistry& MetricsRegistry::Global() {
  // Intentionally leaked so metrics outlive every static destructor.
  // NOLINTNEXTLINE(dnlr-raw-alloc): deliberate never-freed singleton
  static MetricsRegistry* registry = new MetricsRegistry();
  return *registry;
}

Counter& MetricsRegistry::GetCounter(std::string_view name) {
  common::MutexLock lock(mu_);
  auto it = counters_.find(name);
  if (it == counters_.end()) {
    it = counters_.emplace(std::string(name), std::make_unique<Counter>())
             .first;
  }
  return *it->second;
}

Gauge& MetricsRegistry::GetGauge(std::string_view name) {
  common::MutexLock lock(mu_);
  auto it = gauges_.find(name);
  if (it == gauges_.end()) {
    it = gauges_.emplace(std::string(name), std::make_unique<Gauge>()).first;
  }
  return *it->second;
}

Histogram& MetricsRegistry::GetHistogram(std::string_view name) {
  common::MutexLock lock(mu_);
  auto it = histograms_.find(name);
  if (it == histograms_.end()) {
    it = histograms_.emplace(std::string(name), std::make_unique<Histogram>())
             .first;
  }
  return *it->second;
}

const Histogram* MetricsRegistry::FindHistogram(std::string_view name) const {
  common::MutexLock lock(mu_);
  const auto it = histograms_.find(name);
  return it == histograms_.end() ? nullptr : it->second.get();
}

std::string MetricsRegistry::ToJson() const {
  common::MutexLock lock(mu_);
  std::ostringstream json;
  json << "{\n  \"enabled\": " << (enabled() ? "true" : "false") << ",\n";

  json << "  \"counters\": [";
  bool first = true;
  for (const auto& [name, counter] : counters_) {
    json << (first ? "\n" : ",\n") << "    {\"name\": " << JsonString(name)
         << ", \"value\": " << counter->Value() << "}";
    first = false;
  }
  json << (first ? "" : "\n  ") << "],\n";

  json << "  \"gauges\": [";
  first = true;
  for (const auto& [name, gauge] : gauges_) {
    json << (first ? "\n" : ",\n") << "    {\"name\": " << JsonString(name)
         << ", \"value\": " << JsonNumber(gauge->Value(), 6) << "}";
    first = false;
  }
  json << (first ? "" : "\n  ") << "],\n";

  json << "  \"histograms\": [";
  first = true;
  for (const auto& [name, histogram] : histograms_) {
    json << (first ? "\n" : ",\n") << "    {\"name\": " << JsonString(name)
         << ", \"count\": " << histogram->Count()
         << ", \"sum_us\": " << JsonNumber(histogram->SumMicros())
         << ", \"mean_us\": " << JsonNumber(histogram->MeanMicros())
         << ", \"min_us\": " << JsonNumber(histogram->MinMicros())
         << ", \"max_us\": " << JsonNumber(histogram->MaxMicros())
         << ", \"p50_us\": "
         << JsonNumber(histogram->ApproxPercentileMicros(50))
         << ", \"p95_us\": "
         << JsonNumber(histogram->ApproxPercentileMicros(95))
         << ", \"p99_us\": "
         << JsonNumber(histogram->ApproxPercentileMicros(99))
         << ", \"buckets\": [";
    bool first_bucket = true;
    for (size_t b = 0; b < Histogram::kNumBuckets; ++b) {
      const uint64_t bucket_count = histogram->BucketCount(b);
      if (bucket_count == 0) continue;
      json << (first_bucket ? "" : ", ") << "{\"le_us\": "
           << JsonNumber(Histogram::BucketUpperMicros(b))
           << ", \"count\": " << bucket_count << "}";
      first_bucket = false;
    }
    json << "]}";
    first = false;
  }
  json << (first ? "" : "\n  ") << "]\n}";
  return json.str();
}

void MetricsRegistry::ResetValues() {
  common::MutexLock lock(mu_);
  for (const auto& [name, counter] : counters_) counter->Reset();
  for (const auto& [name, gauge] : gauges_) gauge->Reset();
  for (const auto& [name, histogram] : histograms_) histogram->Reset();
}

namespace {

/// Minimal recursive-descent JSON syntax checker (RFC 8259 grammar, no DOM
/// built, 64-deep nesting cap). Enough to guarantee an exported report
/// parses without pulling in a JSON dependency.
class JsonChecker {
 public:
  explicit JsonChecker(std::string_view text) : text_(text) {}

  std::string Check() {
    SkipWhitespace();
    if (!Value(0)) return Error();
    SkipWhitespace();
    if (pos_ != text_.size()) {
      error_ = "trailing content";
      return Error();
    }
    return "";
  }

 private:
  static constexpr int kMaxDepth = 64;

  std::string Error() const {
    return (error_.empty() ? std::string("malformed JSON") : error_) +
           " at byte " + std::to_string(pos_);
  }

  bool Eof() const { return pos_ >= text_.size(); }
  char Peek() const { return text_[pos_]; }

  void SkipWhitespace() {
    while (!Eof() && (Peek() == ' ' || Peek() == '\t' || Peek() == '\n' ||
                      Peek() == '\r')) {
      ++pos_;
    }
  }

  bool Literal(std::string_view word) {
    if (text_.substr(pos_, word.size()) != word) {
      error_ = "bad literal";
      return false;
    }
    pos_ += word.size();
    return true;
  }

  bool String() {
    if (Eof() || Peek() != '"') {
      error_ = "expected string";
      return false;
    }
    ++pos_;
    while (!Eof() && Peek() != '"') {
      if (static_cast<unsigned char>(Peek()) < 0x20) {
        error_ = "raw control byte in string";
        return false;
      }
      if (Peek() == '\\') {
        ++pos_;
        if (Eof()) break;
        const char escape = Peek();
        if (escape == 'u') {
          for (int i = 0; i < 4; ++i) {
            ++pos_;
            if (Eof() || std::isxdigit(static_cast<unsigned char>(Peek())) == 0) {
              error_ = "bad \\u escape";
              return false;
            }
          }
        } else if (std::string_view("\"\\/bfnrt").find(escape) ==
                   std::string_view::npos) {
          error_ = "bad escape";
          return false;
        }
      }
      ++pos_;
    }
    if (Eof()) {
      error_ = "unterminated string";
      return false;
    }
    ++pos_;  // closing quote
    return true;
  }

  bool Number() {
    const size_t start = pos_;
    if (!Eof() && Peek() == '-') ++pos_;
    size_t digits = 0;
    while (!Eof() && std::isdigit(static_cast<unsigned char>(Peek())) != 0) {
      ++pos_;
      ++digits;
    }
    if (digits == 0) {
      error_ = "expected number";
      pos_ = start;
      return false;
    }
    if (!Eof() && Peek() == '.') {
      ++pos_;
      digits = 0;
      while (!Eof() && std::isdigit(static_cast<unsigned char>(Peek())) != 0) {
        ++pos_;
        ++digits;
      }
      if (digits == 0) {
        error_ = "digits required after decimal point";
        return false;
      }
    }
    if (!Eof() && (Peek() == 'e' || Peek() == 'E')) {
      ++pos_;
      if (!Eof() && (Peek() == '+' || Peek() == '-')) ++pos_;
      digits = 0;
      while (!Eof() && std::isdigit(static_cast<unsigned char>(Peek())) != 0) {
        ++pos_;
        ++digits;
      }
      if (digits == 0) {
        error_ = "digits required in exponent";
        return false;
      }
    }
    return true;
  }

  bool Value(int depth) {
    if (depth > kMaxDepth) {
      error_ = "nesting too deep";
      return false;
    }
    SkipWhitespace();
    if (Eof()) {
      error_ = "expected value";
      return false;
    }
    switch (Peek()) {
      case '{':
        return Object(depth);
      case '[':
        return Array(depth);
      case '"':
        return String();
      case 't':
        return Literal("true");
      case 'f':
        return Literal("false");
      case 'n':
        return Literal("null");
      default:
        return Number();
    }
  }

  bool Object(int depth) {
    ++pos_;  // '{'
    SkipWhitespace();
    if (!Eof() && Peek() == '}') {
      ++pos_;
      return true;
    }
    for (;;) {
      SkipWhitespace();
      if (!String()) return false;
      SkipWhitespace();
      if (Eof() || Peek() != ':') {
        error_ = "expected ':'";
        return false;
      }
      ++pos_;
      if (!Value(depth + 1)) return false;
      SkipWhitespace();
      if (!Eof() && Peek() == ',') {
        ++pos_;
        continue;
      }
      if (!Eof() && Peek() == '}') {
        ++pos_;
        return true;
      }
      error_ = "expected ',' or '}'";
      return false;
    }
  }

  bool Array(int depth) {
    ++pos_;  // '['
    SkipWhitespace();
    if (!Eof() && Peek() == ']') {
      ++pos_;
      return true;
    }
    for (;;) {
      if (!Value(depth + 1)) return false;
      SkipWhitespace();
      if (!Eof() && Peek() == ',') {
        ++pos_;
        continue;
      }
      if (!Eof() && Peek() == ']') {
        ++pos_;
        return true;
      }
      error_ = "expected ',' or ']'";
      return false;
    }
  }

  std::string_view text_;
  size_t pos_ = 0;
  std::string error_;
};

}  // namespace

std::string CheckJsonSyntax(std::string_view text) {
  return JsonChecker(text).Check();
}

}  // namespace dnlr::obs
