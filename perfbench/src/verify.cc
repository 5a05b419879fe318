#include "verify.h"

#include <algorithm>
#include <cstring>
#include <span>
#include <thread>

#include "metrics/metrics.h"

namespace perfbench {

ResponseChecker::ResponseChecker(size_t arena_floats, size_t max_references)
    : arena_(arena_floats, 0.0f),
      // Room for each index node (key, value, hash and link; 64 bytes is
      // generous) plus the bucket arrays of its growth.
      pool_bytes_(max_references * 96 + 4096),
      pool_(pool_bytes_.data(), pool_bytes_.size()),
      index_(&pool_) {
  entries_.reserve(max_references);
  index_.reserve(max_references);
}

void ResponseChecker::Fail(const std::string& message, uint64_t responses) {
  wrong_ += responses;
  if (first_error_.empty()) first_error_ = message;
}

void ResponseChecker::Record(const CandidateSet& set, int rung,
                             uint64_t version, const float* scores,
                             uint32_t count) {
  ++answered_;
  if (count != set.count) {
    Fail("response carries " + std::to_string(count) + " scores for " +
             std::to_string(set.count) + " candidates",
         1);
    return;
  }
  const Key key{set.id, rung, version};
  const auto [it, inserted] = index_.try_emplace(key, entries_.size());
  if (!inserted) {
    Entry& entry = entries_[it->second];
    if (std::memcmp(Reference(entry), scores, count * sizeof(float)) != 0) {
      Fail("response differs from an earlier response for set " +
               std::to_string(set.id) + " on rung " + std::to_string(rung),
           1);
    } else {
      ++entry.matched;
    }
    return;
  }
  Entry entry;
  entry.key = key;
  entry.set = set;
  entry.matched = 1;
  if (arena_used_ + count <= arena_.size()) {
    entry.offset = arena_used_;
    std::memcpy(arena_.data() + arena_used_, scores, count * sizeof(float));
    arena_used_ += count;
  } else {
    entry.heap.assign(scores, scores + count);
    overflow_floats_ += count;
  }
  entries_.push_back(std::move(entry));
}

void ResponseChecker::Verify(const dnlr::serve::DegradationLadder& ladder,
                             uint32_t stride, uint32_t threads) {
  // Per entry: 0 = scores match, 1 = mismatch, 2 = rescoring failed or bad
  // stamp. Threads write disjoint slots.
  std::vector<uint8_t> verdict(entries_.size(), 0);
  std::vector<double> ndcg(entries_.size(), dnlr::metrics::kInvalidQuery);
  const uint64_t version = entries_.empty() ? 0 : entries_[0].key.version;
  const auto work = [&](size_t begin, size_t step) {
    std::vector<float> rescored;
    for (size_t i = begin; i < entries_.size(); i += step) {
      const Entry& entry = entries_[i];
      const int rung = entry.key.rung;
      if (rung < 0 || static_cast<size_t>(rung) >= ladder.num_rungs() ||
          entry.key.version != version) {
        verdict[i] = 2;
        continue;
      }
      rescored.assign(entry.set.count, 0.0f);
      const dnlr::Status status =
          ladder.rung(static_cast<size_t>(rung))
              .scorer->TryScore(entry.set.docs, entry.set.count, stride,
                                rescored.data());
      if (!status.ok()) {
        verdict[i] = 2;
        continue;
      }
      const float* reference = Reference(entry);
      if (std::memcmp(reference, rescored.data(),
                      entry.set.count * sizeof(float)) != 0) {
        verdict[i] = 1;
        continue;
      }
      ndcg[i] = dnlr::metrics::Ndcg(
          std::span<const float>(entry.set.labels, entry.set.count),
          std::span<const float>(reference, entry.set.count), 10);
    }
  };
  threads = std::max<uint32_t>(1, threads);
  {
    std::vector<std::jthread> pool;  // joined on scope exit
    for (uint32_t t = 1; t < threads; ++t) pool.emplace_back(work, t, threads);
    work(0, threads);
  }

  for (size_t i = 0; i < entries_.size(); ++i) {
    const Entry& entry = entries_[i];
    if (verdict[i] == 1) {
      Fail("rescoring set " + std::to_string(entry.set.id) + " on rung " +
               std::to_string(entry.key.rung) +
               " differs from the served scores",
           entry.matched);
    } else if (verdict[i] == 2) {
      Fail("set " + std::to_string(entry.set.id) +
               " carries an unusable rung/generation stamp",
           entry.matched);
    } else if (ndcg[i] != dnlr::metrics::kInvalidQuery) {
      ndcg_sum_ += ndcg[i] * static_cast<double>(entry.matched);
      ndcg_count_ += entry.matched;
    }
  }
}

}  // namespace perfbench
