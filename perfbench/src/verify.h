#ifndef PERFBENCH_VERIFY_H_
#define PERFBENCH_VERIFY_H_

// Output check for the serve path. Every answered response is compared
// bitwise with the first response for the same (candidate set, stamped
// rung, model generation); after the window each such reference is scored
// again by calling that rung's TryScore directly on the serving generation
// and must match bit for bit. Cache hits are checked the same way, against
// the rung stamped on them.

#include <cstddef>
#include <cstdint>
#include <memory_resource>
#include <string>
#include <unordered_map>
#include <vector>

#include "fixture.h"
#include "serve/ladder.h"

namespace perfbench {

class ResponseChecker {
 public:
  // Reserves (and touches) room for `arena_floats` reference scores and
  // the bookkeeping of `max_references` references up front, so recording
  // during the window does not add to the memory the serve_heap_mb metric
  // reads. References past that go to the heap (see overflow_floats()).
  ResponseChecker(size_t arena_floats, size_t max_references);
  ResponseChecker(const ResponseChecker&) = delete;
  ResponseChecker& operator=(const ResponseChecker&) = delete;
  ResponseChecker(ResponseChecker&&) = delete;
  ResponseChecker& operator=(ResponseChecker&&) = delete;

  // Records one answered response. Not thread-safe: one checker per
  // collecting thread.
  void Record(const CandidateSet& set, int rung, uint64_t version,
              const float* scores, uint32_t count);

  // Rescores every reference on `ladder` (the generation that served them;
  // every recorded version must be that one) with up to `threads` threads.
  void Verify(const dnlr::serve::DegradationLadder& ladder, uint32_t stride,
              uint32_t threads);

  uint64_t answered() const { return answered_; }
  uint64_t wrong() const { return wrong_; }
  uint64_t references() const { return entries_.size(); }
  uint64_t overflow_floats() const { return overflow_floats_; }
  // First mismatch found, for the report ("" when none).
  const std::string& first_error() const { return first_error_; }

  // NDCG@10 of the recorded responses against their candidates' labels,
  // summed over judgeable responses (Verify fills it in).
  double ndcg_sum() const { return ndcg_sum_; }
  uint64_t ndcg_count() const { return ndcg_count_; }

 private:
  struct Key {
    uint64_t set = 0;
    int rung = -1;
    uint64_t version = 0;
    bool operator==(const Key&) const = default;
  };
  struct KeyHash {
    size_t operator()(const Key& k) const {
      return std::hash<uint64_t>()(k.set * 0x9E3779B97F4A7C15ull ^
                                   (k.version << 8) ^
                                   static_cast<uint64_t>(k.rung + 1));
    }
  };
  struct Entry {
    Key key;
    CandidateSet set;
    size_t offset = 0;          // into arena_ when heap is empty
    std::vector<float> heap;    // reference scores past the arena
    uint64_t matched = 0;       // responses equal to the reference
  };

  const float* Reference(const Entry& entry) const {
    return entry.heap.empty() ? arena_.data() + entry.offset
                              : entry.heap.data();
  }
  void Fail(const std::string& message, uint64_t responses);

  std::vector<float> arena_;
  size_t arena_used_ = 0;
  uint64_t overflow_floats_ = 0;
  std::vector<Entry> entries_;
  // The index's nodes come from a pre-touched pool, not the heap.
  std::vector<std::byte> pool_bytes_;
  std::pmr::monotonic_buffer_resource pool_;
  std::pmr::unordered_map<Key, size_t, KeyHash> index_;
  uint64_t answered_ = 0;
  uint64_t wrong_ = 0;
  std::string first_error_;
  double ndcg_sum_ = 0.0;
  uint64_t ndcg_count_ = 0;
};

}  // namespace perfbench

#endif  // PERFBENCH_VERIFY_H_
