#ifndef PERFBENCH_FIXTURE_H_
#define PERFBENCH_FIXTURE_H_

// The benchmark's fixture: one binary model bundle packed from committed
// models, plus the candidate sets every workload draws from. Built the same
// way on every run (a pure function of the committed files), and never part
// of any timed metric.

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "common/status.h"
#include "data/normalize.h"
#include "gbdt/ensemble.h"
#include "nn/mlp.h"

namespace perfbench {

// Committed models at the paper's MSN shapes: the hybrid student with a 97%
// sparse first layer, and its LambdaMART teacher.
inline constexpr char kStudentModel[] =
    "bench_cache/msn_net_200x100x100x50_t256_p97_s0.5.mlp";
inline constexpr char kTeacherModel[] =
    "bench_cache/msn_f80x64_s0.5.ensemble";
inline constexpr double kDatasetScale = 0.5;

// Ladder rung costs in microseconds per document, fixed here so no per-run
// calibration can change a ladder decision. Each is the rung's measured
// cost weighted over the default size mix {10 x 0.3, 128 x 0.55,
// 1024 x 0.15} by documents, from the traced run's
// rung.<name>.us_per_doc.n* figures on web-mix and peak-overload (4-core
// AVX-512 Xeon virtual machine, gcc 12, Release). The cascade is cheaper
// than the student by less than its subset stage suggests: it scores every
// document with the subset and a quarter of them with the student.
inline constexpr double kStudentUsPerDoc = 3.0;
inline constexpr double kCascadeUsPerDoc = 2.8;
inline constexpr double kSubsetUsPerDoc = 1.9;

// One candidate set: `count` feature rows of one test query, rotated by
// `rotation` rows and tiled, with the rows' relevance labels alongside.
struct CandidateSet {
  uint64_t id = 0;
  const float* docs = nullptr;
  const float* labels = nullptr;
  uint32_t count = 0;
};

class Fixture {
 public:
  // Loads the committed models from `root`, fits the normalizer on the
  // MsnLike(kDatasetScale) train split, packs the binary bundle into
  // `out_dir` (rewritten only when its bytes change) and tiles the test
  // split into candidate regions.
  static dnlr::Result<Fixture> Build(const std::string& root,
                                     const std::string& out_dir);

  // Candidate set of workload key `key` at `count` documents: test query
  // key % num_queries(), rotated by (key / num_queries()) rows.
  CandidateSet Set(uint32_t key, uint32_t count) const;

  uint32_t num_queries() const {
    return static_cast<uint32_t>(regions_.size());
  }
  uint32_t num_features() const { return num_features_; }
  // Largest candidate set a region can serve.
  static constexpr uint32_t kMaxDocs = 1024;

  const std::string& bundle_path() const { return bundle_path_; }
  uint64_t bundle_bytes() const { return bundle_bytes_; }
  uint32_t bundle_crc() const { return bundle_crc_; }
  const dnlr::nn::Mlp& student() const { return *student_; }
  const dnlr::gbdt::Ensemble& teacher() const { return teacher_; }
  const dnlr::data::ZNormalizer& normalizer() const { return normalizer_; }

 private:
  struct Region {
    size_t first_row = 0;  // row offset into tile_features_ / tile_labels_
    uint32_t query_docs = 0;
  };

  Fixture() = default;

  uint32_t num_features_ = 0;
  std::string bundle_path_;
  uint64_t bundle_bytes_ = 0;
  uint32_t bundle_crc_ = 0;
  std::optional<dnlr::nn::Mlp> student_;
  dnlr::gbdt::Ensemble teacher_;
  dnlr::data::ZNormalizer normalizer_;
  std::vector<Region> regions_;
  std::vector<float> tile_features_;
  std::vector<float> tile_labels_;
};

// Machine and build description recorded with every report: CPU model and
// flags, hardware threads, compiler, build type and the caller-supplied
// source identity (git sha or tree digest). One JSON object.
std::string EnvironmentJson(const std::string& source_id);

// True for an optimized Release build; numbers from any other build are
// refused.
bool IsReleaseBuild();

}  // namespace perfbench

#endif  // PERFBENCH_FIXTURE_H_
