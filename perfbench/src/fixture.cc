#include "fixture.h"

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <thread>
#include <utility>

#include "bundle/bundle.h"
#include "bundle/crc32.h"
#include "common/file_util.h"
#include "data/synthetic.h"
#include "metrics/metrics.h"

namespace perfbench {

using dnlr::Result;
using dnlr::Status;

namespace {

std::string JsonEscape(const std::string& text) {
  std::string out;
  for (const char c : text) {
    if (c == '"' || c == '\\') out.push_back('\\');
    if (static_cast<unsigned char>(c) >= 0x20) out.push_back(c);
  }
  return out;
}

}  // namespace

Result<Fixture> Fixture::Build(const std::string& root,
                               const std::string& out_dir) {
  Fixture fixture;
  Result<dnlr::nn::Mlp> student =
      dnlr::nn::Mlp::LoadFromFile(root + "/" + kStudentModel);
  if (!student.ok()) return student.status();
  Result<dnlr::gbdt::Ensemble> teacher =
      dnlr::gbdt::Ensemble::LoadFromFile(root + "/" + kTeacherModel);
  if (!teacher.ok()) return teacher.status();
  fixture.student_.emplace(std::move(student).value());
  fixture.teacher_ = std::move(teacher).value();

  const dnlr::data::DatasetSplits splits = dnlr::data::GenerateSyntheticSplits(
      dnlr::data::SyntheticConfig::MsnLike(kDatasetScale));
  fixture.normalizer_.Fit(splits.train);
  const dnlr::data::Dataset& test = splits.test;
  const uint32_t nf = test.num_features();
  fixture.num_features_ = nf;
  if (fixture.student_->arch().input_dim != nf) {
    return Status::InvalidArgument("student input width does not match the "
                                   "MsnLike feature count");
  }

  dnlr::bundle::ModelBundle pack;
  DNLR_RETURN_IF_ERROR(pack.SetTeacher(fixture.teacher_));
  DNLR_RETURN_IF_ERROR(pack.SetStudent(*fixture.student_));
  DNLR_RETURN_IF_ERROR(pack.SetNormalizer(fixture.normalizer_));
  dnlr::bundle::RungConfig rungs;
  rungs.rungs = {{"student", "student", kStudentUsPerDoc},
                 {"cascade", "cascade", kCascadeUsPerDoc},
                 {"teacher-subset", "teacher-subset", kSubsetUsPerDoc}};
  DNLR_RETURN_IF_ERROR(pack.SetRungs(rungs));
  Result<std::string> bytes =
      pack.SerializeAs(dnlr::bundle::BundleFormat::kBinary);
  if (!bytes.ok()) return bytes.status();
  std::error_code mkdir_error;
  std::filesystem::create_directories(out_dir, mkdir_error);
  if (mkdir_error) {
    return Status::IoError("cannot create " + out_dir + ": " +
                           mkdir_error.message());
  }
  fixture.bundle_path_ = out_dir + "/msn_serve.dnlrb";
  fixture.bundle_bytes_ = bytes->size();
  fixture.bundle_crc_ = dnlr::bundle::Crc32(*bytes);
  Result<std::string> existing =
      dnlr::ReadFileToString(fixture.bundle_path_);
  if (!existing.ok() || *existing != *bytes) {
    DNLR_RETURN_IF_ERROR(dnlr::AtomicWriteFile(fixture.bundle_path_, *bytes));
  }

  // Tile every judgeable test query into a region long enough for any
  // rotation of the largest candidate set: region row j is query row
  // j % query_docs, so set (q, r, n) is the contiguous rows [r, r + n).
  std::vector<uint32_t> judgeable;
  size_t total_rows = 0;
  for (uint32_t q = 0; q < test.num_queries(); ++q) {
    const uint32_t docs = test.QuerySize(q);
    const std::span<const float> labels(
        test.labels().data() + test.QueryBegin(q), docs);
    if (docs == 0 || dnlr::metrics::IdealDcg(labels, 10) <= 0.0) continue;
    judgeable.push_back(q);
    total_rows += static_cast<size_t>(docs) + kMaxDocs;
  }
  fixture.tile_features_.reserve(total_rows * nf);
  fixture.tile_labels_.reserve(total_rows);
  for (const uint32_t q : judgeable) {
    const uint32_t begin = test.QueryBegin(q);
    const uint32_t docs = test.QuerySize(q);
    Region region;
    region.first_row = fixture.tile_labels_.size();
    region.query_docs = docs;
    const size_t rows = static_cast<size_t>(docs) + kMaxDocs;
    for (size_t j = 0; j < rows; ++j) {
      const uint32_t doc = begin + static_cast<uint32_t>(j % docs);
      const float* row = test.Row(doc);
      fixture.tile_features_.insert(fixture.tile_features_.end(), row,
                                    row + nf);
      fixture.tile_labels_.push_back(test.Label(doc));
    }
    fixture.regions_.push_back(region);
  }
  if (fixture.regions_.empty()) {
    return Status::InvalidArgument("test split has no judgeable query");
  }
  return fixture;
}

CandidateSet Fixture::Set(uint32_t key, uint32_t count) const {
  const uint32_t q = key % num_queries();
  const Region& region = regions_[q];
  const uint32_t rotation = (key / num_queries()) % region.query_docs;
  const size_t row = region.first_row + rotation;
  CandidateSet set;
  set.id = (static_cast<uint64_t>(q) << 40) |
           (static_cast<uint64_t>(rotation) << 20) | count;
  set.docs = tile_features_.data() + row * num_features_;
  set.labels = tile_labels_.data() + row;
  set.count = std::min(count, kMaxDocs);
  return set;
}

std::string EnvironmentJson(const std::string& source_id) {
  std::string model;
  std::string flags;
  std::ifstream cpuinfo("/proc/cpuinfo");
  for (std::string line; std::getline(cpuinfo, line);) {
    const size_t colon = line.find(':');
    if (colon == std::string::npos || colon + 2 > line.size()) continue;
    const std::string value = line.substr(colon + 2);
    if (model.empty() && line.rfind("model name", 0) == 0) model = value;
    if (flags.empty() && line.rfind("flags", 0) == 0) flags = value;
  }
  std::ostringstream json;
  json << "{\"cpu_model\": \"" << JsonEscape(model) << "\", \"cpu_flags\": \""
       << JsonEscape(flags)
       << "\", \"nproc\": " << std::thread::hardware_concurrency()
       << ", \"compiler\": \"" << JsonEscape(PERFBENCH_CXX_COMPILER)
       << "\", \"build_type\": \"" << JsonEscape(PERFBENCH_BUILD_TYPE)
       << "\", \"source\": \"" << JsonEscape(source_id) << "\"}";
  return json.str();
}

bool IsReleaseBuild() {
#ifdef NDEBUG
  return std::string(PERFBENCH_BUILD_TYPE) == "Release";
#else
  return false;
#endif
}

}  // namespace perfbench
