#include "bundle/mapped_bundle.h"

#include <string>
#include <utility>

#include "bundle/crc32.h"

namespace dnlr::bundle {
namespace {

/// NotFound for an absent section, else the binary codec's decode of it.
template <typename T>
Result<T> Decode(const MappedBundle& bundle, const char* section,
                 Result<T> (*decode)(std::string_view)) {
  if (!bundle.HasSection(section)) {
    return Status::NotFound(std::string("bundle has no ") + section +
                            " section");
  }
  return decode(bundle.FindSectionView(section));
}

}  // namespace

Result<MappedBundle> MappedBundle::Map(const std::string& path,
                                       bool prefer_mmap) {
  Result<common::MappedFile> file = common::MappedFile::Open(path, prefer_mmap);
  if (!file.ok()) return file.status();
  return FromFile(std::move(*file));
}

Result<MappedBundle> MappedBundle::FromFile(common::MappedFile file) {
  Result<std::vector<BinarySectionRange>> layout =
      ParseBinaryLayout(file.view());
  if (!layout.ok()) return layout.status();
  return MappedBundle(std::move(file), std::move(*layout));
}

Result<MappedBundle> MappedBundle::FromBytes(std::string bytes) {
  return FromFile(common::MappedFile::FromBytes(std::move(bytes)));
}

bool MappedBundle::HasSection(const std::string& name) const {
  for (const BinarySectionRange& range : layout_) {
    if (range.name == name) return true;
  }
  return false;
}

std::string_view MappedBundle::FindSectionView(const std::string& name) const {
  for (const BinarySectionRange& range : layout_) {
    if (range.name == name) {
      return file_.view().substr(range.offset, range.size);
    }
  }
  return {};
}

Result<gbdt::Ensemble> MappedBundle::Teacher() const {
  return Decode(*this, kTeacherSection, &gbdt::Ensemble::DeserializeBinary);
}

Result<nn::Mlp> MappedBundle::Student() const {
  return Decode(*this, kStudentSection, &nn::Mlp::DeserializeBinary);
}

Result<data::ZNormalizer> MappedBundle::Normalizer() const {
  return Decode(*this, kNormalizerSection,
                &data::ZNormalizer::DeserializeBinary);
}

Result<RungConfig> MappedBundle::Rungs() const {
  return Decode(*this, kRungsSection, &RungConfig::DeserializeBinary);
}

Status MappedBundle::VerifyPayloadCrcs() const {
  for (const BinarySectionRange& range : layout_) {
    const std::string_view payload =
        file_.view().substr(range.offset, range.size);
    const uint32_t actual = Crc32(payload);
    if (actual != range.crc32) {
      return Status::ParseError("crc mismatch in section '" + range.name +
                                "'");
    }
  }
  return Status::Ok();
}

}  // namespace dnlr::bundle
