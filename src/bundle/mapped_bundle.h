#ifndef DNLR_BUNDLE_MAPPED_BUNDLE_H_
#define DNLR_BUNDLE_MAPPED_BUNDLE_H_

#include <string>
#include <string_view>
#include <vector>

#include "bundle/binary_format.h"
#include "bundle/bundle.h"
#include "common/mapped_file.h"
#include "common/status.h"

namespace dnlr::bundle {

/// The one typed bundle reader: a v2 binary bundle, resident via mmap or
/// held in an owned buffer. Mapped, the kernel pages model bytes in on
/// demand and shares them across processes, and loading never copies the
/// file into a heap buffer first. Construction runs only the cheap
/// structural validation (ParseBinaryLayout — header + table CRCs, every
/// offset/size checked overflow-safely); payload CRCs cost a full scan of
/// the bytes and are deferred to VerifyPayloadCrcs(), which `dnlr_cli
/// bundle verify` and ModelBundle::Deserialize call and serving does not.
///
/// The binary container fixes the payload codec, so the typed getters
/// decode only the binary "GBT2"/"MLP2"/"ZNM2"/"RNG2" codecs, straight out
/// of the bytes (bounds-checked memcpy, no intermediate payload string). A
/// text bundle is read by converting it first: ModelBundle::Deserialize →
/// SerializeAs(kBinary) → FromBytes.
class MappedBundle {
 public:
  /// Maps `path` and validates the v2 layout. A v1 text bundle fails with
  /// the binary magic ParseError — callers that accept both formats should
  /// sniff with IsBinaryBundle first (serve::Servable::LoadFromFile does).
  static Result<MappedBundle> Map(const std::string& path,
                                  bool prefer_mmap = true);

  /// Wraps an already-opened mapping (e.g. after format sniffing).
  static Result<MappedBundle> FromFile(common::MappedFile file);

  /// Wraps binary-container bytes already in memory (an owned buffer, see
  /// common::MappedFile::FromBytes).
  static Result<MappedBundle> FromBytes(std::string bytes);

  bool HasSection(const std::string& name) const;
  /// View of a section's payload inside the mapping, or an empty view when
  /// the section is absent. Valid only while this MappedBundle lives.
  std::string_view FindSectionView(const std::string& name) const;

  /// Typed getters over the binary payload codecs. NotFound when the
  /// section is absent; the decoder's ParseError otherwise (a text payload
  /// inside a binary container is one).
  Result<gbdt::Ensemble> Teacher() const;
  Result<nn::Mlp> Student() const;
  Result<data::ZNormalizer> Normalizer() const;
  Result<RungConfig> Rungs() const;

  /// The deferred integrity pass: CRC32 of every payload against its table
  /// entry. ParseError naming the first mismatching section.
  Status VerifyPayloadCrcs() const;

  const std::vector<BinarySectionRange>& layout() const { return layout_; }
  /// True when the bytes come from a real mmap (false on the read fallback
  /// and for FromBytes).
  bool is_mapped() const { return file_.is_mapped(); }
  size_t file_bytes() const { return file_.size(); }

 private:
  MappedBundle(common::MappedFile file,
               std::vector<BinarySectionRange> layout)
      : file_(std::move(file)), layout_(std::move(layout)) {}

  common::MappedFile file_;
  std::vector<BinarySectionRange> layout_;
};

}  // namespace dnlr::bundle

#endif  // DNLR_BUNDLE_MAPPED_BUNDLE_H_
