#ifndef DNLR_BUNDLE_BUNDLE_H_
#define DNLR_BUNDLE_BUNDLE_H_

#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/status.h"
#include "data/normalize.h"
#include "gbdt/ensemble.h"
#include "nn/mlp.h"

namespace dnlr::bundle {

/// Bundle-format constants. A bundle is the single deployable unit the
/// paper's pipeline produces per rollout: the LambdaMART teacher, the
/// distilled (possibly pruned) student MLP, the feature normalizer the
/// student was trained behind, and the serve-rung configuration the
/// DegradationLadder was budgeted with — versioned and checksummed so the
/// whole family rolls (and rolls back) together.
inline constexpr char kMagic[] = "dnlrbundle";
inline constexpr uint32_t kFormatVersion = 1;

/// The two container formats a bundle serializes to. Text (v1) is the
/// portable, diffable interchange format; binary (v2, binary_format.h) is
/// the section-aligned deployment format a server mmaps and loads
/// zero-copy. The container fixes the payload codec: a text container
/// carries text payloads, a binary container carries the "MLP2"/"GBT2"/
/// "ZNM2"/"RNG2" binary payloads. Conversion between the two is bitwise
/// score-lossless (the text codecs print max_digits10, so floats round-trip
/// exactly).
enum class BundleFormat { kText, kBinary };

/// Canonical position of `name` in the section order, or -1 for unknown
/// names. Shared by the v1 text parser and the v2 binary layout validator.
int CanonicalSectionIndex(const std::string& name);

/// Canonical section names, in the only order a valid bundle may declare
/// them. Any subset is allowed; reordering is a distinct parse error so a
/// tampered or hand-edited bundle never half-loads.
inline constexpr char kTeacherSection[] = "teacher";
inline constexpr char kStudentSection[] = "student";
inline constexpr char kNormalizerSection[] = "normalizer";
inline constexpr char kRungsSection[] = "rungs";

/// One rung of the serve configuration as budgeted offline: which model the
/// rung runs (`kind`: "student", "teacher", "cascade" or "teacher-subset")
/// and the predicted per-document cost the engine budgets with.
struct RungSpec {
  std::string name;
  std::string kind;
  double us_per_doc = 0.0;
};

/// The degradation-ladder configuration carried inside a bundle. Rungs are
/// ordered strongest-first with non-increasing costs, mirroring
/// serve::DegradationLadder::AddRung's contract.
struct RungConfig {
  std::vector<RungSpec> rungs;

  /// Classic-locale text form; rejects non-finite or non-positive costs and
  /// costs that increase down the ladder.
  Result<std::string> Serialize() const;
  static Result<RungConfig> Deserialize(const std::string& text);

  /// Binary "RNG2" form carried by v2 binary bundles (length-prefixed
  /// strings + f64 costs, little-endian). Enforces the same invariants as
  /// the text codec in both directions.
  Result<std::string> SerializeBinary() const;
  static Result<RungConfig> DeserializeBinary(std::string_view bytes);
};

/// A named, CRC-checksummed byte payload inside a bundle.
struct Section {
  std::string name;
  std::string payload;
};

/// The versioned model-bundle container: the builder and text interchange
/// type. Its payloads are always the text codecs; typed reads go through
/// bundle::MappedBundle (mapped_bundle.h), the one typed reader.
///
/// On-disk layout (header is line-oriented ASCII, payload is raw bytes):
///
///   dnlrbundle <format-version> <num-sections>\n
///   section <name> <payload-bytes> <crc32-hex8>\n     (one per section,
///                                                      canonical order)
///   payload\n
///   <section payloads, concatenated in declared order>
///
/// Deserialize verifies the magic, version, section order and every
/// section's length and CRC32 before any model parser runs, and each
/// corruption mode yields a distinct ParseError (bad magic, unsupported
/// version, malformed header, section out of order, truncated section, crc
/// mismatch) — a corrupt bundle can never be mistaken for a model.
/// SaveToFile is crash-safe (temp file + flush + fsync + atomic rename), so
/// a crash at any point during save leaves the published path untouched.
class ModelBundle {
 public:
  /// Typed setters: each serializes its object into the matching section
  /// (replacing any previous payload) and fails without touching the bundle
  /// when the object cannot serialize (e.g. non-finite weights).
  Status SetTeacher(const gbdt::Ensemble& teacher);
  Status SetStudent(const nn::Mlp& student);
  Status SetNormalizer(const data::ZNormalizer& normalizer);
  Status SetRungs(const RungConfig& rungs);

  /// Raw payload of a section, or nullptr when absent.
  const std::string* FindSection(const std::string& name) const;
  const std::vector<Section>& sections() const { return sections_; }

  /// v1 text container with payloads exactly as stored.
  std::string Serialize() const;

  /// Serializes to the requested container format. kBinary re-encodes every
  /// text payload to its binary codec via parse + serialize (bitwise
  /// lossless), failing with the text parser's error on a corrupt payload.
  Result<std::string> SerializeAs(BundleFormat format) const;

  /// Sniffs the container format from the leading magic. A v1 text
  /// container is sliced into its payloads as stored. A v2 binary container
  /// is read through MappedBundle: every payload CRC is verified, every
  /// section decoded, and each model re-encoded to its text codec through
  /// the Set* methods.
  static Result<ModelBundle> Deserialize(const std::string& bytes);

  /// Crash-safe save of SerializeAs(format) via common::AtomicWriteFile.
  Status SaveToFile(const std::string& path,
                    BundleFormat format = BundleFormat::kText) const;
  static Result<ModelBundle> LoadFromFile(const std::string& path);

 private:
  /// Inserts or replaces `name`, keeping sections_ in canonical order.
  Status SetSection(const std::string& name, std::string payload);

  std::vector<Section> sections_;
};

/// Classic-locale (de)serialization of the Z-normalizer statistics, so the
/// student's preprocessing travels with the model instead of being re-fit
/// from whatever data happens to be at hand at load time.
Result<std::string> SerializeNormalizer(const data::ZNormalizer& normalizer);
Result<data::ZNormalizer> DeserializeNormalizer(const std::string& text);

}  // namespace dnlr::bundle

#endif  // DNLR_BUNDLE_BUNDLE_H_
