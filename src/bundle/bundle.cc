#include "bundle/bundle.h"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstdio>
#include <limits>
#include <locale>
#include <sstream>

#include "bundle/binary_format.h"
#include "bundle/crc32.h"
#include "bundle/mapped_bundle.h"
#include "common/binio.h"
#include "common/file_util.h"

namespace dnlr::bundle {
namespace {

/// Canonical order of every known section name. The index doubles as the
/// sort key SetSection keeps sections_ ordered by.
constexpr const char* kCanonicalOrder[] = {
    kTeacherSection, kStudentSection, kNormalizerSection, kRungsSection};

std::string CrcHex(uint32_t crc) {
  char buf[16];
  std::snprintf(buf, sizeof(buf), "%08x", crc);
  return buf;
}

/// Parses a section-header CRC field: exactly eight lowercase-or-uppercase
/// hex digits, nothing else. strtoul is deliberately NOT used here — it
/// accepts sign prefixes ("-1"), "0x" markers, and arbitrarily long digit
/// runs that silently truncate, any of which would let a tampered header
/// carry a CRC field that re-serializes differently than it parsed.
bool ParseCrcHex8(const std::string& field, uint32_t* crc) {
  if (field.size() != 8) return false;
  uint32_t value = 0;
  for (const char c : field) {
    uint32_t digit = 0;
    if (c >= '0' && c <= '9') {
      digit = static_cast<uint32_t>(c - '0');
    } else if (c >= 'a' && c <= 'f') {
      digit = static_cast<uint32_t>(c - 'a') + 10;
    } else if (c >= 'A' && c <= 'F') {
      digit = static_cast<uint32_t>(c - 'A') + 10;
    } else {
      return false;
    }
    value = (value << 4) | digit;
  }
  *crc = value;
  return true;
}

/// Classic-locale numeric stream helpers shared by the rung-config and
/// normalizer codecs.
std::ostringstream MakeOut() {
  std::ostringstream out;
  out.imbue(std::locale::classic());
  out.precision(std::numeric_limits<double>::max_digits10);
  return out;
}

std::istringstream MakeIn(const std::string& text) {
  std::istringstream in(text);
  in.imbue(std::locale::classic());
  return in;
}

/// Shared serialize-time validation for both rung codecs: non-empty,
/// space-free names/kinds, finite positive costs, non-increasing down the
/// ladder.
Status ValidateRungsForSerialize(const std::vector<RungSpec>& rungs) {
  if (rungs.empty()) {
    return Status::InvalidArgument("rung config has no rungs");
  }
  double previous = std::numeric_limits<double>::infinity();
  for (const RungSpec& rung : rungs) {
    if (rung.name.empty() || rung.kind.empty()) {
      return Status::InvalidArgument("rung with empty name or kind");
    }
    if (rung.name.find(' ') != std::string::npos ||
        rung.kind.find(' ') != std::string::npos) {
      return Status::InvalidArgument("rung name/kind must not contain spaces");
    }
    if (!std::isfinite(rung.us_per_doc) || rung.us_per_doc <= 0.0) {
      return Status::InvalidArgument("rung '" + rung.name +
                                     "' has non-positive or non-finite cost");
    }
    if (rung.us_per_doc > previous) {
      return Status::InvalidArgument(
          "rung '" + rung.name +
          "' is more expensive than its predecessor (rungs must be "
          "strongest-first with non-increasing cost)");
    }
    previous = rung.us_per_doc;
  }
  return Status::Ok();
}

}  // namespace

int CanonicalSectionIndex(const std::string& name) {
  for (size_t i = 0; i < std::size(kCanonicalOrder); ++i) {
    if (name == kCanonicalOrder[i]) return static_cast<int>(i);
  }
  return -1;
}

// ---------------------------------------------------------------------------
// RungConfig

// Grammar:
//   rungs <n>
//   rung <name> <kind> <us_per_doc>     (n lines, strongest first)
Result<std::string> RungConfig::Serialize() const {
  DNLR_RETURN_IF_ERROR(ValidateRungsForSerialize(rungs));
  std::ostringstream out = MakeOut();
  out << "rungs " << rungs.size() << '\n';
  for (const RungSpec& rung : rungs) {
    out << "rung " << rung.name << ' ' << rung.kind << ' ' << rung.us_per_doc
        << '\n';
  }
  return out.str();
}

Result<RungConfig> RungConfig::Deserialize(const std::string& text) {
  std::istringstream in = MakeIn(text);
  std::string keyword;
  size_t count = 0;
  if (!(in >> keyword >> count) || keyword != "rungs") {
    return Status::ParseError("expected 'rungs <n>' header");
  }
  RungConfig config;
  config.rungs.resize(count);
  double previous = std::numeric_limits<double>::infinity();
  for (size_t i = 0; i < count; ++i) {
    RungSpec& rung = config.rungs[i];
    if (!(in >> keyword >> rung.name >> rung.kind >> rung.us_per_doc) ||
        keyword != "rung") {
      return Status::ParseError("bad rung line " + std::to_string(i));
    }
    if (!std::isfinite(rung.us_per_doc) || rung.us_per_doc <= 0.0 ||
        rung.us_per_doc > previous) {
      return Status::ParseError("rung '" + rung.name +
                                "' cost is invalid or increases down the "
                                "ladder");
    }
    previous = rung.us_per_doc;
  }
  return config;
}

// Binary "RNG2" payload layout (little-endian; see common/binio.h):
//   "RNG2"  u32 num_rungs
//   per rung: u32 name_bytes, name, u32 kind_bytes, kind, f64 us_per_doc
Result<std::string> RungConfig::SerializeBinary() const {
  DNLR_RETURN_IF_ERROR(ValidateRungsForSerialize(rungs));
  std::string out;
  AppendBytes(out, "RNG2", 4);
  AppendU32(out, static_cast<uint32_t>(rungs.size()));
  for (const RungSpec& rung : rungs) {
    AppendU32(out, static_cast<uint32_t>(rung.name.size()));
    AppendBytes(out, rung.name.data(), rung.name.size());
    AppendU32(out, static_cast<uint32_t>(rung.kind.size()));
    AppendBytes(out, rung.kind.data(), rung.kind.size());
    AppendF64(out, rung.us_per_doc);
  }
  return out;
}

Result<RungConfig> RungConfig::DeserializeBinary(std::string_view bytes) {
  BinaryReader reader(bytes);
  if (!reader.ExpectTag("RNG2")) {
    return Status::ParseError("not a binary rung config (bad RNG2 tag)");
  }
  uint32_t count = 0;
  if (!reader.ReadU32(&count) || count == 0) {
    return Status::ParseError("bad binary rung count");
  }
  RungConfig config;
  double previous = std::numeric_limits<double>::infinity();
  for (uint32_t i = 0; i < count; ++i) {
    RungSpec rung;
    uint32_t name_bytes = 0;
    uint32_t kind_bytes = 0;
    std::string_view name;
    std::string_view kind;
    // ReadView bounds-checks each declared length against the remaining
    // payload, so a forged length cannot read past the section.
    if (!reader.ReadU32(&name_bytes) || !reader.ReadView(name_bytes, &name) ||
        !reader.ReadU32(&kind_bytes) || !reader.ReadView(kind_bytes, &kind) ||
        !reader.ReadF64(&rung.us_per_doc)) {
      return Status::ParseError("truncated binary rung " + std::to_string(i));
    }
    rung.name = std::string(name);
    rung.kind = std::string(kind);
    if (rung.name.empty() || rung.kind.empty()) {
      return Status::ParseError("binary rung " + std::to_string(i) +
                                " has an empty name or kind");
    }
    if (!std::isfinite(rung.us_per_doc) || rung.us_per_doc <= 0.0 ||
        rung.us_per_doc > previous) {
      return Status::ParseError("rung '" + rung.name +
                                "' cost is invalid or increases down the "
                                "ladder");
    }
    previous = rung.us_per_doc;
    config.rungs.push_back(std::move(rung));
  }
  if (reader.remaining() != 0) {
    return Status::ParseError("trailing bytes after binary rung config");
  }
  return config;
}

// ---------------------------------------------------------------------------
// Normalizer codec

// Grammar:
//   znorm <num_features>
//   <num_features means> <num_features stddevs>
Result<std::string> SerializeNormalizer(const data::ZNormalizer& normalizer) {
  if (!normalizer.fitted()) {
    return Status::InvalidArgument("cannot serialize an unfitted normalizer");
  }
  const std::vector<float>& mean = normalizer.mean();
  const std::vector<float>& stddev = normalizer.stddev();
  for (size_t f = 0; f < mean.size(); ++f) {
    if (!std::isfinite(mean[f]) || !std::isfinite(stddev[f]) ||
        stddev[f] <= 0.0f) {
      return Status::InvalidArgument(
          "cannot serialize normalizer: bad statistics at feature " +
          std::to_string(f));
    }
  }
  std::ostringstream out = MakeOut();
  out << "znorm " << mean.size() << '\n';
  for (size_t f = 0; f < mean.size(); ++f) {
    out << mean[f] << (f + 1 == mean.size() ? '\n' : ' ');
  }
  for (size_t f = 0; f < stddev.size(); ++f) {
    out << stddev[f] << (f + 1 == stddev.size() ? '\n' : ' ');
  }
  return out.str();
}

Result<data::ZNormalizer> DeserializeNormalizer(const std::string& text) {
  std::istringstream in = MakeIn(text);
  std::string keyword;
  size_t count = 0;
  if (!(in >> keyword >> count) || keyword != "znorm" || count == 0) {
    return Status::ParseError("expected 'znorm <n>' header");
  }
  std::vector<float> mean(count);
  std::vector<float> stddev(count);
  for (float& m : mean) {
    if (!(in >> m) || !std::isfinite(m)) {
      return Status::ParseError("truncated or non-finite normalizer means");
    }
  }
  for (float& s : stddev) {
    if (!(in >> s) || !std::isfinite(s) || s <= 0.0f) {
      return Status::ParseError(
          "truncated or non-positive normalizer stddevs");
    }
  }
  return data::ZNormalizer(std::move(mean), std::move(stddev));
}

// ---------------------------------------------------------------------------
// ModelBundle

Status ModelBundle::SetSection(const std::string& name, std::string payload) {
  const int index = CanonicalSectionIndex(name);
  if (index < 0) {
    return Status::InvalidArgument("unknown bundle section '" + name + "'");
  }
  for (Section& section : sections_) {
    if (section.name == name) {
      section.payload = std::move(payload);
      return Status::Ok();
    }
  }
  Section section{name, std::move(payload)};
  const auto pos = std::find_if(
      sections_.begin(), sections_.end(), [index](const Section& s) {
        return CanonicalSectionIndex(s.name) > index;
      });
  sections_.insert(pos, std::move(section));
  return Status::Ok();
}

Status ModelBundle::SetTeacher(const gbdt::Ensemble& teacher) {
  Result<std::string> text = teacher.Serialize();
  if (!text.ok()) return text.status();
  return SetSection(kTeacherSection, std::move(*text));
}

Status ModelBundle::SetStudent(const nn::Mlp& student) {
  Result<std::string> text = student.Serialize();
  if (!text.ok()) return text.status();
  return SetSection(kStudentSection, std::move(*text));
}

Status ModelBundle::SetNormalizer(const data::ZNormalizer& normalizer) {
  Result<std::string> text = SerializeNormalizer(normalizer);
  if (!text.ok()) return text.status();
  return SetSection(kNormalizerSection, std::move(*text));
}

Status ModelBundle::SetRungs(const RungConfig& rungs) {
  Result<std::string> text = rungs.Serialize();
  if (!text.ok()) return text.status();
  return SetSection(kRungsSection, std::move(*text));
}

const std::string* ModelBundle::FindSection(const std::string& name) const {
  for (const Section& section : sections_) {
    if (section.name == name) return &section.payload;
  }
  return nullptr;
}

std::string ModelBundle::Serialize() const {
  std::ostringstream out;
  out.imbue(std::locale::classic());
  out << kMagic << ' ' << kFormatVersion << ' ' << sections_.size() << '\n';
  for (const Section& section : sections_) {
    out << "section " << section.name << ' ' << section.payload.size() << ' '
        << CrcHex(Crc32(section.payload)) << '\n';
  }
  out << "payload\n";
  for (const Section& section : sections_) {
    out << section.payload;
  }
  return out.str();
}

namespace {

template <typename Model>
Result<std::string> EncodeBinary(const Result<Model>& model) {
  if (!model.ok()) return model.status();
  return model->SerializeBinary();
}

/// Re-encodes one text section payload into its binary codec. The text
/// codecs print max_digits10 under the classic locale, so parse + re-encode
/// round-trips every float bitwise — conversion is score-lossless by
/// construction.
Result<std::string> TextToBinary(const std::string& name,
                                 const std::string& payload) {
  if (name == kTeacherSection) {
    return EncodeBinary(gbdt::Ensemble::Deserialize(payload));
  }
  if (name == kStudentSection) {
    return EncodeBinary(nn::Mlp::Deserialize(payload));
  }
  if (name == kNormalizerSection) {
    return EncodeBinary(DeserializeNormalizer(payload));
  }
  // kRungsSection: SetSection and the text parser admit no other name.
  return EncodeBinary(RungConfig::Deserialize(payload));
}

/// Decodes a binary container through MappedBundle and stores each model
/// back under its text codec.
Result<ModelBundle> DecodeBinary(const std::string& bytes) {
  Result<MappedBundle> mapped = MappedBundle::FromBytes(bytes);
  if (!mapped.ok()) return mapped.status();
  // The layout pass only checks structure; a full decode also pays for the
  // payload CRCs, so flipped payload bits are caught before any decoder.
  DNLR_RETURN_IF_ERROR(mapped->VerifyPayloadCrcs());
  ModelBundle bundle;
  if (mapped->HasSection(kTeacherSection)) {
    Result<gbdt::Ensemble> teacher = mapped->Teacher();
    DNLR_RETURN_IF_ERROR(teacher.ok() ? bundle.SetTeacher(*teacher)
                                      : teacher.status());
  }
  if (mapped->HasSection(kStudentSection)) {
    Result<nn::Mlp> student = mapped->Student();
    DNLR_RETURN_IF_ERROR(student.ok() ? bundle.SetStudent(*student)
                                      : student.status());
  }
  if (mapped->HasSection(kNormalizerSection)) {
    Result<data::ZNormalizer> normalizer = mapped->Normalizer();
    DNLR_RETURN_IF_ERROR(normalizer.ok() ? bundle.SetNormalizer(*normalizer)
                                         : normalizer.status());
  }
  if (mapped->HasSection(kRungsSection)) {
    Result<RungConfig> rungs = mapped->Rungs();
    DNLR_RETURN_IF_ERROR(rungs.ok() ? bundle.SetRungs(*rungs) : rungs.status());
  }
  return bundle;
}

}  // namespace

Result<std::string> ModelBundle::SerializeAs(BundleFormat format) const {
  if (format == BundleFormat::kText) return Serialize();
  std::vector<Section> binary;
  for (const Section& section : sections_) {
    Result<std::string> payload = TextToBinary(section.name, section.payload);
    if (!payload.ok()) {
      return Status::ParseError("cannot convert section '" + section.name +
                                "': " + payload.status().message());
    }
    binary.push_back(Section{section.name, std::move(*payload)});
  }
  return BuildBinaryBundle(binary);
}

Result<ModelBundle> ModelBundle::Deserialize(const std::string& bytes) {
  if (IsBinaryBundle(bytes)) return DecodeBinary(bytes);
  // Header lines are parsed off an istream; payload bytes are then sliced
  // out of `bytes` directly.
  std::istringstream in = MakeIn(bytes);
  std::string magic;
  uint32_t version = 0;
  size_t num_sections = 0;
  if (!(in >> magic) || magic != kMagic) {
    return Status::ParseError("not a dnlr bundle (bad magic)");
  }
  if (!(in >> version >> num_sections)) {
    return Status::ParseError("malformed bundle header");
  }
  if (version != kFormatVersion) {
    return Status::ParseError("unsupported bundle version " +
                              std::to_string(version) + " (this build reads " +
                              std::to_string(kFormatVersion) + ")");
  }

  struct Declared {
    std::string name;
    size_t size = 0;
    uint32_t crc = 0;
  };
  std::vector<Declared> declared(num_sections);
  int previous_index = -1;
  for (size_t s = 0; s < num_sections; ++s) {
    std::string keyword;
    std::string crc_hex;
    if (!(in >> keyword >> declared[s].name >> declared[s].size >> crc_hex) ||
        keyword != "section") {
      return Status::ParseError("malformed section header " +
                                std::to_string(s));
    }
    if (!ParseCrcHex8(crc_hex, &declared[s].crc)) {
      return Status::ParseError("malformed crc in section header '" +
                                declared[s].name +
                                "' (want exactly 8 hex digits, got '" +
                                crc_hex + "')");
    }
    const int index = CanonicalSectionIndex(declared[s].name);
    if (index < 0) {
      return Status::ParseError("unknown bundle section '" +
                                declared[s].name + "'");
    }
    if (index == previous_index) {
      return Status::ParseError("duplicate bundle section '" +
                                declared[s].name + "'");
    }
    if (index < previous_index) {
      return Status::ParseError(
          "bundle section '" + declared[s].name +
          "' out of canonical order (teacher, student, normalizer, rungs)");
    }
    previous_index = index;
  }

  std::string keyword;
  if (!(in >> keyword) || keyword != "payload") {
    return Status::ParseError("missing payload marker");
  }
  // The payload starts right after the newline terminating the marker line.
  const size_t marker = bytes.find("\npayload\n");
  if (marker == std::string::npos) {
    return Status::ParseError("missing payload marker");
  }
  size_t offset = marker + std::string("\npayload\n").size();

  ModelBundle bundle;
  for (const Declared& decl : declared) {
    // Overflow-safe form: `offset + decl.size > bytes.size()` wraps when a
    // forged header declares a size near SIZE_MAX (operator>> happily reads
    // "-1" into a size_t as 18446744073709551615), which would wave the
    // huge size through and let substr clamp it silently. `offset` itself
    // is bounded by bytes.size() here, so the subtraction cannot underflow.
    if (decl.size > bytes.size() - offset) {
      return Status::ParseError(
          "truncated section '" + decl.name + "' (declares " +
          std::to_string(decl.size) + " bytes, " +
          std::to_string(bytes.size() - offset) + " remain)");
    }
    std::string payload = bytes.substr(offset, decl.size);
    offset += decl.size;
    const uint32_t actual = Crc32(payload);
    if (actual != decl.crc) {
      return Status::ParseError("crc mismatch in section '" + decl.name +
                                "' (header " + CrcHex(decl.crc) +
                                ", payload " + CrcHex(actual) + ")");
    }
    // Declarations are already validated as canonical-ordered and unique,
    // so appending preserves the invariant SetSection maintains.
    bundle.sections_.push_back(Section{decl.name, std::move(payload)});
  }
  if (offset != bytes.size()) {
    return Status::ParseError("trailing bytes after the last section (" +
                              std::to_string(bytes.size() - offset) +
                              " unaccounted)");
  }
  return bundle;
}

Status ModelBundle::SaveToFile(const std::string& path,
                               BundleFormat format) const {
  Result<std::string> bytes = SerializeAs(format);
  if (!bytes.ok()) return bytes.status();
  return AtomicWriteFile(path, *bytes);
}

Result<ModelBundle> ModelBundle::LoadFromFile(const std::string& path) {
  Result<std::string> bytes = ReadFileToString(path);
  if (!bytes.ok()) return bytes.status();
  return Deserialize(*bytes);
}

}  // namespace dnlr::bundle
