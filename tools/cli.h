// Plumbing shared by the dnlr_cli commands: the strict "--name value" flag
// parser, error printing, and the JSON report helpers.

#ifndef DNLR_TOOLS_CLI_H_
#define DNLR_TOOLS_CLI_H_

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <map>
#include <sstream>
#include <string>
#include <string_view>
#include <system_error>
#include <type_traits>
#include <vector>

#include "common/file_util.h"
#include "common/status.h"
#include "data/dataset.h"
#include "data/normalize.h"
#include "data/synthetic.h"
#include "gbdt/booster.h"
#include "obs/metrics.h"

namespace dnlr::cli {

/// Minimal --flag value parser: every option is "--name value". A token
/// that is not a --flag, or a trailing flag with no value, is a usage error
/// (exit 2), and Accept checks the flags against the command's usage line,
/// so a misspelled or retired flag fails loudly instead of being ignored.
class Args {
 public:
  Args(int argc, char** argv, int first) {
    for (int i = first; i < argc; i += 2) {
      if (std::strncmp(argv[i], "--", 2) != 0) {
        std::fprintf(stderr, "expected --flag, got '%s'\n", argv[i]);
        std::exit(2);
      }
      if (i + 1 == argc) {
        std::fprintf(stderr, "flag %s has no value\n", argv[i]);
        std::exit(2);
      }
      values_[argv[i] + 2] = argv[i + 1];
    }
  }

  /// Exits 2 naming the first given flag that `usage` does not list: the
  /// "--name" tokens of a command's usage line are exactly its flags.
  void Accept(std::string_view usage) const {
    for (const auto& entry : values_) {
      const std::string flag = "--" + entry.first;
      bool listed = false;
      for (size_t at = usage.find(flag); !listed && at != usage.npos;
           at = usage.find(flag, at + 1)) {
        const size_t end = at + flag.size();
        listed = (at == 0 || usage[at - 1] == ' ' || usage[at - 1] == '[') &&
                 (end == usage.size() || usage[end] == ' ' ||
                  usage[end] == ']');
      }
      if (!listed) {
        std::fprintf(stderr, "unknown flag %s (usage: %.*s)\n", flag.c_str(),
                     static_cast<int>(usage.size()), usage.data());
        std::exit(2);
      }
    }
  }

  std::string Get(const std::string& key, const std::string& fallback) const {
    const auto it = values_.find(key);
    return it != values_.end() ? it->second : fallback;
  }
  std::string Require(const std::string& key) const {
    const auto it = values_.find(key);
    if (it == values_.end()) {
      std::fprintf(stderr, "missing required --%s\n", key.c_str());
      std::exit(2);
    }
    return it->second;
  }
  double GetDouble(const std::string& key, double fallback) const {
    const auto it = values_.find(key);
    return it != values_.end() ? std::atof(it->second.c_str()) : fallback;
  }
  int GetInt(const std::string& key, int fallback) const {
    const auto it = values_.find(key);
    return it != values_.end() ? std::atoi(it->second.c_str()) : fallback;
  }
  bool Has(const std::string& key) const { return values_.count(key) > 0; }

 private:
  std::map<std::string, std::string> values_;
};

/// Prints `status` to stderr when it is not OK; true in that case.
inline bool Failed(const Status& status) {
  if (status.ok()) return false;
  std::fprintf(stderr, "%s\n", status.ToString().c_str());
  return true;
}

/// Fixed-precision double for JSON output (never scientific notation).
inline std::string FormatFixed(double value, int precision) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*f", precision, value);
  return buf;
}

/// Creates the directory a generated artifact lands in. Bench output lives
/// under out/ (gitignored) rather than next to the bench sources, so a
/// fresh checkout needs the directory created on first run.
inline bool EnsureParentDir(const std::string& path) {
  const std::filesystem::path parent =
      std::filesystem::path(path).parent_path();
  if (parent.empty()) return true;
  std::error_code ec;
  std::filesystem::create_directories(parent, ec);
  if (ec) {
    std::fprintf(stderr, "cannot create directory %s: %s\n",
                 parent.string().c_str(), ec.message().c_str());
    return false;
  }
  return true;
}

/// Checks `json` with obs::CheckJsonSyntax, writes it crash-safely to
/// `path` and prints "wrote <path>". False (error printed) on failure.
inline bool WriteJson(const std::string& path, const std::string& json) {
  const std::string error = obs::CheckJsonSyntax(json);
  if (!error.empty()) {
    std::fprintf(stderr, "%s: not valid JSON: %s\n", path.c_str(),
                 error.c_str());
    return false;
  }
  if (!EnsureParentDir(path) || Failed(AtomicWriteFile(path, json))) {
    return false;
  }
  std::printf("wrote %s\n", path.c_str());
  return true;
}

// ---- Synthetic workloads shared by the benches.

/// An MSN-like synthetic corpus and the normalizer fitted on it.
struct Corpus {
  Corpus(uint32_t queries, uint32_t features, uint64_t seed)
      : dataset(data::GenerateSynthetic([&] {
          data::SyntheticConfig config = data::SyntheticConfig::MsnLike(1.0);
          config.num_queries = queries;
          config.num_features = features;
          config.seed = seed;
          return config;
        }())) {
    normalizer.Fit(dataset);
    std::fprintf(stderr, "corpus: %u docs / %u queries / %u features\n",
                 dataset.num_docs(), dataset.num_queries(), features);
  }
  // Scorers keep pointers to the normalizer.
  Corpus(const Corpus&) = delete;
  Corpus& operator=(const Corpus&) = delete;
  uint32_t features() const { return dataset.num_features(); }

  const data::Dataset dataset;
  data::ZNormalizer normalizer;
};

/// A LambdaMART forest of `trees` trees with up to `leaves` leaves each.
inline gbdt::Ensemble TrainForest(const data::Dataset& dataset, uint32_t trees,
                                  uint32_t leaves) {
  gbdt::BoosterConfig config;
  config.num_trees = trees;
  config.num_leaves = leaves;
  std::fprintf(stderr, "training %u-tree forest...\n", trees);
  return gbdt::Booster(config).TrainLambdaMart(dataset, nullptr);
}

// ---- JSON values for the reports.

/// A pre-rendered JSON value, inserted verbatim.
struct Json {
  std::string text;
};

inline std::string Quote(std::string_view text) {
  std::string quoted = "\"";
  for (const char c : text) {
    if (c == '"' || c == '\\') quoted += '\\';
    quoted += c;
  }
  return quoted + "\"";
}

inline Json Fixed(double value, int precision) {
  return {FormatFixed(value, precision)};
}

inline std::string Render(const Json& value) { return value.text; }
inline std::string Render(bool value) { return value ? "true" : "false"; }
// const char* needs its own overload: it would convert to bool before
// std::string_view.
inline std::string Render(const char* value) { return Quote(value); }
inline std::string Render(std::string_view value) { return Quote(value); }
template <typename T>
  requires std::is_arithmetic_v<T>
std::string Render(T value) {
  std::ostringstream text;
  text << value;
  return text.str();
}

inline void AppendMembers(std::string*) {}
template <typename Value, typename... Rest>
void AppendMembers(std::string* body, std::string_view key,
                   const Value& value, const Rest&... rest) {
  if (!body->empty()) *body += ", ";
  *body += Quote(key) + ": " + Render(value);
  AppendMembers(body, rest...);
}

/// A JSON object on one line from alternating keys and values:
/// JsonObject("ok", 3, "p50_us", Fixed(1.5, 1)) is {"ok": 3, "p50_us": 1.5}.
template <typename... KeysAndValues>
std::string JsonObject(const KeysAndValues&... members) {
  std::string body;
  AppendMembers(&body, members...);
  return "{" + body + "}";
}

/// A JSON array with one item per line, indented as a report member.
inline std::string JsonArray(const std::vector<std::string>& items) {
  std::string json = "[\n";
  for (size_t i = 0; i < items.size(); ++i) {
    json += "    " + items[i] + (i + 1 < items.size() ? ",\n" : "\n");
  }
  return json + "  ]";
}

}  // namespace dnlr::cli

#endif  // DNLR_TOOLS_CLI_H_
