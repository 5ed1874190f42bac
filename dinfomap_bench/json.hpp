// Minimal JSON reader for the run reports the benchmark consumes (the
// library writes them but has no reader). Numbers are parsed with strtod, so
// the report's 17-digit doubles round-trip exactly.
#pragma once

#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace dinfomap_bench {

struct Json {
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };
  Kind kind = Kind::kNull;
  bool boolean = false;
  double number = 0;
  std::string string;
  std::vector<Json> array;
  std::vector<std::pair<std::string, Json>> object;

  /// Member `key`, or a null value when absent or not an object.
  [[nodiscard]] const Json& operator[](std::string_view key) const;
  /// Number value, or 0 when not a number.
  [[nodiscard]] double num() const { return kind == Kind::kNumber ? number : 0; }
};

/// Parse one JSON document; throws std::runtime_error on malformed input.
Json parse_json(std::string_view text);

/// Read and parse the file at `path`; throws std::runtime_error on failure.
Json read_json_file(const std::string& path);

}  // namespace dinfomap_bench
