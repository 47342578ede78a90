// Tiny command-line flag parser for bench/example binaries.
// Accepts `--name=value`, `--name value`, and boolean `--name`. Numeric
// values must parse in full: `--rounds=12abc` throws rather than reading 12.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace groupfel::util {

/// Parses all of `text` as a base-10 integer / floating-point number.
/// Throws std::invalid_argument naming `name` (a flag or environment
/// variable) on empty text, trailing characters, or overflow.
[[nodiscard]] std::int64_t parse_int(const std::string& name,
                                     const std::string& text);
[[nodiscard]] double parse_double(const std::string& name,
                                  const std::string& text);

class Flags {
 public:
  Flags(int argc, char** argv);

  [[nodiscard]] bool has(const std::string& name) const;
  [[nodiscard]] std::string get_string(const std::string& name,
                                       const std::string& fallback) const;
  [[nodiscard]] std::int64_t get_int(const std::string& name,
                                     std::int64_t fallback) const;
  [[nodiscard]] double get_double(const std::string& name,
                                  double fallback) const;
  [[nodiscard]] bool get_bool(const std::string& name, bool fallback) const;

  /// Positional (non-flag) arguments in order.
  [[nodiscard]] const std::vector<std::string>& positional() const noexcept {
    return positional_;
  }

 private:
  std::map<std::string, std::string> values_;
  std::vector<std::string> positional_;
};

}  // namespace groupfel::util
