#include "util/flags.hpp"

#include <charconv>
#include <stdexcept>
#include <system_error>

namespace groupfel::util {

namespace {

template <typename T>
T parse_full(const std::string& name, const std::string& text,
             const char* expected) {
  T value{};
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, value);
  if (text.empty() || ec != std::errc{} || ptr != end)
    throw std::invalid_argument(name + ": expected " + expected + ", got '" +
                                text + "'");
  return value;
}

}  // namespace

std::int64_t parse_int(const std::string& name, const std::string& text) {
  return parse_full<std::int64_t>(name, text, "an integer");
}

double parse_double(const std::string& name, const std::string& text) {
  return parse_full<double>(name, text, "a number");
}

Flags::Flags(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) {
      positional_.push_back(std::move(arg));
      continue;
    }
    arg = arg.substr(2);
    const auto eq = arg.find('=');
    if (eq != std::string::npos) {
      values_[arg.substr(0, eq)] = arg.substr(eq + 1);
    } else if (i + 1 < argc && std::string(argv[i + 1]).rfind("--", 0) != 0) {
      values_[arg] = argv[++i];
    } else {
      values_[arg] = "true";
    }
  }
}

bool Flags::has(const std::string& name) const {
  return values_.count(name) > 0;
}

std::string Flags::get_string(const std::string& name,
                              const std::string& fallback) const {
  const auto it = values_.find(name);
  return it == values_.end() ? fallback : it->second;
}

std::int64_t Flags::get_int(const std::string& name,
                            std::int64_t fallback) const {
  const auto it = values_.find(name);
  if (it == values_.end()) return fallback;
  return parse_int("--" + name, it->second);
}

double Flags::get_double(const std::string& name, double fallback) const {
  const auto it = values_.find(name);
  if (it == values_.end()) return fallback;
  return parse_double("--" + name, it->second);
}

bool Flags::get_bool(const std::string& name, bool fallback) const {
  const auto it = values_.find(name);
  if (it == values_.end()) return fallback;
  return it->second == "true" || it->second == "1" || it->second == "yes";
}

}  // namespace groupfel::util
