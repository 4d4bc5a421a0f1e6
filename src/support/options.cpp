#include "support/options.hpp"

#include <algorithm>

namespace spar::support {

Options::Options(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) {
      positional_.push_back(arg);
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

bool Options::has(const std::string& key) const { return values_.count(key) > 0; }

std::string Options::get(const std::string& key, const std::string& fallback) const {
  const auto it = values_.find(key);
  return it == values_.end() ? fallback : it->second;
}

std::int64_t Options::get_int(const std::string& key, std::int64_t fallback) const {
  const auto it = values_.find(key);
  if (it == values_.end()) return fallback;
  return parse_number<std::int64_t>("--" + key, it->second);
}

std::int64_t Options::get_int_in(const std::string& key, std::int64_t fallback,
                                 std::int64_t lo, std::int64_t hi) const {
  const std::int64_t value = get_int(key, fallback);
  if (has(key) && (value < lo || value > hi))
    throw Error("--" + key + " must be in [" + std::to_string(lo) + ", " + std::to_string(hi) +
                "], got " + std::to_string(value));
  return value;
}

double Options::get_double(const std::string& key, double fallback) const {
  const auto it = values_.find(key);
  if (it == values_.end()) return fallback;
  return parse_number<double>("--" + key, it->second);
}

bool Options::get_bool(const std::string& key, bool fallback) const {
  const auto it = values_.find(key);
  if (it == values_.end()) return fallback;
  return it->second == "true" || it->second == "1" || it->second == "yes";
}

void Options::reject_unknown(std::initializer_list<std::string_view> known) const {
  for (const auto& [key, value] : values_)
    if (std::find(known.begin(), known.end(), key) == known.end())
      throw Error("unknown option --" + key);
}

}  // namespace spar::support
