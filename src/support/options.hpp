// Minimal command-line option parser for examples and bench drivers.
// Supports --key=value and --key value and boolean --flag forms.
#pragma once

#include <charconv>
#include <cstdint>
#include <initializer_list>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "support/error.hpp"

namespace spar::support {

/// Strict full-token numeric parse. std::strtoll/strtod silently return 0 on
/// garbage ("--rho=abc" used to run with rho = 0); a malformed value is a
/// user error and must say so. `what` names the offending option ("--rho")
/// in the message. Shared by Options and the example/bench drivers.
template <typename T>
T parse_number(const std::string& what, const std::string& token) {
  T out{};
  const char* begin = token.c_str();
  const char* end = begin + token.size();
  const auto [next, ec] = std::from_chars(begin, end, out);
  if (ec != std::errc{} || next != end)
    throw Error("bad numeric value for " + what + ": \"" + token + "\"");
  return out;
}

class Options {
 public:
  Options(int argc, char** argv);

  bool has(const std::string& key) const;
  std::string get(const std::string& key, const std::string& fallback) const;
  std::int64_t get_int(const std::string& key, std::int64_t fallback) const;
  /// get_int that rejects a value outside [lo, hi] with an Error naming the
  /// option; the fallback is returned unchecked when the option is absent.
  std::int64_t get_int_in(const std::string& key, std::int64_t fallback, std::int64_t lo,
                          std::int64_t hi) const;
  double get_double(const std::string& key, double fallback) const;
  bool get_bool(const std::string& key, bool fallback) const;

  /// Throws an Error naming the first given --key (in sorted order) that is
  /// not in `known`, so a misspelt or retired option fails instead of being
  /// ignored.
  void reject_unknown(std::initializer_list<std::string_view> known) const;

  /// Positional (non --key) arguments, in order.
  const std::vector<std::string>& positional() const { return positional_; }

 private:
  std::map<std::string, std::string> values_;
  std::vector<std::string> positional_;
};

}  // namespace spar::support
