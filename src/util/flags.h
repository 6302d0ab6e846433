// Minimal typed command-line flag parser for the tools and harnesses.
//
// Supports `--name=value`, `--name value`, bare boolean `--name`, and positional
// arguments. A tool reads what it uses through the getters below and then calls Check()
// once: the flags and positional arguments it accepts are exactly the ones some getter
// asked for.

#ifndef TCS_SRC_UTIL_FLAGS_H_
#define TCS_SRC_UTIL_FLAGS_H_

#include <cstdint>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <vector>

namespace tcs {

class FlagSet {
 public:
  // Parses argv[1..).
  FlagSet(int argc, const char* const* argv);

  bool ok() const { return error_.empty(); }
  const std::string& error() const { return error_; }

  // Positional (non-flag) argument `i`, or "" when there are fewer.
  std::string Positional(size_t i);

  // Typed getters: return `fallback` when the flag is absent; set error() when present
  // but malformed.
  std::string GetString(const std::string& name, const std::string& fallback = "");
  int64_t GetInt(const std::string& name, int64_t fallback = 0);
  double GetDouble(const std::string& name, double fallback = 0.0);
  // A bare `--name` or `--name=true|false`.
  bool GetBool(const std::string& name, bool fallback = false);

  // Records a value the caller cannot use; error() keeps the first error recorded.
  void Fail(const std::string& message);
  // After every read: false on any error so far, on a flag that no getter asked for,
  // and on a positional argument no getter asked for.
  bool Check();

 private:
  std::map<std::string, std::string> values_;
  std::set<std::string> read_;
  std::vector<std::string> positional_;
  std::vector<bool> positional_read_;
  std::string error_;
};

}  // namespace tcs

#endif  // TCS_SRC_UTIL_FLAGS_H_
