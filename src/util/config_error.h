// Structured configuration errors.
//
// Model constructors validate their configs up front and throw ConfigError instead of
// letting a zero rate or an undersized MTU surface later as a division by zero, an
// infinite loop, or a silently wrong experiment. The exception carries the offending
// field so drivers (tcsctl, sweep runners) can report it precisely.

#ifndef TCS_SRC_UTIL_CONFIG_ERROR_H_
#define TCS_SRC_UTIL_CONFIG_ERROR_H_

#include <stdexcept>
#include <string>
#include <utility>

namespace tcs {

class ConfigError : public std::runtime_error {
 public:
  ConfigError(std::string field, std::string reason)
      : std::runtime_error(field + ": " + reason),
        field_(std::move(field)),
        reason_(std::move(reason)) {}

  // The dotted config field that failed validation, e.g. "DiskConfig.transfer_rate".
  const std::string& field() const { return field_; }
  const std::string& reason() const { return reason_; }

 private:
  std::string field_;
  std::string reason_;
};

}  // namespace tcs

#endif  // TCS_SRC_UTIL_CONFIG_ERROR_H_
