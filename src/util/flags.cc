#include "src/util/flags.h"

#include <cstdlib>

namespace tcs {

FlagSet::FlagSet(int argc, const char* const* argv) {
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) {
      positional_.push_back(arg);
      continue;
    }
    std::string body = arg.substr(2);
    std::string name = body;
    std::optional<std::string> value;
    size_t eq = body.find('=');
    if (eq != std::string::npos) {
      name = body.substr(0, eq);
      value = body.substr(eq + 1);
    }
    if (!value.has_value()) {
      // `--name value` when the next token is not itself a flag; bare `--name` otherwise.
      if (i + 1 < argc && std::string(argv[i + 1]).rfind("--", 0) != 0) {
        value = argv[++i];
      } else {
        value = "true";
      }
    }
    if (values_.contains(name)) {
      Fail("flag --" + name + " given twice");
      continue;
    }
    values_[name] = *value;
  }
  positional_read_.assign(positional_.size(), false);
}

void FlagSet::Fail(const std::string& message) {
  if (error_.empty()) {
    error_ = message;
  }
}

std::string FlagSet::Positional(size_t i) {
  if (i >= positional_.size()) {
    return "";
  }
  positional_read_[i] = true;
  return positional_[i];
}

std::string FlagSet::GetString(const std::string& name, const std::string& fallback) {
  read_.insert(name);
  auto it = values_.find(name);
  return it == values_.end() ? fallback : it->second;
}

int64_t FlagSet::GetInt(const std::string& name, int64_t fallback) {
  read_.insert(name);
  auto it = values_.find(name);
  if (it == values_.end()) {
    return fallback;
  }
  char* end = nullptr;
  int64_t v = std::strtoll(it->second.c_str(), &end, 10);
  if (end == it->second.c_str() || *end != '\0') {
    Fail("flag --" + name + " expects an integer, got '" + it->second + "'");
    return fallback;
  }
  return v;
}

double FlagSet::GetDouble(const std::string& name, double fallback) {
  read_.insert(name);
  auto it = values_.find(name);
  if (it == values_.end()) {
    return fallback;
  }
  char* end = nullptr;
  double v = std::strtod(it->second.c_str(), &end);
  if (end == it->second.c_str() || *end != '\0') {
    Fail("flag --" + name + " expects a number, got '" + it->second + "'");
    return fallback;
  }
  return v;
}

bool FlagSet::GetBool(const std::string& name, bool fallback) {
  read_.insert(name);
  auto it = values_.find(name);
  if (it == values_.end()) {
    return fallback;
  }
  if (it->second == "true" || it->second == "1" || it->second == "yes") {
    return true;
  }
  if (it->second == "false" || it->second == "0" || it->second == "no") {
    return false;
  }
  Fail("flag --" + name + " expects a boolean, got '" + it->second + "'");
  return fallback;
}

bool FlagSet::Check() {
  for (const auto& [name, value] : values_) {
    if (!read_.contains(name)) {
      Fail("unknown flag --" + name);
    }
  }
  for (size_t i = 0; i < positional_.size(); ++i) {
    if (!positional_read_[i]) {
      Fail("unexpected argument '" + positional_[i] + "'");
    }
  }
  return ok();
}

}  // namespace tcs
