#include "util/flags.h"

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <filesystem>

#include "util/string_utils.h"

namespace goalrec::util {

FlagParser::FlagParser(int argc, const char* const* argv) {
  if (argc > 0) program_ = std::filesystem::path(argv[0]).filename().string();
  bool flags_ended = false;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (flags_ended || !StartsWith(arg, "--")) {
      positional_.push_back(std::move(arg));
      continue;
    }
    if (arg == "--") {
      flags_ended = true;
      continue;
    }
    std::string body = arg.substr(2);
    size_t eq = body.find('=');
    if (eq == std::string::npos) {
      flags_[body] = "";
    } else {
      flags_[body.substr(0, eq)] = body.substr(eq + 1);
    }
  }
}

bool FlagParser::Has(const std::string& name) const {
  return flags_.count(name) > 0;
}

std::string FlagParser::GetString(const std::string& name,
                                  const std::string& default_value) const {
  auto it = flags_.find(name);
  return it == flags_.end() ? default_value : it->second;
}

bool FlagParser::ParseBool(const std::string& name,
                           const std::string& text) const {
  if (text.empty() || text == "true" || text == "1") return true;
  if (text == "false" || text == "0") return false;
  Fail(name, "a boolean", text);
}

int64_t FlagParser::ParseInt(const std::string& name, const std::string& text,
                             int64_t min, int64_t max) const {
  errno = 0;
  char* end = nullptr;
  int64_t value = std::strtoll(text.c_str(), &end, 10);
  if (errno != 0 || end == text.c_str() || *end != '\0') {
    Fail(name, "an integer", text);
  }
  if (value < min || value > max) {
    Fail(name,
         "an integer in [" + std::to_string(min) + ", " +
             std::to_string(max) + "]",
         text);
  }
  return value;
}

double FlagParser::ParseDouble(const std::string& name,
                               const std::string& text) const {
  errno = 0;
  char* end = nullptr;
  double value = std::strtod(text.c_str(), &end);
  if (errno != 0 || end == text.c_str() || *end != '\0') {
    Fail(name, "a number", text);
  }
  return value;
}

void FlagParser::Fail(const std::string& name, const std::string& expected,
                      const std::string& text) const {
  std::fprintf(stderr, "%s: --%s expects %s, got '%s'\n", program_.c_str(),
               name.c_str(), expected.c_str(), text.c_str());
  std::exit(2);
}

std::vector<std::string> FlagParser::UnknownFlags(
    const std::vector<std::string>& known) const {
  std::vector<std::string> unknown;
  for (const auto& [name, value] : flags_) {
    bool found = false;
    for (const std::string& k : known) {
      if (k == name) {
        found = true;
        break;
      }
    }
    if (!found) unknown.push_back(name);
  }
  return unknown;
}

}  // namespace goalrec::util
