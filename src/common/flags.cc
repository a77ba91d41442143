#include "common/flags.h"

#include <cerrno>
#include <cstdlib>

#include "common/string_util.h"

namespace dd {

ArgParser::ArgParser(int argc, const char* const* argv, int begin) {
  bool only_positional = false;
  for (int i = begin; i < argc; ++i) {
    std::string token = argv[i];
    if (only_positional) {
      positional_.push_back(std::move(token));
      continue;
    }
    if (token == "--") {
      only_positional = true;
      continue;
    }
    if (token.rfind("--", 0) != 0) {
      positional_.push_back(std::move(token));
      continue;
    }
    std::string name = token.substr(2);
    std::string value;
    bool has_value = false;
    std::size_t eq = name.find('=');
    if (eq != std::string::npos) {
      value = name.substr(eq + 1);
      name = name.substr(0, eq);
      has_value = true;
    } else if (i + 1 < argc && std::string(argv[i + 1]).rfind("--", 0) != 0) {
      value = argv[++i];
      has_value = true;
    }
    flags_[name].push_back(has_value ? value : "");
  }
}

bool ArgParser::Has(const std::string& name) const {
  return flags_.count(name) > 0;
}

std::string ArgParser::GetString(const std::string& name,
                                 const std::string& fallback) const {
  auto it = flags_.find(name);
  if (it == flags_.end() || it->second.empty()) return fallback;
  return it->second.back();
}

std::vector<std::string> ArgParser::GetAll(const std::string& name) const {
  auto it = flags_.find(name);
  return it == flags_.end() ? std::vector<std::string>{} : it->second;
}

Result<std::int64_t> ArgParser::GetInt(const std::string& name,
                                       std::int64_t fallback, std::int64_t lo,
                                       std::int64_t hi) const {
  if (!Has(name)) return fallback;
  const std::string value = GetString(name);
  char* end = nullptr;
  errno = 0;
  const long long parsed = std::strtoll(value.c_str(), &end, 10);
  if (end == value.c_str() || *end != '\0') {
    return Status::InvalidArgument("--" + name + " expects an integer, got '" +
                                   value + "'");
  }
  // ERANGE: the text lies past int64 and strtoll saturated.
  if (errno == ERANGE || parsed < lo || parsed > hi) {
    return Status::InvalidArgument(
        StrFormat("--%s must be in [%lld, %lld], got '%s'", name.c_str(),
                  static_cast<long long>(lo), static_cast<long long>(hi),
                  value.c_str()));
  }
  return parsed;
}

Result<double> ArgParser::GetDouble(const std::string& name,
                                    double fallback) const {
  if (!Has(name)) return fallback;
  const std::string value = GetString(name);
  double parsed = 0.0;
  if (!ParseDouble(value, &parsed)) {
    return Status::InvalidArgument("--" + name + " expects a number, got '" +
                                   value + "'");
  }
  return parsed;
}

std::vector<std::string> ArgParser::UnknownFlags(
    const std::vector<std::string>& known) const {
  std::vector<std::string> unknown;
  for (const auto& [name, values] : flags_) {
    bool found = false;
    for (const auto& k : known) {
      if (k == name) {
        found = true;
        break;
      }
    }
    if (!found) unknown.push_back(name);
  }
  return unknown;
}

std::vector<std::string> SplitFlagList(const std::string& value) {
  std::vector<std::string> out;
  for (const auto& part : Split(value, ',')) {
    std::string trimmed(Trim(part));
    if (!trimmed.empty()) out.push_back(std::move(trimmed));
  }
  return out;
}

}  // namespace dd
