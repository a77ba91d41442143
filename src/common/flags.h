// Minimal command-line flag parsing for the ddtool CLI:
//   tool subcommand --name value --name=value --switch positional ...
// Flags may repeat (collected in order); everything after "--" is
// positional.

#ifndef DD_COMMON_FLAGS_H_
#define DD_COMMON_FLAGS_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/result.h"

namespace dd {

class ArgParser {
 public:
  // Parses argv[begin..argc). Flags start with "--"; a flag is followed
  // by a value unless it is the last token or the next token is another
  // flag (then it is a boolean switch). "--name=value" is also accepted.
  ArgParser(int argc, const char* const* argv, int begin = 1);

  // True when --name was present (with or without a value).
  bool Has(const std::string& name) const;

  // Last value of --name, or `fallback` when absent.
  std::string GetString(const std::string& name,
                        const std::string& fallback = "") const;

  // All values of a repeated flag, in order.
  std::vector<std::string> GetAll(const std::string& name) const;

  // --name as an integer in [lo, hi] (inclusive), or `fallback` when
  // absent. Fails with InvalidArgument naming the flag on a value that
  // does not parse or lies outside the range, so callers can narrow the
  // result to the type they store without losing bits.
  Result<std::int64_t> GetInt(const std::string& name, std::int64_t fallback,
                              std::int64_t lo, std::int64_t hi) const;
  // Fails with InvalidArgument on an unparseable value.
  Result<double> GetDouble(const std::string& name, double fallback) const;

  const std::vector<std::string>& positional() const { return positional_; }

  // Names of flags present but not in `known` — for catching typos.
  std::vector<std::string> UnknownFlags(
      const std::vector<std::string>& known) const;

 private:
  std::map<std::string, std::vector<std::string>> flags_;
  std::vector<std::string> positional_;
};

// Splits "a,b,c" into {"a","b","c"}, trimming whitespace and dropping
// empties — the CLI's attribute-list syntax.
std::vector<std::string> SplitFlagList(const std::string& value);

}  // namespace dd

#endif  // DD_COMMON_FLAGS_H_
