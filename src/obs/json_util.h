// JSON string escaping shared by the obs exporters (run reports,
// EXPLAIN audits). Same rules as core/result_io's
// JsonEscape; kept here so obs stays below core in the dependency
// order.

#ifndef DD_OBS_JSON_UTIL_H_
#define DD_OBS_JSON_UTIL_H_

#include <string>

#include "common/string_util.h"

namespace dd::obs {

inline std::string JsonEscape(const std::string& text) {
  std::string out;
  out.reserve(text.size());
  for (unsigned char c : text) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\r':
        out += "\\r";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        if (c < 0x20) {
          out += StrFormat("\\u%04x", c);
        } else {
          out += static_cast<char>(c);
        }
    }
  }
  return out;
}

}  // namespace dd::obs

#endif  // DD_OBS_JSON_UTIL_H_
