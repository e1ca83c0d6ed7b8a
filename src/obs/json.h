// JSON string escaping shared by every emitter in the tree (bench harness
// report, metrics snapshot, Chrome-trace export). Interpolating raw names
// into JSON breaks the moment a bench or metric label contains a quote or
// backslash, so all of them route through this one helper.
#pragma once

#include <cstdio>
#include <string>
#include <string_view>

namespace bs::obs {

// Appends the JSON-escaped form of `s` (without surrounding quotes) to
// `out`. Control characters become \uXXXX; everything else passes through
// byte-for-byte, so output is deterministic for a given input.
inline void json_escape_to(std::string_view s, std::string* out) {
  for (unsigned char c : s) {
    switch (c) {
      case '"': *out += "\\\""; break;
      case '\\': *out += "\\\\"; break;
      case '\b': *out += "\\b"; break;
      case '\f': *out += "\\f"; break;
      case '\n': *out += "\\n"; break;
      case '\r': *out += "\\r"; break;
      case '\t': *out += "\\t"; break;
      default:
        if (c < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          *out += buf;
        } else {
          *out += static_cast<char>(c);
        }
    }
  }
}

// Convenience: escaped and quoted.
inline std::string json_quote(std::string_view s) {
  std::string out;
  out.reserve(s.size() + 2);
  out += '"';
  json_escape_to(s, &out);
  out += '"';
  return out;
}

}  // namespace bs::obs
