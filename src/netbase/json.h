// Minimal JSON string escaping and fingerprint formatting, shared by every
// hand-rolled JSON emitter (StageTimer::to_json, the metrics exporter, the
// run manifest, the sweep report, the bench and lookupd JSON).
//
// The repo deliberately has no JSON library dependency; emitters build
// documents with ostringstream. That is fine as long as every string that
// reaches the output passes through json_escape — a stray '"' or control
// character in a stage or metric name must never produce invalid JSON.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>

namespace reuse::net {

/// Returns `text` with every character escaped as required inside a JSON
/// string literal: '"', '\\', and all control characters below 0x20
/// (common ones as two-character escapes, the rest as \u00XX). Bytes >= 0x20
/// other than '"' and '\\' pass through untouched, so UTF-8 survives.
inline std::string json_escape(std::string_view text) {
  static constexpr char kHex[] = "0123456789abcdef";
  std::string out;
  out.reserve(text.size());
  for (const char c : text) {
    const auto byte = static_cast<unsigned char>(c);
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\b': out += "\\b"; break;
      case '\f': out += "\\f"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (byte < 0x20) {
          out += "\\u00";
          out += kHex[byte >> 4];
          out += kHex[byte & 0xf];
        } else {
          out += c;
        }
    }
  }
  return out;
}

/// `value` as 16 zero-padded lower-case hex digits (printf "%016llx"): the
/// rendering of every 64-bit fingerprint in the repo's reports.
inline std::string hex16(std::uint64_t value) {
  static constexpr char kHex[] = "0123456789abcdef";
  std::string out(16, '0');
  for (auto digit = out.rbegin(); digit != out.rend(); ++digit, value >>= 4) {
    *digit = kHex[value & 0xf];
  }
  return out;
}

}  // namespace reuse::net
