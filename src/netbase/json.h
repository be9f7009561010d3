// The repo's one JSON writer, plus the string escaping and fingerprint
// formatting it is built on.
//
// The repo deliberately has no JSON library dependency. Every document it
// emits — the run manifest, the stage maps, the metrics snapshot, the sweep
// report, the BENCH_*.json files — goes through JsonWriter, which alone
// decides commas, quoting, escaping, number format and layout, so a stray
// '"' or control character in a stage or metric name can never produce
// invalid JSON.
#pragma once

#include <concepts>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "netbase/table.h"

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

/// Builds one JSON document. Callers open containers, name members and add
/// values; the writer owns everything else. Layout comes from content: a
/// container whose members are all scalars prints on one line
/// (`{"consulted": true, "hit": true}`), any other container prints one
/// member per line indented two spaces per level, and the root always
/// prints one member per line. Members keep insertion order. Doubles print
/// as "%.3f", integers exactly, and bool, nullptr and an empty optional as
/// true/false/null.
class JsonWriter {
 public:
  JsonWriter& begin_object() { return open('{'); }
  JsonWriter& begin_array() { return open('['); }

  /// Closes the innermost open container.
  JsonWriter& end() {
    Frame frame = std::move(frames_.back());
    frames_.pop_back();
    const bool one_line = frame.scalars_only && !frames_.empty();
    const std::string indent(2 * frames_.size(), ' ');
    std::string text(1, frame.open);
    for (std::size_t i = 0; i < frame.members.size(); ++i) {
      if (i > 0) text += one_line ? ", " : ",";
      if (!one_line) text += "\n" + indent + "  ";
      text += frame.members[i];
    }
    if (!one_line && !frame.members.empty()) text += "\n" + indent;
    text += frame.open == '{' ? '}' : ']';
    key_ = std::move(frame.key);
    return add(std::move(text), /*scalar=*/false);
  }

  /// Names the next value or container, which becomes a member of the open
  /// object.
  JsonWriter& key(std::string_view name) {
    key_ = '"' + json_escape(name) + "\": ";
    return *this;
  }
  template <typename T>
  JsonWriter& field(std::string_view name, const T& value) {
    return key(name).value(value);
  }

  JsonWriter& value(std::string_view text) {
    return add('"' + json_escape(text) + '"', /*scalar=*/true);
  }
  /// Without this overload a string literal would convert to bool.
  JsonWriter& value(const char* text) { return value(std::string_view(text)); }
  JsonWriter& value(bool flag) {
    return add(flag ? "true" : "false", /*scalar=*/true);
  }
  JsonWriter& value(std::nullptr_t) { return add("null", /*scalar=*/true); }
  JsonWriter& value(double number) {
    return add(fixed(number, 3), /*scalar=*/true);
  }
  template <std::integral T>
  JsonWriter& value(T number) {
    return add(std::to_string(number), /*scalar=*/true);
  }
  template <typename T>
  JsonWriter& value(const std::optional<T>& maybe) {
    return maybe ? value(*maybe) : value(nullptr);
  }
  /// A sequence of (name, value) pairs — a std::map, a StageMillis — as
  /// one object.
  template <typename Pairs>
    requires requires(const Pairs& pairs) { pairs.begin()->second; }
  JsonWriter& value(const Pairs& pairs) {
    begin_object();
    for (const auto& [name, member] : pairs) field(name, member);
    return end();
  }

  /// The finished document, newline-terminated. Every container must be
  /// closed.
  [[nodiscard]] std::string str() const { return document_ + '\n'; }

 private:
  struct Frame {
    char open;  ///< '{' or '['
    std::string key;
    std::vector<std::string> members;
    bool scalars_only = true;
  };

  JsonWriter& open(char bracket) {
    frames_.push_back(Frame{bracket, std::exchange(key_, {}), {}});
    return *this;
  }
  /// Adds `text` under the pending key to the open container, or makes it
  /// the document when none is open.
  JsonWriter& add(std::string text, bool scalar) {
    if (frames_.empty()) {
      document_ = std::move(text);
    } else {
      frames_.back().scalars_only &= scalar;
      frames_.back().members.push_back(std::exchange(key_, {}) + text);
    }
    return *this;
  }

  std::vector<Frame> frames_;
  std::string key_;
  std::string document_;
};

}  // namespace reuse::net
