// Little-endian binary serialization and the one artifact envelope.
//
// Every binary file the program writes — the scenario cache, the compiled
// snapshot and the snapshot delta — is framed, checksummed and published by
// save_artifact() and validated by load_artifact(); each format only
// encodes and decodes its own header and payload with BinaryWriter and
// BinaryReader. Fixed-width little-endian integers, length-prefixed
// containers, no alignment assumptions.
#pragma once

#include <bit>
#include <cstdint>
#include <string>
#include <string_view>
#include <type_traits>

namespace reuse::net {

/// 64-bit FNV-1a over a byte range. Fingerprints serialized configurations
/// (cache keying) and checksums artifact payloads (corruption detection).
/// Stable across platforms.
inline constexpr std::uint64_t kFnv64OffsetBasis = 0xcbf29ce484222325ULL;
inline constexpr std::uint64_t kFnv64Prime = 0x100000001b3ULL;

[[nodiscard]] constexpr std::uint64_t fnv1a_64(
    std::string_view bytes, std::uint64_t hash = kFnv64OffsetBasis) {
  for (const char c : bytes) {
    hash ^= static_cast<unsigned char>(c);
    hash *= kFnv64Prime;
  }
  return hash;
}

/// Appends little-endian encodings to a caller-owned string.
class BinaryWriter {
 public:
  explicit BinaryWriter(std::string& out) : out_(out) {}

  template <typename T>
    requires std::is_integral_v<T>
  void write(T value) {
    // Serialize as unsigned little-endian of the same width.
    const auto u = static_cast<std::make_unsigned_t<T>>(value);
    char bytes[sizeof(T)];
    for (std::size_t i = 0; i < sizeof(T); ++i) {
      bytes[i] = static_cast<char>(u >> (8 * i));
    }
    out_.append(bytes, sizeof(T));
  }

  void write(double value) { write(std::bit_cast<std::uint64_t>(value)); }

  /// Length-prefixed text.
  void write(std::string_view text) {
    write(static_cast<std::uint64_t>(text.size()));
    write_bytes(text);
  }

  /// Raw bytes, no length prefix.
  void write_bytes(std::string_view bytes) { out_.append(bytes); }

  /// Writes a container of elements via a per-element callback.
  template <typename Container, typename Fn>
  void write_sequence(const Container& items, Fn&& fn) {
    write(static_cast<std::uint64_t>(items.size()));
    for (const auto& item : items) fn(*this, item);
  }

 private:
  std::string& out_;
};

/// Reads little-endian encodings from a byte range. A read past the end, an
/// implausible length or a fail() poisons the reader: every later read
/// returns zero and ok() stays false.
class BinaryReader {
 public:
  explicit BinaryReader(std::string_view bytes) : bytes_(bytes) {}

  template <typename T>
    requires std::is_integral_v<T>
  [[nodiscard]] T read() {
    using U = std::make_unsigned_t<T>;
    const std::string_view bytes = read_bytes(sizeof(T));  // empty on failure
    U u = 0;
    for (std::size_t i = 0; i < bytes.size(); ++i) {
      u |= static_cast<U>(static_cast<unsigned char>(bytes[i])) << (8 * i);
    }
    return static_cast<T>(u);
  }

  /// The next `count` raw bytes; empty and poisoned when fewer remain.
  [[nodiscard]] std::string_view read_bytes(std::size_t count) {
    if (!ok_ || remaining() < count) {
      fail();
      return {};
    }
    const std::string_view bytes = bytes_.substr(pos_, count);
    pos_ += count;
    return bytes;
  }

  /// Reads a length prefix; returns 0 and poisons the reader if it exceeds
  /// `sanity_limit` or the bytes left (every element takes at least one
  /// byte, so a longer count cannot be honest and must not size a buffer).
  [[nodiscard]] std::uint64_t read_size(std::uint64_t sanity_limit) {
    const auto size = read<std::uint64_t>();
    if (size > sanity_limit || size > remaining()) {
      fail();
      return 0;
    }
    return size;
  }

  /// Poisons the reader; decoders call this on semantic violations (values
  /// that decoded fine but cannot be valid) so `ok()` reports the failure.
  void fail() {
    ok_ = false;
    pos_ = bytes_.size();
  }

  [[nodiscard]] bool ok() const { return ok_; }

  /// Every byte has been consumed by successful reads.
  [[nodiscard]] bool at_end() const { return ok_ && pos_ == bytes_.size(); }

 private:
  [[nodiscard]] std::size_t remaining() const { return bytes_.size() - pos_; }

  std::string_view bytes_;
  std::size_t pos_ = 0;
  bool ok_ = true;
};

/// What identifies one artifact kind on disk.
struct ArtifactFormat {
  std::uint64_t magic = 0;
  std::uint32_t version = 0;
  /// Exact byte length of the format's own header.
  std::size_t header_bytes = 0;
  /// Names the kind in the bad-magic diagnostic ("not a <name>").
  const char* name = "";
};

/// Frames `header` and `payload` as
///   magic u64 | version u32 | header | payload size u64 | FNV-1a u64 | payload
/// and publishes the file atomically: it is written under `<path>.tmp.<pid>`,
/// flushed and rename()d into place, so a concurrent reader sees the
/// previous complete file or the new one, never a torn write; concurrent
/// writers of the same bytes race benignly (the last rename wins). Returns
/// false on I/O failure or a header of the wrong length, leaving no partial
/// file at `path`.
[[nodiscard]] bool save_artifact(const std::string& path,
                                 const ArtifactFormat& format,
                                 std::string_view header,
                                 std::string_view payload);

/// A file read back through the envelope. `header` and `payload` are only
/// meaningful when ok().
struct LoadedArtifact {
  std::string header;   ///< the format header (`header_bytes` long)
  std::string payload;  ///< the checksum-verified payload
  /// Why the file was refused, one distinct diagnostic per failure mode;
  /// empty when it loaded.
  std::string error;
  /// Refused because nothing could be opened at the path (absent, or not
  /// openable for reading), as opposed to a file that failed validation.
  bool absent = false;

  [[nodiscard]] bool ok() const { return error.empty(); }
};

/// Reads and validates an artifact of `format`: the path must be an
/// existing, readable, non-empty regular file holding the whole fixed
/// header, the right magic and version, and exactly the payload its size
/// field declares — checked against the file before any buffer is sized by
/// it, so a corrupt size can neither over-allocate nor hide trailing
/// bytes — and that payload must match its checksum.
[[nodiscard]] LoadedArtifact load_artifact(const std::string& path,
                                           const ArtifactFormat& format);

}  // namespace reuse::net
