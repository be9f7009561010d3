#include "netbase/serialize.h"

#include <unistd.h>

#include <filesystem>
#include <fstream>
#include <system_error>

namespace reuse::net {
namespace {

/// magic, version, payload size and checksum around the format header.
constexpr std::size_t kEnvelopeBytes = 8 + 4 + 8 + 8;

/// Reads `path` into `out` and returns why it must be refused, or an empty
/// string when it is a sound artifact of `format`.
std::string read_artifact(const std::string& path,
                          const ArtifactFormat& format, LoadedArtifact& out) {
  std::error_code ec;
  const std::filesystem::file_status status = std::filesystem::status(path, ec);
  if (ec || status.type() == std::filesystem::file_type::not_found) {
    out.absent = true;
    return "path does not exist: " + path;
  }
  if (status.type() != std::filesystem::file_type::regular) {
    return "not a regular file: " + path;
  }
  std::ifstream is(path, std::ios::binary | std::ios::ate);
  if (!is) {
    out.absent = true;
    return "cannot open for reading: " + path;
  }
  const std::streamoff file_size = is.tellg();
  if (file_size == 0) {
    return "zero-length file (mid-write artifact?): " + path;
  }

  std::string fixed(kEnvelopeBytes + format.header_bytes, '\0');
  is.seekg(0);
  if (file_size < static_cast<std::streamoff>(fixed.size()) ||
      !is.read(fixed.data(), static_cast<std::streamsize>(fixed.size()))) {
    return "file shorter than the header (mid-write artifact?)";
  }
  BinaryReader reader(fixed);
  if (reader.read<std::uint64_t>() != format.magic) {
    return std::string("bad magic: not a ") + format.name;
  }
  const std::uint32_t version = reader.read<std::uint32_t>();
  if (version != format.version) {
    return "unsupported format version " + std::to_string(version);
  }
  out.header = reader.read_bytes(format.header_bytes);
  const std::uint64_t declared = reader.read<std::uint64_t>();
  const std::uint64_t checksum = reader.read<std::uint64_t>();

  // The header is not checksummed, so its size field is bounded by the
  // file before it sizes any buffer.
  const auto available =
      static_cast<std::uint64_t>(file_size) - fixed.size();
  if (declared > available) {
    return "truncated payload: declared " + std::to_string(declared) +
           " bytes, got " + std::to_string(available);
  }
  if (declared < available) {
    return "trailing bytes after payload: not a product of save()";
  }
  out.payload.resize(declared);
  if (!is.read(out.payload.data(), static_cast<std::streamsize>(declared))) {
    return "truncated payload: declared " + std::to_string(declared) +
           " bytes, got " + std::to_string(is.gcount());
  }
  if (fnv1a_64(out.payload) != checksum) {
    return "payload checksum mismatch (bit flip or foreign writer)";
  }
  return {};
}

}  // namespace

bool save_artifact(const std::string& path, const ArtifactFormat& format,
                   std::string_view header, std::string_view payload) {
  if (header.size() != format.header_bytes) return false;
  std::string fixed;
  BinaryWriter writer(fixed);
  writer.write(format.magic);
  writer.write(format.version);
  writer.write_bytes(header);
  writer.write(static_cast<std::uint64_t>(payload.size()));
  writer.write(fnv1a_64(payload));

  const std::string tmp_path =
      path + ".tmp." + std::to_string(static_cast<long>(::getpid()));
  std::error_code ec;
  {
    std::ofstream os(tmp_path, std::ios::binary | std::ios::trunc);
    if (!os) return false;
    os.write(fixed.data(), static_cast<std::streamsize>(fixed.size()));
    os.write(payload.data(), static_cast<std::streamsize>(payload.size()));
    os.flush();
    if (!os.good()) {
      os.close();
      std::filesystem::remove(tmp_path, ec);
      return false;
    }
  }
  std::filesystem::rename(tmp_path, path, ec);
  if (ec) {
    std::error_code cleanup_ec;
    std::filesystem::remove(tmp_path, cleanup_ec);
    return false;
  }
  return true;
}

LoadedArtifact load_artifact(const std::string& path,
                             const ArtifactFormat& format) {
  LoadedArtifact out;
  out.error = read_artifact(path, format, out);
  return out;
}

}  // namespace reuse::net
