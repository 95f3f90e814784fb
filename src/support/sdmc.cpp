#include "support/sdmc.hpp"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <cstdio>
#include <filesystem>
#include <fstream>

#include "support/bytes.hpp"
#include "support/errors.hpp"

namespace saintdroid {

std::uint64_t sdmc_checksum(std::span<const std::uint8_t> bytes) {
  std::uint64_t hash = 0xcbf29ce484222325ULL;  // FNV-1a 64
  for (const std::uint8_t b : bytes) {
    hash ^= b;
    hash *= 0x100000001b3ULL;
  }
  return hash;
}

std::vector<std::uint8_t> sdmc_seal(const SdmcKey& key,
                                    std::span<const std::uint8_t> payload) {
  ByteWriter w;
  w.u32(kSdmcMagic);
  w.u32(kSdmcFormatVersion);
  w.u8(static_cast<std::uint8_t>(key.kind));
  w.str(key.fingerprint);
  w.sleb(key.level);
  w.uleb(key.options);
  w.u64(sdmc_checksum(payload));
  w.uleb(payload.size());
  w.bytes(payload);
  return w.take();
}

std::vector<std::uint8_t> sdmc_open(std::span<const std::uint8_t> blob,
                                    const SdmcKey& expected) {
  ByteReader r{blob};
  if (r.u32() != kSdmcMagic) throw ParseError("bad model-cache magic");
  if (r.u32() != kSdmcFormatVersion)
    throw ParseError("unsupported model-cache format version");
  if (r.u8() != static_cast<std::uint8_t>(expected.kind))
    throw ParseError("model-cache entry kind mismatch");
  if (r.str() != expected.fingerprint)
    throw ParseError("model-cache framework fingerprint mismatch");
  if (r.sleb() != expected.level)
    throw ParseError("model-cache level mismatch");
  if (r.uleb() != expected.options)
    throw ParseError("model-cache options mismatch");
  const std::uint64_t checksum = r.u64();
  const std::uint64_t size = r.uleb();
  if (size > r.remaining()) throw ParseError("truncated model-cache payload");
  std::vector<std::uint8_t> payload(
      blob.begin() + static_cast<std::ptrdiff_t>(r.offset()),
      blob.begin() + static_cast<std::ptrdiff_t>(r.offset() + size));
  if (r.remaining() != size)
    throw ParseError("trailing bytes after model-cache payload");
  if (sdmc_checksum(payload) != checksum)
    throw ParseError("model-cache payload checksum mismatch");
  return payload;
}

void ensure_directory(const std::string& dir) {
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  if (ec && !std::filesystem::is_directory(dir))
    throw ConfigError("cannot create cache directory " + dir + ": " +
                      ec.message());
}

void write_file_atomic(const std::string& path,
                       std::span<const std::uint8_t> bytes) {
  // Process-unique temp name in the same directory, so the rename stays on
  // one filesystem and concurrent processes never share a temp file.
  static std::atomic<std::uint64_t> counter{0};
  const std::string tmp = path + ".tmp." + std::to_string(::getpid()) + "." +
                          std::to_string(
                              counter.fetch_add(1, std::memory_order_relaxed));
  {
    std::ofstream out{tmp, std::ios::binary | std::ios::trunc};
    if (!out) throw ConfigError("cannot write cache file " + tmp);
    out.write(reinterpret_cast<const char*>(bytes.data()),
              static_cast<std::streamsize>(bytes.size()));
    out.flush();
    if (!out) {
      std::remove(tmp.c_str());
      throw ConfigError("short write to cache file " + tmp);
    }
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    throw ConfigError("cannot publish cache file " + path);
  }
}

std::optional<std::vector<std::uint8_t>> read_file_bytes(
    const std::string& path) {
  // One open, one fstat and a sized read: packages and cache entries are
  // read whole, so a character-stream copy only costs time. A pipe or
  // device reports no size and is read in chunks until EOF instead.
  const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) {
    if (errno == ENOENT || errno == ENOTDIR) return std::nullopt;
    throw ConfigError("cannot read cache file " + path);
  }
  std::vector<std::uint8_t> bytes;
  struct stat info {};
  bool ok = ::fstat(fd, &info) == 0;
  if (ok) {
    const bool sized = S_ISREG(info.st_mode);
    bytes.resize(sized ? static_cast<std::size_t>(info.st_size) : 0);
    std::size_t got = 0;
    for (;;) {
      if (got == bytes.size()) {
        if (sized) break;
        bytes.resize(got + 65536);
      }
      const ::ssize_t n = ::read(fd, bytes.data() + got, bytes.size() - got);
      if (n < 0 && errno == EINTR) continue;
      if (n <= 0) {
        ok = n == 0;  // EOF (early for a file that shrank since fstat)
        break;
      }
      got += static_cast<std::size_t>(n);
    }
    bytes.resize(got);
  }
  ::close(fd);
  if (!ok) throw ConfigError("cannot read cache file " + path);
  return bytes;
}

}  // namespace saintdroid
