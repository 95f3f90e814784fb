#include "dex/apk.hpp"

#include "support/bytes.hpp"
#include "support/errors.hpp"

namespace saintdroid {

namespace {
constexpr std::uint32_t kApkMagic = 0x4b504153;  // "SAPK"
}  // namespace

std::uint64_t Apk::dex_loc() const {
  std::uint64_t n = 0;
  for (const auto& dex : dexes) n += dex.instruction_count();
  return n;
}

Apk::ClassLocation Apk::find_class(std::string_view internal_name) const {
  for (std::uint32_t i = 0; i < dexes.size(); ++i)
    if (const ClassDef* cls = dexes[i].find_class(internal_name))
      return {i, cls};
  return {};
}

std::vector<std::uint8_t> Apk::serialize() const {
  ByteWriter w;
  w.u32(kApkMagic);
  w.str(name);
  manifest.serialize(w);
  w.uleb(dexes.size());
  for (const auto& dex : dexes) {
    const auto bytes = dex.serialize();
    w.uleb(bytes.size());
    w.bytes(bytes);
  }
  return w.take();
}

Apk Apk::parse(std::span<const std::uint8_t> bytes) {
  ByteReader r{bytes};
  if (r.u32() != kApkMagic) throw ParseError("bad APK magic");
  Apk apk;
  apk.name = r.str();
  apk.manifest = Manifest::parse(r);
  const auto dex_count = r.count();
  if (dex_count == 0) throw ParseError("APK contains no dex files");
  apk.dexes.reserve(dex_count);
  for (std::uint64_t i = 0; i < dex_count; ++i) {
    const auto size = r.uleb();
    if (size > r.remaining()) throw ParseError("dex section truncated");
    // Parse each dex in place, from its delimited subspan.
    apk.dexes.push_back(DexFile::parse(r.bytes(size)));
  }
  if (!r.at_end()) throw ParseError("trailing bytes after dex sections");
  return apk;
}

}  // namespace saintdroid
