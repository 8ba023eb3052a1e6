#pragma once
// Byte-level goldens for output files: a 64-bit FNV-1a digest plus the
// length. Tests pin these for the files the national pipeline writes, so a
// change to any formatting or parsing path that alters one byte fails.

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <string_view>

namespace leodivide::testing {

struct Golden {
  std::uint64_t fnv1a = 0;
  std::size_t bytes = 0;
  friend bool operator==(const Golden&, const Golden&) = default;
};

inline Golden golden_of(std::string_view data) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const char c : data) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ULL;
  }
  return {h, data.size()};
}

inline std::string read_bytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream s;
  s << in.rdbuf();
  return s.str();
}

/// "{0x<digest>, <bytes>}", the literal form the tests pin.
inline std::string to_literal(const Golden& g) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "{0x%016llxULL, %zu}",
                static_cast<unsigned long long>(g.fnv1a), g.bytes);
  return buf;
}

}  // namespace leodivide::testing
