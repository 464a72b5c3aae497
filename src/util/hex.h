// Lowercase hex text, table driven: DSL scalars and blobs (dsl/fmt.h),
// checkpoint words and byte images (core/fuzz/checkpoint.h) and lint
// messages are written with these; blobs and byte images are read back
// with hex_value / bytes_from_hex.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace df::util {

inline constexpr char kHexDigits[] = "0123456789abcdef";

// Appends "0x" and the digits of `v` without leading zeros ("0x0" for 0),
// the same text as printf's "0x%llx".
inline void append_hex_u64(std::string& out, uint64_t v) {
  char buf[18];
  char* const end = buf + sizeof buf;
  char* p = end;
  do {
    *--p = kHexDigits[v & 0xf];
    v >>= 4;
  } while (v != 0);
  *--p = 'x';
  *--p = '0';
  out.append(p, end);
}

inline std::string hex_u64(uint64_t v) {
  std::string out;
  append_hex_u64(out, v);
  return out;
}

// Appends two digits per byte.
inline void append_hex_bytes(std::string& out, const uint8_t* data,
                             size_t n) {
  const size_t at = out.size();
  out.resize(at + 2 * n);
  char* p = out.data() + at;
  for (size_t i = 0; i < n; ++i) {
    *p++ = kHexDigits[data[i] >> 4];
    *p++ = kHexDigits[data[i] & 0xf];
  }
}

namespace detail {

struct HexValueTable {
  int8_t v[256];
  constexpr HexValueTable() : v() {
    for (int i = 0; i < 256; ++i) v[i] = -1;
    for (int i = 0; i < 10; ++i) v['0' + i] = static_cast<int8_t>(i);
    for (int i = 0; i < 6; ++i) {
      v['a' + i] = static_cast<int8_t>(10 + i);
      v['A' + i] = static_cast<int8_t>(10 + i);
    }
  }
};

inline constexpr HexValueTable kHexValue{};

}  // namespace detail

// Value of one hex digit of either case, or -1.
inline int hex_value(char c) {
  return detail::kHexValue.v[static_cast<unsigned char>(c)];
}

// Decodes an even-length run of hex digit pairs into `out` (replacing its
// contents). False on an odd length or a non-hex character.
inline bool bytes_from_hex(std::string_view hex, std::vector<uint8_t>* out) {
  if (hex.size() % 2 != 0) return false;
  out->resize(hex.size() / 2);
  uint8_t* p = out->data();
  for (size_t i = 0; i < hex.size(); i += 2) {
    const int hi = hex_value(hex[i]);
    const int lo = hex_value(hex[i + 1]);
    if ((hi | lo) < 0) return false;
    *p++ = static_cast<uint8_t>(hi << 4 | lo);
  }
  return true;
}

}  // namespace df::util
