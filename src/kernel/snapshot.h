// Live-state serialization primitives for the snapshot/restore layer
// (DESIGN.md §13).
//
// A StateBuf is a little-endian append-only byte buffer; a StateReader is
// its bounds-checked consumer. Drivers, HAL services and the kernel itself
// write their *live* state (protocol fields, per-open socket state, slab
// contents, fd tables) through these so the device-level StateSnapshot
// (src/device/snapshot.h) can capture and restore execution state without a
// reboot + prefix replay.
//
// Campaign-cumulative statistics (visit tallies, dmesg sequence numbers)
// are deliberately NOT part of this layer — a restore
// rewinds the device, not the campaign.
//
// Encoding is fixed little-endian so section byte images are
// platform-stable and byte-comparable (the dirty-struct delta check is a
// memcmp of section images).
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

namespace df::kernel {

class StateBuf {
 public:
  void u8(uint8_t v) { bytes_.push_back(v); }
  void u16(uint16_t v) {
    bytes_.push_back(static_cast<uint8_t>(v));
    bytes_.push_back(static_cast<uint8_t>(v >> 8));
  }
  void u32(uint32_t v) {
    u16(static_cast<uint16_t>(v));
    u16(static_cast<uint16_t>(v >> 16));
  }
  void u64(uint64_t v) {
    u32(static_cast<uint32_t>(v));
    u32(static_cast<uint32_t>(v >> 32));
  }
  void i64(int64_t v) { u64(static_cast<uint64_t>(v)); }
  void i32(int32_t v) { u32(static_cast<uint32_t>(v)); }
  void b(bool v) { u8(v ? 1 : 0); }
  void str(std::string_view s) {
    u32(static_cast<uint32_t>(s.size()));
    bytes_.insert(bytes_.end(), s.begin(), s.end());
  }
  void blob(std::span<const uint8_t> data) {
    u32(static_cast<uint32_t>(data.size()));
    bytes_.insert(bytes_.end(), data.begin(), data.end());
  }

  size_t size() const { return bytes_.size(); }
  const std::vector<uint8_t>& bytes() const { return bytes_; }
  std::vector<uint8_t> take() { return std::move(bytes_); }

 private:
  std::vector<uint8_t> bytes_;
};

// Bounds-checked reader. An overrun (corrupted or truncated section) trips
// ok() permanently and every subsequent read returns zero — callers check
// ok() once at the end instead of after every field.
class StateReader {
 public:
  explicit StateReader(std::span<const uint8_t> data) : data_(data) {}

  uint8_t u8() {
    if (!need(1)) return 0;
    return data_[pos_++];
  }
  uint16_t u16() {
    const uint16_t lo = u8();
    return static_cast<uint16_t>(lo | (static_cast<uint16_t>(u8()) << 8));
  }
  uint32_t u32() {
    const uint32_t lo = u16();
    return lo | (static_cast<uint32_t>(u16()) << 16);
  }
  uint64_t u64() {
    const uint64_t lo = u32();
    return lo | (static_cast<uint64_t>(u32()) << 32);
  }
  int64_t i64() { return static_cast<int64_t>(u64()); }
  int32_t i32() { return static_cast<int32_t>(u32()); }
  bool b() { return u8() != 0; }
  std::string str() {
    const uint32_t n = u32();
    if (!need(n)) return {};
    std::string out(reinterpret_cast<const char*>(data_.data() + pos_), n);
    pos_ += n;
    return out;
  }
  std::vector<uint8_t> blob() {
    const uint32_t n = u32();
    if (!need(n)) return {};
    std::vector<uint8_t> out(data_.begin() + static_cast<ptrdiff_t>(pos_),
                             data_.begin() + static_cast<ptrdiff_t>(pos_ + n));
    pos_ += n;
    return out;
  }

  bool ok() const { return ok_; }
  // Every byte consumed and no overrun: the section matched the reader.
  bool done() const { return ok_ && pos_ == data_.size(); }

 private:
  bool need(size_t n) {
    if (!ok_ || data_.size() - pos_ < n) {
      ok_ = false;
      return false;
    }
    return true;
  }

  std::span<const uint8_t> data_;
  size_t pos_ = 0;
  bool ok_ = true;
};

}  // namespace df::kernel
