// Live-state serialization for the snapshot/restore layer (DESIGN.md §13).
//
// A StateArchive walks live state in one of two directions. Drivers, HAL
// services and the kernel itself each describe their *live* state
// (protocol fields, per-open socket state, slab contents, fd tables) once,
// in a `state(StateArchive&)` member that names every field on a
// reference:
//
//   void state(StateArchive& ar) override {
//     ar.u32(mode_);
//     ar.b(streaming_);
//   }
//
// In save mode the walk appends each field to a little-endian byte image;
// in load mode the same walk overwrites each field from such an image. The
// writer and the reader therefore cannot drift apart. The device-level
// StateSnapshot (src/device/snapshot.h) builds its sections from these
// images, so it can capture and restore execution state without a reboot +
// prefix replay.
//
// Campaign-cumulative statistics (visit tallies, dmesg sequence numbers)
// are deliberately NOT part of this layer — a restore rewinds the device,
// not the campaign.
//
// Encoding is fixed little-endian so section byte images are
// platform-stable and byte-comparable (the dirty-struct delta check is a
// memcmp of section images).
//
// Loading is bounds-checked. An overrun (a truncated or corrupted image) or
// a fail() from the walk trips ok() permanently; every later read then
// yields zero/empty, so a walk checks ok() once at the end instead of after
// every field. fail() keeps the first reason for the error message.
#pragma once

#include <algorithm>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

namespace df::kernel {

class StateArchive {
 public:
  // Save mode: the walk appends to bytes().
  StateArchive() = default;
  // Load mode: the walk reads `image`, which must outlive the archive.
  explicit StateArchive(std::span<const uint8_t> image)
      : in_(image), end_(image.size()), loading_(true) {}

  bool loading() const { return loading_; }

  // --- fields ---------------------------------------------------------------
  void u16(uint16_t& v) { v = static_cast<uint16_t>(word(v, 2)); }
  void u32(uint32_t& v) { v = static_cast<uint32_t>(word(v, 4)); }
  void u64(uint64_t& v) { v = word(v, 8); }
  void i32(int32_t& v) {
    v = static_cast<int32_t>(static_cast<uint32_t>(
        word(static_cast<uint32_t>(v), 4)));
  }
  void b(bool& v) { v = word(v ? 1 : 0, 1) != 0; }
  // u32 length + bytes.
  void str(std::string& s) {
    const std::span<const uint8_t> src =
        lengthed({reinterpret_cast<const uint8_t*>(s.data()), s.size()});
    if (loading_) {
      s.assign(reinterpret_cast<const char*>(src.data()), src.size());
    }
  }
  void blob(std::vector<uint8_t>& v) {
    const std::span<const uint8_t> src = lengthed(v);
    if (loading_) v.assign(src.begin(), src.end());
  }
  // The same encoding for an immutable shared buffer (a null one saves as
  // empty); load mode replaces the pointer with a fresh buffer.
  void blob(std::shared_ptr<const std::vector<uint8_t>>& v) {
    const std::span<const uint8_t> src =
        lengthed(v ? std::span<const uint8_t>(*v) : std::span<const uint8_t>());
    if (loading_) {
      v = std::make_shared<const std::vector<uint8_t>>(src.begin(), src.end());
    }
  }
  // An enum, stored as its u32 value.
  template <typename E>
  void enumeration(E& e) {
    uint32_t v = static_cast<uint32_t>(e);
    u32(v);
    e = static_cast<E>(v);
  }

  // --- shapes ---------------------------------------------------------------
  // u32 count, then each element. Load replaces the vector's contents.
  template <typename T, typename F>
  void seq(std::vector<T>& v, F&& each) {
    uint32_t n = static_cast<uint32_t>(v.size());
    u32(n);
    if (!loading_) {
      for (T& x : v) each(x);
      return;
    }
    v.clear();
    for (uint32_t i = 0; i < n && ok_; ++i) each(v.emplace_back());
  }

  // u32 count, then (key, value) per entry in ascending key order, so an
  // unordered map saves as the same image as an ordered one with the same
  // contents. Keys are u16/u32/u64 by their type; `each` walks a value.
  // Load replaces the map's contents and rejects a repeated key.
  template <typename Map, typename F>
  void map(Map& m, F&& each) {
    using K = typename Map::key_type;
    using V = typename Map::mapped_type;
    uint32_t n = static_cast<uint32_t>(m.size());
    u32(n);
    if (!loading_) {
      if constexpr (requires { m.key_comp(); }) {  // already key-ordered
        for (auto& [k, v] : m) {
          K kk = k;
          key(kk);
          each(v);
        }
      } else {
        std::vector<std::pair<K, V*>> entries;
        entries.reserve(m.size());
        for (auto& [k, v] : m) entries.emplace_back(k, &v);
        std::sort(entries.begin(), entries.end(),
                  [](const auto& x, const auto& y) {
                    return x.first < y.first;
                  });
        for (auto& [k, v] : entries) {
          key(k);
          each(*v);
        }
      }
      return;
    }
    m.clear();
    for (uint32_t i = 0; i < n && ok_; ++i) {
      K k{};
      key(k);
      V v{};
      each(v);
      if (ok_ && !m.emplace(k, std::move(v)).second) fail("repeated key");
    }
  }

  // A present flag, then T when present: per-open driver state kept in a
  // type-erased slot (File::priv). Load allocates a fresh T for a present
  // slot and leaves an absent one alone.
  template <typename T, typename F>
  void optional(std::shared_ptr<void>& slot, F&& each) {
    bool present = slot != nullptr;
    b(present);
    if (!present) return;
    if (loading_) slot = std::make_shared<T>();
    each(*static_cast<T*>(slot.get()));
  }

  // A u32-length-prefixed nested image, walked by `inner(*this)`. Load
  // confines the inner walk to the prefixed bytes and rejects an image the
  // walk does not consume exactly.
  template <typename F>
  void nested(F&& inner) {
    if (!loading_) {
      const size_t at = out_.size();
      word(0, 4);  // length, patched below
      inner(*this);
      const size_t n = out_.size() - at - 4;
      for (size_t i = 0; i < 4; ++i) {
        out_[at + i] = static_cast<uint8_t>(n >> (8 * i));
      }
      return;
    }
    const uint32_t n = static_cast<uint32_t>(word(0, 4));
    if (!need(n)) return;
    const size_t outer_end = end_;
    end_ = pos_ + n;
    inner(*this);
    if (ok_ && pos_ != end_) fail("nested image has trailing bytes");
    end_ = outer_end;
  }

  // --- outcome --------------------------------------------------------------
  // Rejects the image being loaded; the first reason is kept.
  void fail(std::string why) {
    if (ok_) error_ = std::move(why);
    ok_ = false;
  }
  bool ok() const { return ok_; }
  // Load mode: no failure and every byte consumed — the image matched the
  // walk.
  bool done() const { return ok_ && pos_ == end_; }
  const std::string& error() const { return error_; }

  // Save mode: the image written so far.
  const std::vector<uint8_t>& bytes() const { return out_; }
  std::vector<uint8_t> take() { return std::move(out_); }

 private:
  template <typename K>
  void key(K& k) {
    static_assert(std::is_unsigned_v<K> && sizeof(K) >= 2);
    k = static_cast<K>(word(k, sizeof(K)));
  }

  // Writes (save) or reads (load) an n-byte little-endian word; returns the
  // walked value.
  uint64_t word(uint64_t v, size_t n) {
    if (!loading_) {
      const size_t at = out_.size();
      out_.resize(at + n);
      for (size_t i = 0; i < n; ++i) {
        out_[at + i] = static_cast<uint8_t>(v >> (8 * i));
      }
      return v;
    }
    if (!need(n)) return 0;
    uint64_t r = 0;
    for (size_t i = 0; i < n; ++i) {
      r |= static_cast<uint64_t>(in_[pos_ + i]) << (8 * i);
    }
    pos_ += n;
    return r;
  }
  // Saves `src` as a u32 length + its bytes; loads such a field and
  // returns a view of its bytes (empty on failure).
  std::span<const uint8_t> lengthed(std::span<const uint8_t> src) {
    const size_t n = static_cast<size_t>(word(src.size(), 4));
    if (!loading_) {
      out_.insert(out_.end(), src.begin(), src.end());
      return src;
    }
    if (!need(n)) return {};
    pos_ += n;
    return in_.subspan(pos_ - n, n);
  }
  bool need(size_t n) {
    if (ok_ && end_ - pos_ >= n) return true;
    fail("image truncated");
    return false;
  }

  std::vector<uint8_t> out_;
  std::span<const uint8_t> in_;
  size_t pos_ = 0;
  size_t end_ = 0;
  bool loading_ = false;
  bool ok_ = true;
  std::string error_;
};

}  // namespace df::kernel
