#include "kernel/driver.h"

#include <string>

#include "kernel/kernel.h"

namespace df::kernel {

DriverCtx::DriverCtx(Kernel& kernel, Task& task, Driver& driver)
    : kernel_(kernel), task_(task), driver_(driver) {}

void DriverCtx::cov(uint64_t block) {
  task_.kcov.hit(cov_feature(driver_.driver_id(), block));
}

HeapPtr DriverCtx::kmalloc(size_t size, std::string_view tag) {
  return kernel_.kasan_.alloc(size, tag);
}

void DriverCtx::kfree(HeapPtr p, std::string_view site) {
  kernel_.kasan_.free(p, driver_.name(), site);
}

bool DriverCtx::mem_read(HeapPtr p, size_t off, std::span<uint8_t> dst,
                         std::string_view site) {
  return kernel_.kasan_.read(p, off, dst, driver_.name(), site);
}

bool DriverCtx::mem_write(HeapPtr p, size_t off, std::span<const uint8_t> src,
                          std::string_view site) {
  return kernel_.kasan_.write(p, off, src, driver_.name(), site);
}

bool DriverCtx::mem_check(HeapPtr p, size_t off, size_t len, Access kind,
                          std::string_view site) {
  return kernel_.kasan_.check(p, off, len, kind, driver_.name(), site);
}

void DriverCtx::warn(std::string_view site, std::string_view detail) {
  kernel_.dmesg_.warn(driver_.name(), site, detail);
}

void DriverCtx::bug(std::string_view message) {
  kernel_.dmesg_.bug(driver_.name(), message);
}

void DriverCtx::kasan_report(std::string_view bug_class, std::string_view site,
                             std::string_view detail) {
  kernel_.dmesg_.kasan(driver_.name(), bug_class, site, detail);
}

bool DriverCtx::loop_guard(std::string_view site) {
  if (++loop_iters_ <= kernel_.loop_budget()) return true;
  if (!hang_reported_) {
    hang_reported_ = true;
    kernel_.dmesg_.hang(driver_.name(), site);
  }
  return false;
}

bool DriverCtx::lock_acquire_nested(uint32_t subclass,
                                    std::string_view lock_name) {
  // Mirrors lockdep's MAX_LOCKDEP_SUBCLASSES == 8 check.
  if (subclass < 8) return true;
  kernel_.dmesg_.bug(driver_.name(),
                     "looking up invalid subclass: " +
                         std::to_string(subclass) + " (lock " +
                         std::string(lock_name) + ")");
  return false;
}

util::Rng& DriverCtx::rng() { return kernel_.rng(); }

void Driver::state_machine_boot() {
  const size_t n = state_names().size();
  if (state_visits_.size() != n) {
    state_visits_.assign(n, 0);
    state_matrix_.assign(n * n, 0);
    states_visited_ = 0;
  }
  cur_state_ = 0;
  if (n > 0 && state_visits_[0]++ == 0) ++states_visited_;
}

void Driver::enter_state(size_t s) {
  const size_t n = state_visits_.size();
  if (s >= n) return;
  if (state_visits_[s]++ == 0) ++states_visited_;
  if (s != cur_state_) {
    ++state_matrix_[cur_state_ * n + s];
    cur_state_ = s;
  }
}

uint64_t Driver::transitions_observed() const {
  uint64_t n = 0;
  for (uint64_t v : state_matrix_) n += v > 0 ? 1 : 0;
  return n;
}

uint64_t le_u64(std::span<const uint8_t> b, size_t off) {
  uint64_t v = 0;
  for (size_t i = 0; i < 8 && off + i < b.size(); ++i)
    v |= static_cast<uint64_t>(b[off + i]) << (8 * i);
  return v;
}

uint32_t le_u32(std::span<const uint8_t> b, size_t off) {
  uint32_t v = 0;
  for (size_t i = 0; i < 4 && off + i < b.size(); ++i)
    v |= static_cast<uint32_t>(b[off + i]) << (8 * i);
  return v;
}

uint16_t le_u16(std::span<const uint8_t> b, size_t off) {
  uint16_t v = 0;
  for (size_t i = 0; i < 2 && off + i < b.size(); ++i)
    v = static_cast<uint16_t>(v | static_cast<uint16_t>(b[off + i]) << (8 * i));
  return v;
}

void put_u64(std::vector<uint8_t>& b, uint64_t v) {
  for (size_t i = 0; i < 8; ++i) b.push_back(static_cast<uint8_t>(v >> (8 * i)));
}
void put_u32(std::vector<uint8_t>& b, uint32_t v) {
  for (size_t i = 0; i < 4; ++i) b.push_back(static_cast<uint8_t>(v >> (8 * i)));
}
void put_u16(std::vector<uint8_t>& b, uint16_t v) {
  for (size_t i = 0; i < 2; ++i) b.push_back(static_cast<uint8_t>(v >> (8 * i)));
}

}  // namespace df::kernel
