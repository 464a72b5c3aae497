#include "kernel/dmesg.h"

#include <iterator>

namespace df::kernel {

const char* report_kind_name(ReportKind kind) {
  switch (kind) {
    case ReportKind::kWarning: return "WARNING";
    case ReportKind::kBug: return "BUG";
    case ReportKind::kKasan: return "KASAN";
    case ReportKind::kHang: return "HANG";
    case ReportKind::kPanic: return "PANIC";
  }
  return "?";
}

Dmesg::Dmesg(size_t capacity) : capacity_(capacity) {
  ring_.reserve(capacity_ < 64 ? capacity_ : 64);
}

void Dmesg::warn(std::string_view driver, std::string_view site,
                 std::string_view detail) {
  Report r;
  r.kind = ReportKind::kWarning;
  r.title = "WARNING in " + std::string(site);
  r.driver = driver;
  r.detail = detail;
  r.fatal = false;
  push(std::move(r));
}

void Dmesg::bug(std::string_view driver, std::string_view message) {
  Report r;
  r.kind = ReportKind::kBug;
  r.title = "BUG: " + std::string(message);
  r.driver = driver;
  r.fatal = true;
  push(std::move(r));
}

void Dmesg::kasan(std::string_view driver, std::string_view bug_class,
                  std::string_view site, std::string_view detail) {
  Report r;
  r.kind = ReportKind::kKasan;
  r.title = "KASAN: " + std::string(bug_class) + " in " + std::string(site);
  r.driver = driver;
  r.detail = detail;
  r.fatal = true;
  push(std::move(r));
}

void Dmesg::hang(std::string_view driver, std::string_view site) {
  Report r;
  r.kind = ReportKind::kHang;
  r.title = "Infinite Loop in " + std::string(site);
  r.driver = driver;
  r.fatal = true;
  push(std::move(r));
}

void Dmesg::panic(std::string_view driver, std::string_view message) {
  Report r;
  r.kind = ReportKind::kPanic;
  r.title = "Kernel panic: " + std::string(message);
  r.driver = driver;
  r.fatal = true;
  push(std::move(r));
}

void Dmesg::push(Report r) {
  r.seq = next_seq_++;
  if (r.fatal) panicked_ = true;
  if (ring_.size() >= capacity_ && !ring_.empty()) {
    ring_.erase(ring_.begin());
  }
  ring_.push_back(std::move(r));
}

std::vector<Report> Dmesg::since(uint64_t from_seq) const {
  // The ring holds reports in seq order, so the answer is its tail: walk
  // back from the newest report only as far as the cursor (usually zero
  // steps — most executions log nothing).
  auto first = ring_.end();
  while (first != ring_.begin() && std::prev(first)->seq >= from_seq) --first;
  return std::vector<Report>(first, ring_.end());
}

void Dmesg::clear() {
  ring_.clear();
  panicked_ = false;
  // next_seq_ deliberately not reset: sequence numbers are campaign-global.
}

}  // namespace df::kernel
