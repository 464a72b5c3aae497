// Kernel report log: the simulated analogue of the dmesg ring buffer plus
// the crash-detection conventions kernel fuzzers key on (WARNING / BUG /
// KASAN / hung-task lines).
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace df::kernel {

enum class ReportKind {
  kWarning,  // WARNING in <site>           (logic error, non-fatal)
  kBug,      // BUG: <message>              (fatal)
  kKasan,    // KASAN: <class> in <site>    (fatal, memory bug)
  kHang,     // Infinite loop / hung task   (fatal; watchdog fired)
  kPanic,    // Kernel panic                (fatal)
};

const char* report_kind_name(ReportKind kind);

struct Report {
  ReportKind kind = ReportKind::kWarning;
  std::string title;    // dedup key, e.g. "WARNING in rt1711_i2c_probe"
  std::string driver;   // originating driver / subsystem name
  std::string detail;   // free-form extra context
  uint64_t seq = 0;     // monotonically increasing sequence number
  bool fatal = false;   // requires a device reboot
};

// Bounded report ring. Fatal reports latch a panic flag which the device
// layer turns into a reboot (the paper's harness reboots on every bug).
class Dmesg {
 public:
  explicit Dmesg(size_t capacity = 1024);

  void warn(std::string_view driver, std::string_view site,
            std::string_view detail = {});
  void bug(std::string_view driver, std::string_view message);
  void kasan(std::string_view driver, std::string_view bug_class,
             std::string_view site, std::string_view detail = {});
  void hang(std::string_view driver, std::string_view site);
  void panic(std::string_view driver, std::string_view message);

  bool panicked() const { return panicked_; }
  void clear_panic() { panicked_ = false; }

  // Retained reports with seq >= from_seq, oldest first. Sequence numbers
  // survive ring eviction and clear(), so callers poll incrementally with a
  // cursor taken from next_seq(); the cost is the size of the answer.
  std::vector<Report> since(uint64_t from_seq) const;
  // Sequence number the next report will receive.
  uint64_t next_seq() const { return next_seq_; }
  size_t total_reports() const { return next_seq_; }
  const std::vector<Report>& ring() const { return ring_; }
  void clear();

 private:
  void push(Report r);

  size_t capacity_;
  uint64_t next_seq_ = 0;
  bool panicked_ = false;
  std::vector<Report> ring_;
};

}  // namespace df::kernel
