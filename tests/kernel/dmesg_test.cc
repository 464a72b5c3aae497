#include "kernel/dmesg.h"

#include <gtest/gtest.h>

namespace df::kernel {
namespace {

TEST(Dmesg, WarningFormatAndNonFatal) {
  Dmesg d;
  d.warn("rt1711_i2c", "rt1711_i2c_probe", "details");
  ASSERT_EQ(d.ring().size(), 1u);
  EXPECT_EQ(d.ring()[0].title, "WARNING in rt1711_i2c_probe");
  EXPECT_FALSE(d.ring()[0].fatal);
  EXPECT_FALSE(d.panicked());
}

TEST(Dmesg, BugIsFatal) {
  Dmesg d;
  d.bug("lockdep", "looking up invalid subclass: 12");
  EXPECT_EQ(d.ring()[0].title, "BUG: looking up invalid subclass: 12");
  EXPECT_TRUE(d.panicked());
}

TEST(Dmesg, KasanTitleMatchesRealFormat) {
  Dmesg d;
  d.kasan("l2cap", "slab-use-after-free Read", "bt_accept_unlink");
  EXPECT_EQ(d.ring()[0].title,
            "KASAN: slab-use-after-free Read in bt_accept_unlink");
  EXPECT_TRUE(d.panicked());
}

TEST(Dmesg, HangTitle) {
  Dmesg d;
  d.hang("gpu_mali", "gpu_mali_job_loop");
  EXPECT_EQ(d.ring()[0].title, "Infinite Loop in gpu_mali_job_loop");
  EXPECT_TRUE(d.panicked());
}

TEST(Dmesg, PanicTitle) {
  Dmesg d;
  d.panic("core", "attempted to kill init");
  EXPECT_EQ(d.ring()[0].title, "Kernel panic: attempted to kill init");
}

TEST(Dmesg, SequenceNumbersMonotonic) {
  Dmesg d;
  d.warn("a", "f1");
  d.warn("a", "f2");
  d.warn("a", "f3");
  EXPECT_EQ(d.ring()[0].seq, 0u);
  EXPECT_EQ(d.ring()[2].seq, 2u);
  EXPECT_EQ(d.next_seq(), 3u);
}

TEST(Dmesg, SinceFiltersBySeq) {
  Dmesg d;
  d.warn("a", "f1");
  const uint64_t cursor = d.next_seq();
  d.warn("a", "f2");
  const auto recent = d.since(cursor);
  ASSERT_EQ(recent.size(), 1u);
  EXPECT_EQ(recent[0].title, "WARNING in f2");
}

TEST(Dmesg, RingEvictsOldestButKeepsSeq) {
  Dmesg d(4);
  for (int i = 0; i < 10; ++i) d.warn("a", "f" + std::to_string(i));
  EXPECT_EQ(d.ring().size(), 4u);
  EXPECT_EQ(d.ring().front().seq, 6u);
  EXPECT_EQ(d.next_seq(), 10u);
}

// The cursor contract the broker relies on: since(c) returns exactly the
// retained reports with seq >= c, oldest first, whatever the ring evicted.
TEST(Dmesg, SinceAfterEvictionReturnsRetainedTail) {
  Dmesg d(4);
  for (int i = 0; i < 10; ++i) d.warn("a", "f" + std::to_string(i));
  const auto tail = d.since(8);
  ASSERT_EQ(tail.size(), 2u);
  EXPECT_EQ(tail[0].seq, 8u);
  EXPECT_EQ(tail[0].title, "WARNING in f8");
  EXPECT_EQ(tail[1].seq, 9u);
  EXPECT_EQ(tail[1].title, "WARNING in f9");
}

TEST(Dmesg, SinceOlderThanOldestRetainedReturnsWholeRing) {
  Dmesg d(4);
  for (int i = 0; i < 10; ++i) d.warn("a", "f" + std::to_string(i));
  for (uint64_t from : {0ull, 3ull, 6ull}) {
    const auto all = d.since(from);
    ASSERT_EQ(all.size(), 4u) << "from_seq " << from;
    for (size_t i = 0; i < all.size(); ++i) {
      EXPECT_EQ(all[i].seq, 6u + i);
      EXPECT_EQ(all[i].title, "WARNING in f" + std::to_string(6 + i));
    }
  }
}

TEST(Dmesg, SinceNextSeqIsEmpty) {
  Dmesg d(4);
  EXPECT_TRUE(d.since(d.next_seq()).empty());
  for (int i = 0; i < 10; ++i) d.warn("a", "f" + std::to_string(i));
  EXPECT_TRUE(d.since(d.next_seq()).empty());
  EXPECT_TRUE(d.since(d.next_seq() + 5).empty());
}

// clear() empties the ring but numbering is campaign-global and continues, so
// a cursor taken before it sees only the reports logged after it.
TEST(Dmesg, SinceAfterClearSeesOnlyNewReports) {
  Dmesg d(4);
  for (int i = 0; i < 6; ++i) d.warn("a", "f" + std::to_string(i));
  const uint64_t before = d.next_seq();
  d.clear();
  EXPECT_TRUE(d.since(0).empty());
  EXPECT_TRUE(d.since(before).empty());
  d.bug("b", "after reboot");
  const auto got = d.since(2);
  ASSERT_EQ(got.size(), 1u);
  EXPECT_EQ(got[0].seq, 6u);
  EXPECT_EQ(got[0].title, "BUG: after reboot");
  EXPECT_TRUE(got[0].fatal);
  ASSERT_EQ(d.since(before).size(), 1u);
  EXPECT_TRUE(d.since(7).empty());
}

TEST(Dmesg, ClearPanicKeepsRing) {
  Dmesg d;
  d.bug("x", "b");
  d.clear_panic();
  EXPECT_FALSE(d.panicked());
  EXPECT_EQ(d.ring().size(), 1u);
}

TEST(Dmesg, ClearKeepsSeqCounter) {
  Dmesg d;
  d.warn("a", "f");
  d.clear();
  EXPECT_TRUE(d.ring().empty());
  d.warn("a", "g");
  EXPECT_EQ(d.ring()[0].seq, 1u);  // campaign-global numbering
}

TEST(Dmesg, KindNames) {
  EXPECT_STREQ(report_kind_name(ReportKind::kWarning), "WARNING");
  EXPECT_STREQ(report_kind_name(ReportKind::kKasan), "KASAN");
  EXPECT_STREQ(report_kind_name(ReportKind::kHang), "HANG");
}

}  // namespace
}  // namespace df::kernel
